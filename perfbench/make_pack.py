"""Write a synthetic frame pack with the program's own clip generator.

The CLI has no command that writes a frame pack, so the scene-wide
workload builds its input with ``fado.scene.gen_synthetic_clips`` and
``write_frames_packed``, the functions ``fado scene --synthetic`` uses:

    python3 perfbench/make_pack.py WIDTH HEIGHT CLIPS FRAMES_PER_CLIP \
        NOISE SEED OUT
"""

import sys

from fado.scene import gen_synthetic_clips, write_frames_packed


def main(argv):
    width, height, clips, per_clip, noise, seed = (int(v) for v in argv[:6])
    frames, _ = gen_synthetic_clips(width, height, clips, per_clip, noise,
                                    seed)
    write_frames_packed(frames, argv[6])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
