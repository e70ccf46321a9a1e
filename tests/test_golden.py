"""Byte contracts: sweep CSVs, generated streams, run and scene outputs.

The digests were recorded before the sweep engine and the Box-Muller
helper were consolidated; any refactor of ``fado.experiments`` or
``fado.streams`` must reproduce them exactly.  ``margin`` exits 1 at this
reduced size (its log-log slope check fails) but still writes its CSV.
The ``fado run`` and ``fado scene`` digests were recorded with the
row-by-row step loop, before the block scan replaced it.  Frames wider than
the kernel's 8192-element slice must give the same bytes whatever the
number of BLAS threads.  The long 2x2 timeline (17000 frames) spans two
8192-row boundaries of the outcome-CSV writer; it was recorded when the
timeline was one joined string.  The ``margin``, ``dim``, ``epsilon`` and
``contamination`` sweep digests were re-recorded when the summed zeta (good
to 1e-10) gave way to the Euler-Maclaurin one (good to about an ulp): only
their ``bound`` column moved, by at most 6.4e-11 relative.  The splitmix64
block and the synthetic clip digests were recorded before generation was
mixed in place tile by tile; they span several tiles and frames wider than
one tile.  They use only integer operations and correctly rounded float
arithmetic, so unlike the ``gen`` digests they hold on every host.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from fado.cli import main
from fado.scene import gen_synthetic_clips, write_frames_packed
from fado.streams import SplitMix64

from conftest import HAVE_TASKS, main_in_child

SWEEP_DIGESTS = {
    "margin": ("eebdc58ddaef761ad1478e01c24f6e853a544a229b82aba0ce3be608696a16b8", 1),
    "center": ("14d29825b3fa125bce1eac14427e4d79a137513af59290c5703f40be9e50ecf8", 0),
    "dim": ("a3235564c41bb7a6415bb6f37f48c6004fe5b5c59c3d447a9df9417479018649", 0),
    "epsilon": ("72df50ac46ba51ac3a48f7b207438b97ba3bcf76522d408034f4c215eb34e8ef", 0),
    "contamination": ("944b0a3781df156f62eb02166fc00d926e252877a517f8660281600b8aa9e929", 0),
    "adaptive": ("6edca8ed4e6d4c4ac0c92369dc128f1d41ca3d3bf98236e2e132b1bb7931e02e", 0),
}

GEN_DIGESTS = {
    "ball": (["--dim", "7", "--count", "5000", "--center", "1",
              "--epsilon", "1", "--mu", "0.1", "--seed", "3"],
             "97ef156c9b2f062d130cd815d3c875c645b5ee9a0efc87b53533f30522899576"),
    "circle": (["--dim", "2", "--count", "5000", "--center", "2",
                "--epsilon", "1", "--mu", "0.001", "--seed", "3"],
               "3d57eb09b974631be4c35197863e5b56dacde83403b25af045f58be10eab01e4"),
    "mixture": (["--dim", "10", "--count", "5000",
                 "--center", "2,2,0,0,0,0,0,0,0,0", "--epsilon", "1",
                 "--mu", "0.1", "--fraction", "0.05", "--radius-max", "5",
                 "--seed", "3"],
                "fb9de267208a03497404a6cfc5a1ec830264d0238bfd29e80093c0734a2bb9d2"),
}

# ``fado gen`` to .csv, and the mixture's --labels-out, recorded with the
# per-row CSV writer that the columnar row writer replaced.
GEN_CSV_DIGESTS = {
    "ball": "ccb9976eb95633bf955de200b5af73d67913aecc503ec7ee0a878f9fbb0465b0",
    "circle": "5bca18e52ad03949891c516bc706926e4420feea0182e40ebf19662d298e39d3",
    "mixture": "a740a938ba01caad5736d361a0348e9085591f71b997b7e3a43c3f3aaab1de39",
}
GEN_LABELS_DIGEST = \
    "2f482cabbcd13516923a9c60679d86c09713e0cd9bb64a54fdf079b6c728561b"

RUN_DIGESTS = {
    "fixed": (["--mode", "fixed", "--epsilon", "1"],
              "927d5642dc3d50535dd36cbd61e6dc89d7de9a12a6a545a236a592a8ef4d1bc9",
              "c327b9db670d8964e10073222cf531f2819ef201a6f00448b1497f648285be61"),
    "adaptive": (["--mode", "adaptive"],
                 "0f2dc3b021811da8733b0b93fc477885751791dd5286114252657091e6427a5e",
                 "5cdfadb8f78a1fc1bf02462561b8935373988f81e348ba4f94e19e5b04ca1699"),
    "constant-gain": (["--mode", "constant-gain", "--epsilon", "1",
                       "--gamma", "0.5"],
                      "5a786630c717d0c84faa3e205a2a3d7ccab023b6cd5d304797d2cc4d858606fe",
                      "d3495ef7d592e5f01054af43296f1407e997f0ca22ffd476ef2098b1608b4714"),
}

SCENE_DIGESTS = {
    "timeline.csv": "8a6d743a663fc97387adef5b6838cd94319506dc343e4dbfce5bd4b661b34e72",
    "memory.pgm": "71503e082b7baaeb36ebdb1b40267f8d0b496fac1e467b41ca58c20bd287c4b3",
    "state.ckpt": "a42ed18f2f7cf44fd2b7e5b6e583db0e4fd0587c869f598f6262f317e0c0339f",
}

LONG_TIMELINE_DIGEST = \
    "a6f00ef7bae59c78eca865506e85b1fe17246854e8ae445ed972f783937c3cbf"

# SplitMix64(7).next_u64_block(100003) as little-endian bytes, and the state
# after the call
U64_BLOCK_DIGEST = (
    "a8a8e5aa18448273b2c002d9983205f5335b3152156265adc0911b7ab88b7246",
    0x40c319078574ff66)

# frames of gen_synthetic_clips(*args, seed=4); amplitude 0 draws no noise
CLIP_DIGESTS = {
    (400, 400, 2, 3, 10):
        "879ecada2e0c4ab911587f52bdfc7275cff4ca851627f9b16061bd0c747b9823",
    (300, 250, 2, 2, 0):
        "0ee925865bc382bb1c89accdda347943605263a371f7637e95fcdc32ef53e633",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", sorted(SWEEP_DIGESTS))
def test_sweep_csv_bytes_are_pinned(kind, tmp_path):
    digest, exit_code = SWEEP_DIGESTS[kind]
    out = tmp_path / f"{kind}.csv"
    assert main(["sweep", kind, "--seeds", "2", "--count", "1500",
                 "--out", str(out)]) == exit_code
    assert _sha256(out) == digest


@pytest.mark.parametrize("design", sorted(GEN_DIGESTS))
def test_generated_stream_bytes_are_pinned(design, tmp_path):
    args, digest = GEN_DIGESTS[design]
    out = tmp_path / f"{design}.bin"
    assert main(["gen", "--design", design, *args, "--out", str(out)]) == 0
    assert _sha256(out) == digest


@pytest.mark.parametrize("design", sorted(GEN_CSV_DIGESTS))
def test_generated_csv_bytes_are_pinned(design, tmp_path):
    args, _ = GEN_DIGESTS[design]
    out, labels = tmp_path / f"{design}.csv", tmp_path / "labels.csv"
    if design == "mixture":
        args = [*args, "--labels-out", str(labels)]
    assert main(["gen", "--design", design, *args, "--out", str(out)]) == 0
    assert _sha256(out) == GEN_CSV_DIGESTS[design]
    if design == "mixture":
        assert _sha256(labels) == GEN_LABELS_DIGEST


@pytest.mark.parametrize("mode", sorted(RUN_DIGESTS))
def test_run_outcome_and_checkpoint_bytes_are_pinned(mode, tmp_path):
    args, csv_digest, ckpt_digest = RUN_DIGESTS[mode]
    stream = tmp_path / "mixture.bin"
    assert main(["gen", "--design", "mixture", *GEN_DIGESTS["mixture"][0],
                 "--out", str(stream)]) == 0
    out, ckpt = tmp_path / "out.csv", tmp_path / "state.ckpt"
    assert main(["run", *args, "--input", str(stream), "--output", str(out),
                 "--checkpoint-out", str(ckpt)]) == 0
    assert (_sha256(out), _sha256(ckpt)) == (csv_digest, ckpt_digest)


def test_scene_outputs_are_pinned(tmp_path):
    paths = {name: tmp_path / name for name in SCENE_DIGESTS}
    assert main(["scene", "--synthetic", "--epsilon", "5",
                 "--timeline", str(paths["timeline.csv"]),
                 "--snapshot", str(paths["memory.pgm"]),
                 "--checkpoint-out", str(paths["state.ckpt"])]) == 0
    assert {name: _sha256(p) for name, p in paths.items()} == SCENE_DIGESTS


def test_long_scene_timeline_is_pinned(tmp_path):
    timeline = tmp_path / "timeline.csv"
    assert main(["scene", "--synthetic", "--width", "2", "--height", "2",
                 "--clips", "17", "--frames-per-clip", "1000",
                 "--epsilon", "0.5", "--timeline", str(timeline)]) == 0
    assert _sha256(timeline) == LONG_TIMELINE_DIGEST


def test_u64_block_bytes_are_pinned():
    rng = SplitMix64(7)
    block = rng.next_u64_block(100_003).astype("<u8").tobytes()
    assert (hashlib.sha256(block).hexdigest(), rng._state) == U64_BLOCK_DIGEST


@pytest.mark.parametrize("args", sorted(CLIP_DIGESTS))
def test_synthetic_clip_bytes_are_pinned(args):
    frames, _ = gen_synthetic_clips(*args, seed=4)
    assert hashlib.sha256(frames.frames.tobytes()).hexdigest() == \
        CLIP_DIGESTS[args]


def test_cli_import_loads_no_scipy(tmp_path):
    """Nor the sweeps, which only ``fado sweep`` imports; a ``fado run``
    loads only the detector, the checkpoint codec and the stream I/O."""
    code = ("import sys, fado.cli; "
            "print(sorted(m for m in sys.modules "
            "if m in ('scipy', 'fado.experiments') "
            "or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"
    stream = tmp_path / "s.csv"
    assert main(["gen", "--dim", "2", "--count", "50", "--center", "1",
                 "--epsilon", "1", "--seed", "1", "--out", str(stream)]) == 0
    probe = main_in_child(["run", "--mode", "fixed", "--epsilon", "1",
                           "--input", stream,
                           "--output", tmp_path / "o.csv"])
    assert probe["code"] == 0
    assert probe["modules"] == ["fado", "fado.checkpoint", "fado.cli",
                                "fado.detector", "fado.streamio", "numpy"]


def test_packed_scene_loads_no_generator(tmp_path):
    """``fado scene --packed`` loads neither the stream generators nor
    the bounds; only ``--synthetic`` needs them."""
    pack = tmp_path / "frames.pack"
    write_frames_packed(gen_synthetic_clips(4, 4, 2, 3, 5, seed=1)[0], pack)
    probe = main_in_child(["scene", "--packed", pack,
                           "--timeline", tmp_path / "timeline.csv"])
    assert probe["code"] == 0
    assert probe["modules"] == ["fado", "fado.checkpoint", "fado.cli",
                                "fado.detector", "fado.scene",
                                "fado.streamio", "numpy"]


def test_wide_scene_outputs_do_not_depend_on_blas_threads(tmp_path):
    """128 x 128 frames (n = 16384): a single BLAS dot product of that
    length is split across OpenBLAS threads, which changes its bits.  The
    child given two threads must run two (OpenBLAS caps the count at the
    CPUs the process may use), so that the comparison is not between two
    one-thread runs."""
    frames, _ = gen_synthetic_clips(128, 128, 3, 8, 10, seed=4)
    pack = tmp_path / "frames.pack"
    write_frames_packed(frames, pack)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        probe = main_in_child(
            ["scene", "--packed", pack, "--epsilon", "10", "--gamma", "30",
             "--timeline", out / "timeline.csv",
             "--snapshot", out / "memory.pgm",
             "--checkpoint-out", out / "state.ckpt"],
            OPENBLAS_NUM_THREADS=threads)
        assert probe["code"] == 0
        if HAVE_TASKS:
            assert probe["tasks"] == min(int(threads),
                                         len(os.sched_getaffinity(0)))
        outputs.append({name: (out / name).read_bytes()
                        for name in ("timeline.csv", "memory.pgm",
                                     "state.ckpt")})
    assert b"\n10,0," in outputs[0]["timeline.csv"]  # a quiet frame
    assert outputs[0] == outputs[1]
