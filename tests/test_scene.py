import json
import subprocess
import sys

import numpy as np
import pytest

from fado.checkpoint import checkpoint_decode, checkpoint_encode
from fado.cli import _SYNTHETIC, main
from fado.detector import (SCAN_CHUNK_BYTES, _TILE, Constant, Detector,
                           FixedRadius)
from fado.scene import (
    FrameFormatError,
    FrameSequence,
    _FrameReader,
    _open_frames_packed,
    _open_pgm_sequence,
    detection_latencies,
    frame_to_vector,
    gen_synthetic_clips,
    read_frames_packed,
    read_pgm,
    run_scene_detection,
    timeline_to_csv,
    write_frames_packed,
    write_memory_snapshot,
    write_pgm,
)

from conftest import child_env, main_in_child


class TestPgmIO:
    def test_decode_2x2(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        width, height, pixels = read_pgm(path)
        assert (width, height) == (2, 2)
        np.testing.assert_array_equal(pixels, [[0, 255], [128, 64]])

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n# more\n255\n" +
                         bytes([7, 9]))
        _, _, pixels = read_pgm(path)
        np.testing.assert_array_equal(pixels, [[7, 9]])

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x01")
        with pytest.raises(FrameFormatError, match="maxval"):
            read_pgm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FrameFormatError, match="P5"):
            read_pgm(path)

    def test_unterminated_header_comment_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 2\n# no newline ends this")
        with pytest.raises(FrameFormatError,
                           match="unterminated header comment$"):
            read_pgm(path)

    def test_maxval_zero_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n1 1\n0\n\x00")
        with pytest.raises(FrameFormatError, match="invalid maxval 0$"):
            read_pgm(path)

    def test_write_pgm_rejects_a_flat_array(self, tmp_path):
        with pytest.raises(ValueError, match="^pixels must be a 2-D array$"):
            write_pgm(np.zeros(4, dtype=np.uint8), tmp_path / "f.pgm")

    def test_frame_stack_must_match_its_size(self):
        with pytest.raises(ValueError, match=r"\(T, height, width\) stack"):
            FrameSequence(2, 2, np.zeros((1, 2, 3), dtype=np.uint8))

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(FrameFormatError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("maxval,pixels,expected", [
        (15, [0, 15], [0, 255]),
        (15, [7, 8], [119, 136]),
        (1, [1, 0], [255, 0]),
        (255, [3, 254], [3, 254]),
    ])
    def test_pixels_rescale_to_maxval_255(self, tmp_path, maxval, pixels,
                                          expected):
        path = tmp_path / "f.pgm"
        path.write_bytes(f"P5\n2 1\n{maxval}\n".encode() + bytes(pixels))
        _, _, decoded = read_pgm(path)
        assert decoded.dtype == np.uint8
        np.testing.assert_array_equal(decoded, [expected])
        if pixels[0] == maxval:
            assert frame_to_vector(decoded)[0] == 1.0

    def test_pixel_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([15, 16]))
        with pytest.raises(FrameFormatError, match="exceeds maxval 15"):
            read_pgm(path)

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "f.pgm"
        pixels = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_pgm(pixels, path)
        _, _, back = read_pgm(path)
        np.testing.assert_array_equal(back, pixels)


class TestPgmList:
    """PGM files are decoded as their frames are judged; a bad frame fails
    ``fado scene`` with exit 1 and one line naming it."""

    @pytest.mark.parametrize("second, message", [
        (b"P5\n2 3\n255\n" + bytes(6),
         "frame 1: size 2x3 does not match first frame 2x2"),
        (b"P2\n2 2\n255\n0 0 0 0\n",
         "frame 1: {b}: not a binary PGM (missing P5)"),
    ], ids=["another-size", "not-binary"])
    def test_a_bad_frame_exits_one_naming_it(self, tmp_path, capsys, second,
                                             message):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(np.zeros((2, 2), dtype=np.uint8), a)
        b.write_bytes(second)
        ckpt = tmp_path / "c.ckpt"
        assert main(["scene", str(a), str(b), "--checkpoint-out",
                     str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(b=b)}\n"
        assert not ckpt.exists()

    def test_no_files_rejected(self):
        with pytest.raises(FrameFormatError, match="no frame"):
            _open_pgm_sequence([])

    def test_frames_come_in_the_order_given(self, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"{i}.pgm"
            write_pgm(np.full((2, 2), i, dtype=np.uint8), p)
            paths.append(p)
        reader = _open_pgm_sequence(paths)
        assert len(reader) == 3
        (block,) = reader.blocks(3)
        np.testing.assert_array_equal(block[:, 0], [0, 1, 2])


class TestFrameToVector:
    def test_all_zero(self):
        assert (frame_to_vector(np.zeros((4, 4), dtype=np.uint8)) == 0).all()

    def test_all_255(self):
        assert (frame_to_vector(np.full((4, 4), 255, np.uint8)) == 1.0).all()

    def test_half_gray(self):
        vec = frame_to_vector(np.full((2, 2), 128, np.uint8))
        assert vec[0] == pytest.approx(0.5019607843137255, abs=1e-15)

    def test_row_major_order(self):
        frame = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        np.testing.assert_allclose(frame_to_vector(frame) * 255.0,
                                   [1, 2, 3, 4])


# Each function that takes frames, as a call on a (1, 2) array of levels.
_TAKES_FRAMES = {
    "FrameSequence": lambda pixels, path: FrameSequence(2, 1, pixels[None]),
    "write_pgm": write_pgm,
    "frame_to_vector": lambda pixels, path: frame_to_vector(pixels),
}


class TestPixelLevels:
    """Frames hold 8-bit levels: values a uint8 holds exactly pass, and
    any other is refused by name, never wrapped or truncated."""

    @pytest.mark.parametrize("takes", _TAKES_FRAMES.values(),
                             ids=_TAKES_FRAMES)
    @pytest.mark.parametrize("bad, shown", [
        (300, "300"), (-1, "-1"), (0.5, "0.5"), (np.nan, "nan")])
    def test_a_value_no_uint8_holds_is_named(self, tmp_path, takes, bad,
                                             shown):
        pixels = np.array([[7, bad]])
        with pytest.raises(ValueError,
                           match=f"^pixel value {shown} is not an integer "
                                 f"from 0 to 255$"):
            takes(pixels, tmp_path / "f.pgm")
        assert not (tmp_path / "f.pgm").exists()

    def test_in_range_integers_give_the_bytes_of_uint8(self, tmp_path):
        levels = np.array([[0, 255], [3, 128]], dtype=np.int64)
        as_uint8 = levels.astype(np.uint8)
        for name, pixels in (("int64", levels), ("uint8", as_uint8)):
            write_pgm(pixels, tmp_path / f"{name}.pgm")
        assert (tmp_path / "int64.pgm").read_bytes() == \
            (tmp_path / "uint8.pgm").read_bytes()
        assert frame_to_vector(levels).tobytes() == \
            frame_to_vector(as_uint8).tobytes()
        frames = FrameSequence(2, 2, levels[None]).frames
        assert frames.dtype == np.uint8
        assert frames.tobytes() == as_uint8.tobytes()

    def test_uint8_frames_are_not_copied(self):
        frames = np.zeros((3, 2, 2), dtype=np.uint8)
        assert FrameSequence(2, 2, frames).frames is frames


class TestSceneDetection:
    def test_constant_gray_video_single_alarm(self):
        """40x40 constant gray 128: first-frame distance is
        40 * 128/255 = 20.0784...; with unit gain and a radius just under
        it, the first frame alarms and every later frame sits 19.078 away,
        inside the radius."""
        frames = FrameSequence(
            width=40, height=40,
            frames=np.full((10, 40, 40), 128, dtype=np.uint8))
        timeline, det = run_scene_detection(frames, epsilon=19.5, gamma=1.0)
        assert timeline.outcomes.alarm.tolist() == [True] + [False] * 9
        assert timeline.outcomes.distance[0] == pytest.approx(
            40.0 * 128.0 / 255.0, abs=1e-12)
        assert timeline.outcomes.distance[1] == pytest.approx(
            40.0 * 128.0 / 255.0 - 1.0, abs=1e-9)
        assert timeline.alarms == 1 and det.m == 1

    def test_alarm_rate_is_ratio(self):
        frames, _ = gen_synthetic_clips(16, 16, 4, 10, 5, seed=3)
        timeline, _ = run_scene_detection(frames, epsilon=3.0, gamma=1.0)
        assert timeline.alarm_rate == timeline.alarms / len(frames)

    def test_empty_sequence_rejected(self):
        frames = FrameSequence(width=2, height=2,
                               frames=np.zeros((0, 2, 2), np.uint8))
        with pytest.raises(ValueError, match="empty"):
            run_scene_detection(frames, 1.0, 1.0)

    def test_resume_from_checkpoint_matches_full_run(self):
        from fado.checkpoint import checkpoint_decode, checkpoint_encode
        frames, _ = gen_synthetic_clips(8, 8, 4, 10, 5, seed=5)
        full_tl, _ = run_scene_detection(frames, epsilon=2.0, gamma=1.0)

        first = FrameSequence(8, 8, frames.frames[:20])
        second = FrameSequence(8, 8, frames.frames[20:])
        tl1, det = run_scene_detection(first, epsilon=2.0, gamma=1.0)
        resumed = checkpoint_decode(checkpoint_encode(det))
        tl2, _ = run_scene_detection(second, detector=resumed)
        alarms = tl1.outcomes.alarm.tolist() + tl2.outcomes.alarm.tolist()
        assert alarms == full_tl.outcomes.alarm.tolist()


class TestSyntheticClips:
    def test_transition_count_and_shape(self):
        frames, transitions = gen_synthetic_clips(40, 40, 16, 50, 10, seed=1)
        assert len(frames) == 800
        assert transitions == [50 * k for k in range(1, 16)]
        assert frames.frames.dtype == np.uint8

    @pytest.mark.parametrize("width, noise, error", [
        (0, 3, "^width, height, num_clips, frames_per_clip must be "
               "positive$"),
        (4, -1, "^noise_amplitude must be nonnegative$"),
    ], ids=["width", "noise"])
    def test_sizes_and_noise_rejected(self, width, noise, error):
        with pytest.raises(ValueError, match=error):
            gen_synthetic_clips(width, 4, 1, 2, noise, seed=1)

    def test_seed_must_be_an_integer(self):
        with pytest.raises(TypeError, match="^seed must be an integer"):
            gen_synthetic_clips(4, 4, 1, 2, 3, seed=1.5)

    def test_zero_noise_within_clip_constant(self):
        frames, transitions = gen_synthetic_clips(10, 10, 3, 5, 0, seed=2)
        stack = frames.frames
        for clip in range(3):
            base = stack[clip * 5]
            for j in range(1, 5):
                np.testing.assert_array_equal(stack[clip * 5 + j], base)
        # between-clip distances are large
        for t in transitions:
            d = np.linalg.norm(frame_to_vector(stack[t]) -
                               frame_to_vector(stack[t - 1]))
            assert d > 1.0

    def test_deterministic(self):
        a, _ = gen_synthetic_clips(12, 9, 4, 6, 7, seed=42)
        b, _ = gen_synthetic_clips(12, 9, 4, 6, 7, seed=42)
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_numpy_integer_sizes(self):
        a, _ = gen_synthetic_clips(np.int64(40), 3, 2, np.int64(4), 7, seed=1)
        b, _ = gen_synthetic_clips(40, 3, 2, 4, 7, seed=1)
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_noise_blocks_span_a_clip(self):
        """A 2x2 clip of 300000 frames takes its noise in blocks of 32768
        frames (1 MiB of doubles) and a shorter last one; the bytes equal
        one draw for the whole clip."""
        from fado.streams import SplitMix64
        frames, _ = gen_synthetic_clips(2, 2, 1, 300_000, 3, seed=8)
        root = SplitMix64(8)
        bg_rng, base_rng, noise_rng = root.spawn(), root.spawn(), root.spawn()
        background = np.floor(bg_rng.next_double_block(4) * 256.0)
        delta = np.floor(base_rng.next_double_block(4) * 129.0) - 64.0
        base = np.clip(background + delta, 0.0, 255.0)
        noise = np.floor(noise_rng.next_double_block(4 * 300_000) * 7) - 3
        expected = np.clip(base + noise.reshape(-1, 4), 0.0, 255.0)
        assert frames.frames.tobytes() == expected.astype(np.uint8).tobytes()

    def test_every_transition_alarmed_promptly(self):
        frames, transitions = gen_synthetic_clips(40, 40, 16, 50, 10, seed=1)
        timeline, _ = run_scene_detection(frames, epsilon=5.0, gamma=1.0)
        for latency in detection_latencies(timeline, transitions):
            assert latency is not None and latency <= 5

    def test_burn_in_decay(self):
        frames, _ = gen_synthetic_clips(40, 40, 16, 50, 10, seed=1)
        timeline, _ = run_scene_detection(frames, epsilon=5.0, gamma=1.0)
        half = len(frames) // 2
        first = int(timeline.outcomes.alarm[:half].sum())
        second = int(timeline.outcomes.alarm[half:].sum())
        assert second < first


def _pulse_frames(*lit):
    """2x2 frames, black except the listed indices, which are white."""
    stack = np.zeros((max(lit) + 3, 2, 2), dtype=np.uint8)
    stack[list(lit)] = 255
    return FrameSequence(width=2, height=2, frames=stack)


class TestLatencies:
    """A white 2x2 frame is 2 away from a black memory, so with radius 1.5
    it alarms; the unit step leaves the memory 1 from black, inside."""

    def test_transition_on_and_after_the_last_alarm(self, tmp_path):
        frames = _pulse_frames(2)
        timeline, _ = run_scene_detection(frames, epsilon=1.5, gamma=1.0)
        assert detection_latencies(timeline, [1, 2, 3]) == [1, 0, None]
        path = tmp_path / "t.csv"
        timeline_to_csv(timeline, [2, 3], path)
        footer = [ln for ln in path.read_text().splitlines()
                  if ln.startswith("#")]
        assert footer == ["# alarms,1", "# alarm_rate,0.2",
                          "# transition_latency,2,0",
                          "# transition_latency,3,-1"]

    def test_matches_a_scan_of_the_alarm_indices(self):
        from fado.detector import ScanOutcomes
        from fado.scene import DetectionTimeline
        rng = np.random.default_rng(12)
        for _ in range(200):
            count, start = int(rng.integers(1, 40)), int(rng.integers(0, 9))
            alarm = rng.random(count) < rng.choice([0.0, 0.1, 0.5])
            zeros = np.zeros(count)
            timeline = DetectionTimeline(
                ScanOutcomes(alarm, zeros, zeros, zeros), start)
            transitions = rng.integers(0, start + count + 3, 4).tolist()
            alarm_frames = [start + i for i in range(count) if alarm[i]]
            expected = [next((a - t for a in alarm_frames if a >= t), None)
                        for t in transitions]
            assert detection_latencies(timeline, transitions) == expected
            assert timeline.alarms == len(alarm_frames)

    def test_no_transitions_and_no_alarms(self):
        frames = FrameSequence(2, 2, np.zeros((4, 2, 2), np.uint8))
        timeline, _ = run_scene_detection(frames, epsilon=1.5, gamma=1.0)
        assert detection_latencies(timeline, []) == []
        assert detection_latencies(timeline, [0, 3]) == [None, None]

    def test_resumed_timeline_reports_global_indices(self, tmp_path):
        from fado.checkpoint import checkpoint_decode, checkpoint_encode
        quiet = FrameSequence(2, 2, np.zeros((3, 2, 2), np.uint8))
        _, det = run_scene_detection(quiet, epsilon=1.5, gamma=1.0)
        resumed = checkpoint_decode(checkpoint_encode(det))
        timeline, _ = run_scene_detection(_pulse_frames(1), detector=resumed)
        assert detection_latencies(timeline, [3, 4, 5]) == [1, 0, None]
        path = tmp_path / "t.csv"
        timeline_to_csv(timeline, [4], path)
        rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]
                if not ln.startswith("#")]
        assert [(r[0], r[1], r[4]) for r in rows] == [
            ("3", "0", "0"), ("4", "1", "1"), ("5", "0", "0"),
            ("6", "0", "0")]
        assert "# transition_latency,4,0" in path.read_text()


class TestMemorySnapshot:
    def test_zero_state_black(self, tmp_path):
        det = Detector(4, FixedRadius(1.0), Constant(1.0))
        path = tmp_path / "w.pgm"
        write_memory_snapshot(det, 2, 2, path)
        _, _, pixels = read_pgm(path)
        assert (pixels == 0).all()

    def test_ones_white_and_clamping(self, tmp_path):
        det = Detector(4, FixedRadius(1.0), Constant(1.0))
        det.w[:] = [1.0, 2.5, -0.5, 0.5]
        path = tmp_path / "w.pgm"
        write_memory_snapshot(det, 2, 2, path)
        _, _, pixels = read_pgm(path)
        np.testing.assert_array_equal(pixels.ravel(), [255, 255, 0, 128])

    def test_round_half_up(self, tmp_path):
        det = Detector(1, FixedRadius(1.0), Constant(1.0))
        det.w[:] = [0.5 / 255.0]  # scales to exactly 0.5
        path = tmp_path / "w.pgm"
        write_memory_snapshot(det, 1, 1, path)
        _, _, pixels = read_pgm(path)
        assert pixels[0, 0] == 1

    def test_snapshot_roundtrip_equals_quantized_memory(self, tmp_path):
        rng = np.random.default_rng(6)
        det = Detector(64, FixedRadius(1.0), Constant(1.0))
        det.w[:] = rng.uniform(-0.2, 1.2, size=64)
        path = tmp_path / "w.pgm"
        write_memory_snapshot(det, 8, 8, path)
        _, _, pixels = read_pgm(path)
        expected = np.floor(np.clip(det.w, 0, 1) * 255.0 + 0.5).astype(
            np.uint8).reshape(8, 8)
        np.testing.assert_array_equal(pixels, expected)

    def test_peak_memory_is_one_copy_of_the_memory(self, tmp_path):
        """The snapshot is worked one tile of w at a time into the uint8
        pixels: the peak of the allocations it makes stays under the
        pixels, one tile of floats and 64 KiB, under half of w's size."""
        import tracemalloc
        det = Detector(160_000, FixedRadius(1.0), Constant(1.0))
        det.w[:] = np.random.default_rng(7).uniform(-0.2, 1.2, 160_000)
        tracemalloc.start()
        try:
            write_memory_snapshot(det, 400, 400, tmp_path / "w.pgm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < det.dim + 8 * _TILE + (1 << 16) < det.w.nbytes / 2

    def test_tiles_give_the_bytes_of_the_untiled_formula(self, tmp_path):
        """A center of three tiles and part of a fourth: values below 0
        and above 1, each level's exact half step (k + 0.5) / 255 and its
        float neighbours, at tile edges and between, are clipped, scaled,
        rounded half up and floored as the whole array would be."""
        dim = 3 * _TILE + 1234
        halves = (np.arange(256) + 0.5) / 255.0
        special = np.concatenate([
            [-1e300, -1.0, -1e-300, -0.0, 0.0, 1.0, 1.0 + 2.0 ** -52, 2.0,
             1e300], np.arange(256) / 255.0, halves,
            np.nextafter(halves, -np.inf), np.nextafter(halves, np.inf)])
        rng = np.random.default_rng(8)
        w = np.resize(special, dim)
        w[::3] = rng.uniform(-0.5, 1.5, len(w[::3]))
        w[_TILE - 4:_TILE + 4] = special[-8:]  # across a tile edge
        det = Detector(dim, FixedRadius(1.0), Constant(1.0))
        det.w[:] = w
        path = tmp_path / "w.pgm"
        write_memory_snapshot(det, dim, 1, path)
        expected = np.floor(np.clip(w, 0.0, 1.0) * 255.0 + 0.5)
        assert dim % _TILE and dim > 3 * _TILE
        assert path.read_bytes() == (f"P5\n{dim} 1\n255\n".encode()
                                     + expected.astype(np.uint8).tobytes())

    def test_dimension_mismatch(self, tmp_path):
        det = Detector(5, FixedRadius(1.0), Constant(1.0))
        with pytest.raises(ValueError, match="dimension"):
            write_memory_snapshot(det, 2, 2, tmp_path / "w.pgm")


class TestTimelineCsv:
    def test_quiet_timeline_all_zero_alarms(self, tmp_path):
        frames = FrameSequence(
            width=4, height=4, frames=np.zeros((5, 4, 4), np.uint8))
        timeline, _ = run_scene_detection(frames, epsilon=9.0, gamma=1.0)
        path = tmp_path / "t.csv"
        timeline_to_csv(timeline, None, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,alarm,distance,radius,is_true_transition"
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert all(ln.split(",")[1] == "0" for ln in data)
        assert any(ln.startswith("# alarm_rate,0.0") for ln in lines)

    def test_latency_footer(self, tmp_path):
        frames, transitions = gen_synthetic_clips(16, 16, 4, 10, 5, seed=9)
        timeline, _ = run_scene_detection(frames, epsilon=3.0, gamma=1.0)
        path = tmp_path / "t.csv"
        timeline_to_csv(timeline, transitions, path)
        lat_lines = [ln for ln in path.read_text().splitlines()
                     if ln.startswith("# transition_latency")]
        assert len(lat_lines) == len(transitions)

    def test_byte_reproducible(self, tmp_path):
        out = []
        for name in ("a.csv", "b.csv"):
            frames, transitions = gen_synthetic_clips(16, 16, 4, 10, 5,
                                                      seed=31)
            timeline, _ = run_scene_detection(frames, epsilon=3.0, gamma=1.0)
            path = tmp_path / name
            timeline_to_csv(timeline, transitions, path)
            out.append(path.read_bytes())
        assert out[0] == out[1]


class TestPackedFrames:
    def test_roundtrip(self, tmp_path):
        frames, _ = gen_synthetic_clips(6, 5, 3, 4, 3, seed=8)
        path = tmp_path / "frames.ffr"
        write_frames_packed(frames, path)
        back = read_frames_packed(path)
        assert (back.width, back.height) == (6, 5)
        assert back.frames.tobytes() == frames.frames.tobytes()

    def test_frames_read_on_demand_decide_as_in_memory(self, tmp_path):
        """A pack and a PGM list, read a block at a time, give the timeline
        and center of the same frames held in memory.  Each block holds as
        many frames as SCAN_CHUNK_BYTES holds float64 rows of their width."""
        frames, _ = gen_synthetic_clips(40, 40, 5, 40, 10, seed=12)
        assert 8 * frames.dim * len(frames) > 2 * SCAN_CHUNK_BYTES
        per_block = SCAN_CHUNK_BYTES // (8 * frames.dim)
        pack = tmp_path / "frames.ffr"
        write_frames_packed(frames, pack)
        pgms = [tmp_path / f"{i:03d}.pgm" for i in range(len(frames))]
        for frame, path in zip(frames.frames, pgms):
            write_pgm(frame, path)
        want, det = run_scene_detection(frames, 5.0, 1.0)
        for source in (_open_frames_packed(pack), _open_pgm_sequence(pgms)):
            assert (source.width, source.height, len(source)) == (40, 40, 200)
            sizes = []

            def counted(rows, blocks=source.blocks):
                for block in blocks(rows):
                    sizes.append(len(block))
                    yield block

            got, other = run_scene_detection(
                _FrameReader(40, 40, len(source), counted), 5.0, 1.0)
            assert sizes == [per_block, per_block, 200 - 2 * per_block]
            for name in ("alarm", "distance", "threshold", "gain_applied"):
                assert getattr(got.outcomes, name).tobytes() == \
                    getattr(want.outcomes, name).tobytes()
            assert other.w.tobytes() == det.w.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "frames.ffr"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 30)
        with pytest.raises(FrameFormatError, match="magic"):
            read_frames_packed(path)

    def test_truncated(self, tmp_path):
        frames, _ = gen_synthetic_clips(6, 5, 2, 3, 3, seed=8)
        path = tmp_path / "frames.ffr"
        write_frames_packed(frames, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(FrameFormatError, match="length"):
            read_frames_packed(path)


# Writes the timeline, snapshot and checkpoint that ``fado scene`` writes
# to the paths sys.argv[2:5], from Detector.step over frame_to_vector
# frames; the JSON object sys.argv[1] names the frames (a pack, PGM files
# or gen_synthetic_clips arguments) and the detector (a checkpoint, or a
# fresh one's epsilon and gamma).
_STEPPED = """
import json, sys
import numpy as np
from fado.checkpoint import checkpoint_decode, checkpoint_encode
from fado.detector import Constant, Detector, FixedRadius, ScanOutcomes
from fado.scene import (DetectionTimeline, frame_to_vector,
                        gen_synthetic_clips, read_frames_packed, read_pgm,
                        timeline_to_csv, write_memory_snapshot)
spec = json.loads(sys.argv[1])
transitions = None
if "pgm" in spec:
    decoded = [read_pgm(path) for path in spec["pgm"]]
    width, height, _ = decoded[0]
    frames = [pixels for *_, pixels in decoded]
else:
    if "packed" in spec:
        clips = read_frames_packed(spec["packed"])
    else:
        clips, transitions = gen_synthetic_clips(*spec["synthetic"])
    width, height, frames = clips.width, clips.height, clips.frames
if "checkpoint" in spec:
    with open(spec["checkpoint"], "rb") as fh:
        detector = checkpoint_decode(fh.read())
else:
    detector = Detector(width * height, FixedRadius(spec["epsilon"]),
                        Constant(spec["gamma"]))
start = detector.t
if transitions is not None:
    transitions = [t + start for t in transitions]
steps = [detector.step(frame_to_vector(frame)) for frame in frames]
timeline = DetectionTimeline(ScanOutcomes(*map(np.array, zip(*steps))), start)
timeline_path, snapshot_path, state_path = sys.argv[2:]
timeline_to_csv(timeline, transitions, timeline_path)
write_memory_snapshot(detector, width, height, snapshot_path)
with open(state_path, "wb") as fh:
    fh.write(checkpoint_encode(detector))
"""


class TestColumnPartner:
    """``fado scene`` on frames of more than 65,536 pixels, where a scan
    chunk holds one frame, judges every frame in process with no helper
    process, and writes the bytes of a ``Detector.step`` loop: the scan's
    column tiles continue one running total, as ``step``'s whole-row dot
    does.  (The class keeps the name it had while a forked column partner
    judged half of each such frame.)"""

    # (width, height) of frames of 65,537, 81,919, 81,920, 81,921 and
    # 160,000 pixels: one past the one-row chunk limit, the three around a
    # whole number of dot slices, and the benchmark's frames
    SIZES = {65537: (65537, 1), 81919: (81919, 1), 81920: (320, 256),
             81921: (81921, 1), 160000: (400, 400)}

    @staticmethod
    def epsilon(dim):
        """A radius that the synthetic frames' first alarms cross: their
        norms are about 0.584 * sqrt(dim)."""
        return 0.584 * dim ** 0.5 - 4

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """Per size: 3 clips of 6 frames as a pack, and a checkpoint of a
        detector of that size (gain 0.5) that has seen 4 other frames; and
        the 81,920-pixel frames as PGM files."""
        tmp = tmp_path_factory.mktemp("wide")
        for dim, (width, height) in self.SIZES.items():
            frames, _ = gen_synthetic_clips(width, height, 3, 6, 10,
                                            seed=dim)
            write_frames_packed(frames, tmp / f"{dim}.pack")
            head, _ = gen_synthetic_clips(width, height, 2, 2, 10, seed=1)
            _, detector = run_scene_detection(head, self.epsilon(dim),
                                              gamma=0.5)
            (tmp / f"{dim}.ckpt").write_bytes(checkpoint_encode(detector))
            if dim == 81920:
                for i, frame in enumerate(frames.frames):
                    write_pgm(frame, tmp / f"{i:02d}.pgm")
        return tmp

    @staticmethod
    def scene(argv, tmp_path, **variables):
        """Run ``fado scene argv``, with OpenBLAS left to fado and
        ``variables`` set, writing a timeline, a snapshot and a checkpoint,
        and assert that it reaped no child; return its probe and the bytes
        of the three files (None if absent)."""
        files = [tmp_path / f"scene.{ext}" for ext in ("csv", "pgm", "ckpt")]
        probe = main_in_child(
            ["scene", *argv, "--timeline", files[0], "--snapshot", files[1],
             "--checkpoint-out", files[2]], OPENBLAS_NUM_THREADS=None,
            **variables)
        assert probe["reaped_child"] is False
        return probe, [path.read_bytes() if path.exists() else None
                       for path in files]

    @staticmethod
    def steps(spec, tmp_path, **variables):
        """The bytes of the three files that ``_STEPPED`` writes from
        ``spec``, run with ``variables`` set."""
        files = [tmp_path / f"steps.{ext}" for ext in ("csv", "pgm", "ckpt")]
        subprocess.run([sys.executable, "-c", _STEPPED, json.dumps(spec),
                        *files], env=child_env(**variables), check=True)
        return [path.read_bytes() for path in files]

    @pytest.mark.parametrize("dim, gamma, source, resume", [
        (65537, "1", "packed", False),
        (81919, "1", "packed", False),
        (81920, "1", "packed", False),
        (81921, "1", "packed", False),
        (160000, "1", "packed", False),
        (81921, "0.5", "packed", False),
        (160000, "0.5", "packed", False),
        (81919, None, "packed", True),
        (160000, None, "packed", True),
        (81920, "0.5", "pgm", False),
        (81920, None, "pgm", True),
        (160000, "0.5", "synthetic", False),
        (160000, None, "synthetic", True),
    ])
    def test_both_paths_write_the_same_bytes(self, inputs, tmp_path, dim,
                                             gamma, source, resume):
        """The command's scan and a ``step`` loop write the same
        timeline, snapshot and checkpoint."""
        width, height = self.SIZES[dim]
        pack, pgms = inputs / f"{dim}.pack", sorted(inputs.glob("*.pgm"))
        argv, spec = {
            "packed": (["--packed", pack], {"packed": str(pack)}),
            "pgm": (pgms, {"pgm": list(map(str, pgms))}),
            "synthetic": (
                ["--synthetic", "--width", width, "--height", height,
                 "--clips", 2, "--frames-per-clip", 5],
                {"synthetic": [width, height, 2, 5, _SYNTHETIC["noise"],
                               _SYNTHETIC["seed"]]}),
        }[source]
        if resume:
            argv += ["--checkpoint-in", inputs / f"{dim}.ckpt"]
            spec["checkpoint"] = str(inputs / f"{dim}.ckpt")
        else:
            argv += ["--epsilon", repr(self.epsilon(dim)), "--gamma", gamma]
            spec.update(epsilon=self.epsilon(dim), gamma=float(gamma))
        probe, written = self.scene(argv, tmp_path)
        stderr = probe["stderr"]
        assert probe["code"] == 0, stderr
        assert written == self.steps(spec, tmp_path)
        alarms = int(stderr.split(", ")[1].split()[0])
        frames = int(stderr.split()[0])
        assert 1 < alarms < frames, stderr
        assert written[0].count(b"\n# ") >= 2

    def test_both_paths_agree_on_the_generic_blas_kernel(self, inputs,
                                                         tmp_path):
        """OpenBLAS's generic ``ddot`` (``OPENBLAS_CORETYPE=Prescott``)
        sums a misaligned head in another order, so the scan agrees with a
        ``step`` loop there only while its difference rows start 16-byte
        aligned, as ``step``'s fresh difference does."""
        pack, epsilon = inputs / "81920.pack", self.epsilon(81920)
        probe, written = self.scene(
            ["--packed", pack, "--epsilon", repr(epsilon), "--gamma", "1"],
            tmp_path, OPENBLAS_CORETYPE="Prescott")
        assert probe["code"] == 0, probe["stderr"]
        assert written == self.steps(
            {"packed": str(pack), "epsilon": epsilon, "gamma": 1.0},
            tmp_path, OPENBLAS_CORETYPE="Prescott")

    def test_a_partner_moves_a_callers_center_in_place(self, inputs):
        """``run_scene_detection`` on a detector of the caller's keeps the
        detector's own center array, moved in place, and ends in the state
        a ``step`` loop leaves."""
        frames = read_frames_packed(inputs / "160000.pack")
        detector, stepped = (Detector(frames.dim, FixedRadius(80.0),
                                      Constant(1.0)) for _ in range(2))
        w = detector.w
        run_scene_detection(frames, detector=detector)
        for frame in frames.frames:
            stepped.step(frame_to_vector(frame))
        assert detector.w is w and w.base is None
        assert checkpoint_encode(detector) == checkpoint_encode(stepped)
        assert detector.t == 18 and detector.m > 1

    def test_a_bad_frame_mid_stream_is_named(self, inputs, tmp_path):
        """Frame 7 of the PGM list is not a binary PGM: the command fails
        on the one line that names it and writes nothing."""
        paths = sorted(inputs.glob("*.pgm"))
        bad = tmp_path / "07.pgm"
        bad.write_bytes(b"P2\n1 1\n255\n0\n")
        paths[7] = bad
        probe, written = self.scene(
            [*paths, "--epsilon", "60", "--gamma", "0.5"], tmp_path)
        assert (probe["code"], probe["stderr"], written) == (
            1, f"error: frame 7: {bad}: not a binary PGM (missing P5)\n",
            [None, None, None])

    def test_a_bad_frame_leaves_a_callers_detector_as_in_process(
            self, inputs, tmp_path):
        """``run_scene_detection`` on a detector of the caller's: when
        frame 14 fails (read, as every frame of this size, as a block of
        its own), the detector holds what a ``step`` loop over frames 0-13
        leaves."""
        paths = sorted(inputs.glob("*.pgm"))
        bad = tmp_path / "14.pgm"
        bad.write_bytes(b"P2\n1 1\n255\n0\n")
        paths[14] = bad
        frames = _open_pgm_sequence(paths)
        detector, stepped = (Detector(frames.dim, FixedRadius(60.0),
                                      Constant(0.5)) for _ in range(2))
        with pytest.raises(FrameFormatError, match="^frame 14: "):
            run_scene_detection(frames, detector=detector)
        for path in paths[:14]:
            stepped.step(frame_to_vector(read_pgm(path)[2]))
        assert checkpoint_encode(detector) == checkpoint_encode(stepped)
        # the detector judged frames 0-13 and moved on its alarms
        assert detector.t == 14 and detector.m > 1
