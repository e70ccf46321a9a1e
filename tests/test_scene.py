import os
import subprocess
import sys

import numpy as np
import pytest

from fado.checkpoint import checkpoint_decode, checkpoint_encode
from fado.cli import main
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


# Pins the process to one CPU, where fado scene judges every column in
# process.
_ONE_CPU = ("import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
class TestColumnPartner:
    """``fado scene`` on frames of more than 65,536 pixels hands the
    columns from a slice boundary near the middle to a forked partner when
    it may use two CPUs and runs one thread.  Pinned to one CPU it judges
    every column in process.  Both write the same bytes and fail alike."""

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
        tmp = tmp_path_factory.mktemp("partner")
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
    def both_paths(argv, tmp_path, prelude="", forks=True, **variables):
        """Run ``fado scene argv`` with the partner's fork allowed, then
        pinned to one CPU, each writing a timeline, a snapshot and a
        checkpoint; for each: the exit code, stderr and the bytes of the
        three files (None if absent).  ``forks`` is whether the first run
        reaps a partner, or None where that is not known in advance;
        ``variables`` are set in both runs' environments."""
        files = [tmp_path / name for name in ("t.csv", "s.pgm", "c.ckpt")]
        results = []
        for pin in ("", _ONE_CPU):
            for path in files:
                path.unlink(missing_ok=True)
            probe = main_in_child(
                ["scene", *argv, "--timeline", files[0], "--snapshot",
                 files[1], "--checkpoint-out", files[2]], prelude + pin,
                OPENBLAS_NUM_THREADS=None, **variables)
            if pin or forks is not None:
                assert probe["reaped_child"] is (not pin and forks), pin
            results.append((probe["code"], probe["stderr"],
                            *(path.read_bytes() if path.exists() else None
                              for path in files)))
        return results

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
        width, height = self.SIZES[dim]
        argv = {"packed": ["--packed", inputs / f"{dim}.pack"],
                "pgm": sorted(inputs.glob("*.pgm")),
                "synthetic": ["--synthetic", "--width", width, "--height",
                              height, "--clips", 2, "--frames-per-clip", 5]
                }[source]
        if resume:
            argv += ["--checkpoint-in", inputs / f"{dim}.ckpt"]
        else:
            argv += ["--epsilon", repr(self.epsilon(dim)), "--gamma", gamma]
        # the thread that draws synthetic frames may still be listed when
        # the scan starts, which keeps the scan in process
        partner, in_process = self.both_paths(
            argv, tmp_path, forks=None if source == "synthetic" else True)
        assert partner == in_process
        code, stderr, timeline, snapshot, state = partner
        assert code == 0 and snapshot and state, stderr
        alarms = int(stderr.split(", ")[1].split()[0])
        frames = int(stderr.split()[0])
        assert 1 < alarms < frames, stderr
        assert timeline.count(b"\n# ") >= 2

    def test_both_paths_agree_on_the_generic_blas_kernel(self, inputs,
                                                         tmp_path):
        """OpenBLAS's generic ``ddot`` (``OPENBLAS_CORETYPE=Prescott``)
        sums a misaligned head in another order, so the paths agree there
        only while the partner's shared columns start 16-byte aligned, as
        the scan's difference rows do.  Shared columns 8 bytes off make
        the two paths differ on this kernel, and not on SkylakeX's."""
        partner, in_process = self.both_paths(
            ["--packed", inputs / "81920.pack", "--epsilon",
             repr(self.epsilon(81920)), "--gamma", "1"], tmp_path,
            OPENBLAS_CORETYPE="Prescott")
        assert partner == in_process and partner[0] == 0

    def test_a_refused_fork_scans_in_process(self, inputs, tmp_path):
        """At a limit on processes ``os.fork`` fails; the frames are judged
        in process and give the same bytes."""
        refuse = ("import errno, os\n"
                  "def fork():\n"
                  "    raise BlockingIOError(errno.EAGAIN, 'refused')\n"
                  "os.fork = fork\n")
        refused, in_process = self.both_paths(
            ["--packed", inputs / "160000.pack", "--epsilon", "80"], tmp_path,
            prelude=refuse, forks=False)
        assert refused == in_process and refused[0] == 0

    def test_a_partner_killed_mid_stream_fails_on_one_line(self, inputs,
                                                           tmp_path):
        """The partner is killed on its fifth frame (each alarmed frame
        takes 20 of its ``vecdot`` calls): exit 1 with one line, no
        checkpoint, and no process left."""
        kill = ("import os, signal, numpy\n"
                "vecdot, parent, calls = numpy.vecdot, os.getpid(), []\n"
                "def counted(*args, **kwargs):\n"
                "    if os.getpid() != parent:\n"
                "        calls.append(None)\n"
                "        if len(calls) == 4 * 20 + 1:\n"
                "            os.kill(os.getpid(), signal.SIGKILL)\n"
                "    return vecdot(*args, **kwargs)\n"
                "numpy.vecdot = counted\n")
        pack, ckpt = inputs / "160000.pack", tmp_path / "c.ckpt"
        # the prelude loads numpy, so OpenBLAS is kept to one thread here
        probe = main_in_child(
            ["scene", "--packed", pack, "--epsilon", "80", "--checkpoint-out",
             ckpt],
            kill, OPENBLAS_NUM_THREADS="1")
        assert (probe["code"], probe["stderr"]) == (
            1, "error: the column partner process ended before the frames "
               "did\n")
        assert probe["reaped_child"] and not ckpt.exists()
        assert subprocess.run(["pgrep", "-f", str(pack)]).returncode == 1

    def test_a_killed_partner_leaves_a_callers_detector_as_in_process(
            self, inputs):
        """``run_scene_detection`` on a detector of the caller's, with the
        partner killed on its fifth frame as above: it raises
        ``ChildProcessError``, and the detector, whose center is its own
        private array again, holds what an in-process scan of the first
        four frames leaves, the partner's columns of the center
        included."""
        script = (
            "import os, signal, sys, numpy\n"
            "vecdot, parent, calls = numpy.vecdot, os.getpid(), []\n"
            "def counted(*args, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            "        calls.append(None)\n"
            "        if len(calls) == 4 * 20 + 1:\n"
            "            os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return vecdot(*args, **kwargs)\n"
            "numpy.vecdot = counted\n"
            "from fado.checkpoint import checkpoint_encode\n"
            "from fado.detector import Constant, Detector, FixedRadius\n"
            "from fado.scene import (FrameSequence, read_frames_packed,\n"
            "                        run_scene_detection)\n"
            "frames = read_frames_packed(sys.argv[1])\n"
            "detector = Detector(frames.dim, FixedRadius(80.0), "
            "Constant(1.0))\n"
            "w = detector.w\n"
            "try:\n"
            "    run_scene_detection(frames, detector=detector)\n"
            "except ChildProcessError as exc:\n"
            "    print(exc, file=sys.stderr)\n"
            "print(detector.w is w and w.base is None)\n"
            "print(checkpoint_encode(detector).hex())\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "head = FrameSequence(frames.width, frames.height, "
            "frames.frames[:4])\n"
            "_, alone = run_scene_detection(head, detector=Detector(\n"
            "    frames.dim, FixedRadius(80.0), Constant(1.0)))\n"
            "print(alone.m, checkpoint_encode(alone).hex())\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, inputs / "160000.pack"],
            env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
            text=True, check=True)
        assert proc.stderr == ("the column partner process ended before "
                               "the frames did\n")
        private, state, alarms, alone = proc.stdout.split()
        assert (private, alarms) == ("True", "4")
        assert state == alone

    def test_a_partner_moves_a_callers_center_in_place(self, inputs):
        """``run_scene_detection`` on a detector of the caller's: with a
        partner forked, as in process, the detector keeps its own center
        array, moved in place, and ends in the same state."""
        script = (
            "import resource, sys\n"
            "from fado.checkpoint import checkpoint_encode\n"
            "from fado.detector import Constant, Detector, FixedRadius\n"
            "from fado.scene import read_frames_packed, run_scene_detection\n"
            "frames = read_frames_packed(sys.argv[1])\n"
            "detector = Detector(frames.dim, FixedRadius(80.0), "
            "Constant(1.0))\n"
            "w = detector.w\n"
            "run_scene_detection(frames, detector=detector)\n"
            "children = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
            "print(children.ru_utime + children.ru_stime > 0)\n"
            "print(detector.w is w and w.base is None)\n"
            "print(checkpoint_encode(detector).hex())\n")
        states = []
        for pin in ("", _ONE_CPU):
            proc = subprocess.run(
                [sys.executable, "-c", pin + script, inputs / "160000.pack"],
                env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
                text=True, check=True)
            forked, private, state = proc.stdout.split()
            assert (forked, private) == (str(not pin), "True")
            states.append(state)
        partner, in_process = states
        assert partner == in_process
        detector = checkpoint_decode(bytes.fromhex(partner))
        assert detector.t == 18 and detector.m > 1

    def test_a_bad_frame_mid_stream_is_named(self, inputs, tmp_path):
        """Frame 7 of the PGM list is not a binary PGM: both paths fail on
        the one line that names it, write nothing, and the partner is
        reaped."""
        paths = sorted(inputs.glob("*.pgm"))
        bad = tmp_path / "07.pgm"
        bad.write_bytes(b"P2\n1 1\n255\n0\n")
        paths[7] = bad
        partner, in_process = self.both_paths(
            [*paths, "--epsilon", "60", "--gamma", "0.5"], tmp_path)
        assert partner == in_process == (
            1, f"error: frame 7: {bad}: not a binary PGM (missing P5)\n",
            None, None, None)

    def test_a_bad_frame_leaves_a_callers_detector_as_in_process(
            self, inputs, tmp_path):
        """``run_scene_detection`` on a detector of the caller's: when
        frame 14 fails (read, as every frame of this size, as a block of
        its own), the detector holds what the in-process scan left, center
        halves included, whether a partner was forked or not."""
        paths = sorted(inputs.glob("*.pgm"))
        bad = tmp_path / "14.pgm"
        bad.write_bytes(b"P2\n1 1\n255\n0\n")
        paths[14] = bad
        script = (
            "import resource, sys\n"
            "from fado.checkpoint import checkpoint_encode\n"
            "from fado.detector import Constant, Detector, FixedRadius\n"
            "from fado.scene import (FrameFormatError, _open_pgm_sequence,\n"
            "                        run_scene_detection)\n"
            "frames = _open_pgm_sequence(sys.argv[1:])\n"
            "detector = Detector(frames.dim, FixedRadius(60.0), "
            "Constant(0.5))\n"
            "try:\n"
            "    run_scene_detection(frames, detector=detector)\n"
            "except FrameFormatError as exc:\n"
            "    print(exc, file=sys.stderr)\n"
            "children = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
            "print(children.ru_utime + children.ru_stime > 0)\n"
            "print(checkpoint_encode(detector).hex())\n")
        results = []
        for pin in ("", _ONE_CPU):
            proc = subprocess.run(
                [sys.executable, "-c", pin + script, *paths],
                env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
                text=True, check=True)
            assert proc.stderr.startswith("frame 14: "), proc.stderr
            forked, state = proc.stdout.split()
            assert forked == str(not pin)
            results.append(state)
        partner, in_process = results
        assert partner == in_process
        # the detector judged frames 0-13 and moved on its alarms
        detector = checkpoint_decode(bytes.fromhex(partner))
        assert detector.t == 14 and detector.m > 1
