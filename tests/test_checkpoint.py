import itertools
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fado.bounds import GroundTruth
from fado.checkpoint import (
    MAGIC,
    CheckpointError,
    checkpoint_decode,
    checkpoint_encode,
)
from fado.cli import main
from fado.detector import (
    AdaptiveRadius,
    Constant,
    Detector,
    FixedRadius,
    PowerDecay,
)
from fado.scene import gen_synthetic_clips, run_scene_detection
from fado.streamio import write_vectors
from fado.streams import Design, StreamSpec, generate

from conftest import child_env


def _states_equal(a, b):
    return (a.dim == b.dim and a.m == b.m and a.t == b.t
            and a.mode == b.mode and a.schedule == b.schedule
            and np.array_equal(a.w, b.w)
            and a.trace.as_tuple() == b.trace.as_tuple())


@pytest.mark.parametrize("mode,schedule", [
    (FixedRadius(1.0), PowerDecay(1.0, 0.25)),
    (FixedRadius(100.0), Constant(1.0)),
    (AdaptiveRadius(), PowerDecay(0.5, 0.1)),
    (AdaptiveRadius(), Constant(2.0)),
])
def test_fresh_state_roundtrip(mode, schedule):
    state = Detector(7, mode, schedule)
    decoded = checkpoint_decode(checkpoint_encode(state))
    assert _states_equal(state, decoded)


def test_roundtrip_after_thousand_steps_bit_exact():
    rng = np.random.default_rng(5)
    state = Detector(6, FixedRadius(1.0), PowerDecay(1.0, 0.25))
    state.run_stream(rng.normal(size=(1000, 6)) * 3.0)
    blob = checkpoint_encode(state)
    decoded = checkpoint_decode(blob)
    assert _states_equal(state, decoded)
    assert checkpoint_encode(decoded) == blob
    assert decoded.w.tobytes() == state.w.tobytes()


def test_decoded_state_resumes_stream():
    """Split at row 2000, a resumed run ends in the uninterrupted run's
    checkpoint bytes, trace sums included, in all three modes."""
    center = np.zeros(10)
    center[:2] = 2.0
    stream, _ = generate(StreamSpec(
        dim=10, count=4000, truth=GroundTruth(center, 1.0, 0.1), seed=1,
        design=Design.MIXTURE, contamination_fraction=0.05,
        outlier_radius_max=5.0))
    for mode, schedule in [(FixedRadius(1.0), PowerDecay(1.0, 0.25)),
                           (AdaptiveRadius(), PowerDecay(1.0, 0.25)),
                           (FixedRadius(1.0), Constant(0.5))]:
        full = Detector(10, mode, schedule)
        full.run_stream(stream)

        half = Detector(10, mode, schedule)
        half.run_stream(stream[:2000])
        resumed = checkpoint_decode(checkpoint_encode(half))
        resumed.run_stream(stream[2000:])
        assert checkpoint_encode(resumed) == checkpoint_encode(full), mode


def test_corrupted_magic_rejected():
    blob = bytearray(checkpoint_encode(
        Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))))
    blob[0] ^= 0xFF
    with pytest.raises(CheckpointError, match="magic"):
        checkpoint_decode(bytes(blob))


def test_payload_corruption_caught_by_crc():
    blob = bytearray(checkpoint_encode(
        Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))))
    blob[-8] ^= 0x01  # inside the center payload
    with pytest.raises(CheckpointError, match="CRC"):
        checkpoint_decode(bytes(blob))


def test_truncation_rejected():
    blob = checkpoint_encode(
        Detector(4, FixedRadius(1.0), PowerDecay(1.0, 0.25)))
    for cut in (4, len(blob) // 2, len(blob) - 1):
        with pytest.raises(CheckpointError):
            checkpoint_decode(blob[:cut])


def _seal(body: bytes) -> bytes:
    import zlib
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@pytest.mark.parametrize("mode,schedule", [
    (FixedRadius(1.0), PowerDecay(1.0, 0.25)),
    (FixedRadius(1.0), Constant(0.5)),
    (AdaptiveRadius(), PowerDecay(0.5, 0.1)),
    (AdaptiveRadius(), Constant(2.0)),
])
def test_resealed_prefixes_and_trailing_byte_rejected(mode, schedule):
    """A valid CRC does not make a cut or padded checkpoint decodable:
    every strict prefix is truncated, one extra byte is trailing."""
    state = Detector(3, mode, schedule)
    state.run_stream(np.random.default_rng(2).normal(size=(50, 3)) * 3.0)
    body = checkpoint_encode(state)[:-4]
    for cut in range(len(body)):
        with pytest.raises(CheckpointError, match="^truncated checkpoint$"):
            checkpoint_decode(_seal(body[:cut]))
    with pytest.raises(CheckpointError,
                       match="^trailing bytes after center payload$"):
        checkpoint_decode(_seal(body + b"\x00"))
    assert _states_equal(checkpoint_decode(_seal(body)), state)


def test_a_checkpoint_cut_after_its_version_fails_a_resume(tmp_path,
                                                            capsys):
    """Magic and version alone, under a valid CRC, is a truncated
    checkpoint; ``fado run`` resuming from it exits 1 on that one line
    and writes no output."""
    blob = _seal(checkpoint_encode(
        Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25)))[:len(MAGIC) + 4])
    with pytest.raises(CheckpointError, match="^truncated checkpoint$"):
        checkpoint_decode(blob)
    (tmp_path / "cut.ckpt").write_bytes(blob)
    write_vectors(np.zeros((3, 2)), tmp_path / "s.csv")
    assert main(["run", "--checkpoint-in", str(tmp_path / "cut.ckpt"),
                 "--input", str(tmp_path / "s.csv"),
                 "--output", str(tmp_path / "o.csv"),
                 "--checkpoint-out", str(tmp_path / "o.ckpt")]) == 1
    assert capsys.readouterr().err == "error: truncated checkpoint\n"
    assert sorted(os.listdir(tmp_path)) == ["cut.ckpt", "s.csv"]


def test_non_finite_payload_rejected():
    state = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
    blob = bytearray(checkpoint_encode(state))
    # Overwrite the first center float with +inf and refresh the CRC.
    w_offset = len(blob) - 4 - 16
    blob[w_offset:w_offset + 8] = struct.pack("<d", float("inf"))
    import zlib
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    with pytest.raises(CheckpointError, match="non-finite"):
        checkpoint_decode(bytes(blob))


def test_non_finite_trace_rejected():
    """An infinite trace sum under a valid CRC, the state of a run whose
    gain overflowed."""
    state = Detector(2, FixedRadius(1.0), PowerDecay(1e160, 0.25))
    state.trace.sum_d_gamma_sq = float("inf")
    with pytest.raises(CheckpointError,
                       match="^non-finite trace sum in checkpoint$"):
        checkpoint_decode(checkpoint_encode(state))


def test_zero_dimension_rejected():
    """n = 0 and no center under a valid CRC: the detector's own rule on
    its dimension refuses it."""
    body = checkpoint_encode(
        Detector(1, FixedRadius(1.0), PowerDecay(1.0, 0.25)))[:-12]
    n_offset = len(MAGIC) + 4 + 9 + 17  # version, mode, schedule
    assert struct.unpack_from("<Q", body, n_offset) == (1,)
    body = body[:n_offset] + struct.pack("<Q", 0) + body[n_offset + 8:]
    with pytest.raises(CheckpointError,
                       match="^invalid configuration payload: dim must be "
                             "a positive integer$"):
        checkpoint_decode(_seal(body))


def test_more_mistakes_than_steps_rejected():
    """m = t + 1 under a valid CRC: a detector cannot alarm more often
    than it steps."""
    state = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
    state.run_stream(np.random.default_rng(3).normal(size=(50, 2)) * 3.0)
    body = checkpoint_encode(state)[:-4]
    t_offset = len(MAGIC) + 4 + 9 + 17 + 8  # version, mode, schedule, n
    assert struct.unpack_from("<QQ", body, t_offset) == (50, state.m)
    body = body[:t_offset + 8] + struct.pack("<Q", 51) + body[t_offset + 16:]
    with pytest.raises(CheckpointError,
                       match="^mistake count 51 exceeds step count 50$"):
        checkpoint_decode(_seal(body))


def test_unknown_version_rejected():
    state = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
    blob = bytearray(checkpoint_encode(state))
    blob[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 99)
    import zlib
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    with pytest.raises(CheckpointError, match="version"):
        checkpoint_decode(bytes(blob))


@pytest.mark.parametrize("offset, what", [(12, "mode"), (21, "schedule")])
def test_unknown_tag_rejected(offset, what):
    """A tag byte of 2, under a valid CRC, names the unknown field."""
    body = bytearray(checkpoint_encode(
        Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25)))[:-4])
    assert body[offset] == 0
    body[offset] = 2
    with pytest.raises(CheckpointError, match=f"^unknown {what} tag 2$"):
        checkpoint_decode(_seal(bytes(body)))


def test_wire_layout_is_pinned():
    """The byte layout is an external contract: every field, under each
    (mode, schedule) pair's tag bytes and parameters."""
    modes = [(FixedRadius(1.5), "<Bd", (0, 1.5)),
             (AdaptiveRadius(), "<B", (1,))]
    schedules = [(PowerDecay(0.5, 0.1), "<Bdd", (0, 0.5, 0.1)),
                 (Constant(2.0), "<Bd", (1, 2.0))]
    for (mode, mode_fmt, mode_fields), (schedule, sched_fmt, sched_fields) \
            in itertools.product(modes, schedules):
        state = Detector(2, mode, schedule)
        state.w[:] = [0.25, -1.0]
        state.t = 3
        blob = checkpoint_encode(state)
        assert blob[:12] == b"FADOCKPT" + struct.pack("<I", 1)  # version 1
        pos = 12
        for fmt, fields in ((mode_fmt, mode_fields),
                            (sched_fmt, sched_fields)):
            assert struct.unpack_from(fmt, blob, pos) == fields, state
            pos += struct.calcsize(fmt)
        assert struct.unpack_from("<QQQ", blob, pos) == (2, 3, 0)  # n, t, m
        pos += 24
        assert struct.unpack_from("<4d", blob, pos) == (0.0,) * 4  # trace
        pos += 32
        assert struct.unpack_from("<dd", blob, pos) == (0.25, -1.0)
        assert len(blob) == pos + 16 + 4


@pytest.fixture
def frozen_reader(monkeypatch):
    """``read_checkpoint`` of the benchmark's reference, which is frozen
    at version 1: a checkpoint it refuses fails every benchmark check."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import reference
    return reference.read_checkpoint


# the commands that write a checkpoint, one per mode, and ``scene``
_WRITERS = pytest.mark.parametrize("argv", [
    ["run", "--mode", "fixed", "--epsilon", "1"],
    ["run", "--mode", "adaptive"],
    ["run", "--mode", "constant-gain", "--epsilon", "1", "--gamma", "0.5"],
    ["scene", "--synthetic", "--clips", "3", "--frames-per-clip", "4",
     "--epsilon", "5"],
], ids=["fixed", "adaptive", "constant-gain", "scene"])


def _run_writer(argv, tmp_path):
    """Run a :data:`_WRITERS` command; its checkpoint's bytes, and its
    stream (None for ``scene``)."""
    stream = None
    if argv[0] == "run":
        stream, _ = generate(StreamSpec(
            dim=10, count=2000, truth=GroundTruth(np.r_[2.0, 2.0, [0.0] * 8],
                                                  1.0, 0.1),
            seed=1, design=Design.MIXTURE, contamination_fraction=0.05,
            outlier_radius_max=5.0))
        write_vectors(stream, tmp_path / "s.bin")
        argv = [*argv, "--input", str(tmp_path / "s.bin"),
                "--output", str(tmp_path / "o.csv")]
    ckpt = tmp_path / "c.ckpt"
    assert main([*argv, "--checkpoint-out", str(ckpt)]) == 0
    return ckpt.read_bytes(), stream


@_WRITERS
def test_the_file_fado_writes_is_the_encoded_state(tmp_path, argv):
    """The checkpoint file that ``fado`` streams out has the bytes of
    ``checkpoint_encode`` of the same run made in process."""
    blob, stream = _run_writer(argv, tmp_path)
    if stream is None:
        frames, _ = gen_synthetic_clips(40, 40, 3, 4, 10, 0xFAD0)
        _, state = run_scene_detection(frames, epsilon=5.0)
    else:
        mode = AdaptiveRadius() if "adaptive" in argv else FixedRadius(1.0)
        schedule = Constant(0.5) if "constant-gain" in argv else PowerDecay()
        state = Detector(10, mode, schedule)
        state.scan(stream)
    assert state.m > 1
    assert blob == checkpoint_encode(state)


def test_a_huge_declared_center_over_a_short_body_is_truncated(tmp_path,
                                                               capsys):
    """A CRC-valid header that declares n = 2**40 (an 8 TiB center) over
    a body of two values: the size check refuses it before any center is
    allocated, in bytes and as a file ``fado run`` resumes from."""
    body = bytearray(checkpoint_encode(
        Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25)))[:-4])
    n_offset = len(MAGIC) + 4 + 9 + 17  # version, mode, schedule
    struct.pack_into("<Q", body, n_offset, 2 ** 40)
    blob = _seal(bytes(body))
    with pytest.raises(CheckpointError, match="^truncated checkpoint$"):
        checkpoint_decode(blob)
    (tmp_path / "huge.ckpt").write_bytes(blob)
    write_vectors(np.zeros((3, 2)), tmp_path / "s.csv")
    started = time.perf_counter()
    assert main(["run", "--checkpoint-in", str(tmp_path / "huge.ckpt"),
                 "--input", str(tmp_path / "s.csv"),
                 "--output", str(tmp_path / "o.csv")]) == 1
    assert time.perf_counter() - started < 5.0
    assert capsys.readouterr().err == "error: truncated checkpoint\n"


def test_a_checkpoint_read_from_a_pipe_resumes_as_from_its_file(tmp_path):
    """A pipe cannot seek, so its checkpoint is read whole, then decoded
    as a file's is: both resumes write the same outcome bytes."""
    state = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
    state.scan(np.random.default_rng(4).normal(size=(30, 2)) * 3.0)
    blob = checkpoint_encode(state)
    (tmp_path / "c.ckpt").write_bytes(blob)
    write_vectors(np.random.default_rng(5).normal(size=(20, 2)) * 3.0,
                  tmp_path / "s.csv")
    outputs = []
    for source, feed in (("c.ckpt", None), ("/dev/stdin", blob)):
        out = tmp_path / f"{len(outputs)}.csv"
        subprocess.run([sys.executable, "-m", "fado.cli", "run",
                        "--checkpoint-in", str(tmp_path / source),
                        "--input", str(tmp_path / "s.csv"),
                        "--output", str(out)],
                       input=feed, env=child_env(), check=True,
                       capture_output=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 21


@_WRITERS
def test_the_benchmark_reads_every_checkpoint_fado_writes(
        tmp_path, frozen_reader, argv):
    """Each checkpoint that ``fado run`` and ``fado scene`` write decodes
    in the benchmark's reader to fado's own t, m, trace and center."""
    blob, _ = _run_writer(argv, tmp_path)
    ours, theirs = checkpoint_decode(blob), frozen_reader(blob)
    assert (theirs.t, theirs.m) == (ours.t, ours.m) and ours.m > 1
    assert theirs.trace == ours.trace.as_tuple()
    assert theirs.w.tobytes() == ours.w.astype("<f8").tobytes()
