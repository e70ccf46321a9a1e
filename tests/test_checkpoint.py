import itertools
import struct

import numpy as np
import pytest

from fado.bounds import GroundTruth
from fado.checkpoint import (
    MAGIC,
    CheckpointError,
    checkpoint_decode,
    checkpoint_encode,
)
from fado.detector import (
    AdaptiveRadius,
    Constant,
    Detector,
    FixedRadius,
    PowerDecay,
)
from fado.streams import Design, StreamSpec, generate


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
