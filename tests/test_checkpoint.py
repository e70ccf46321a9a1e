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
    FixedRadius,
    PowerDecay,
    new_detector,
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
    state = new_detector(7, mode, schedule)
    decoded = checkpoint_decode(checkpoint_encode(state))
    assert _states_equal(state, decoded)


def test_roundtrip_after_thousand_steps_bit_exact():
    rng = np.random.default_rng(5)
    state = new_detector(6, FixedRadius(1.0), PowerDecay(1.0, 0.25))
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
        full = new_detector(10, mode, schedule)
        full.run_stream(stream)

        half = new_detector(10, mode, schedule)
        half.run_stream(stream[:2000])
        resumed = checkpoint_decode(checkpoint_encode(half))
        resumed.run_stream(stream[2000:])
        assert checkpoint_encode(resumed) == checkpoint_encode(full), mode


def test_corrupted_magic_rejected():
    blob = bytearray(checkpoint_encode(
        new_detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))))
    blob[0] ^= 0xFF
    with pytest.raises(CheckpointError, match="magic"):
        checkpoint_decode(bytes(blob))


def test_payload_corruption_caught_by_crc():
    blob = bytearray(checkpoint_encode(
        new_detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))))
    blob[-8] ^= 0x01  # inside the center payload
    with pytest.raises(CheckpointError, match="CRC"):
        checkpoint_decode(bytes(blob))


def test_truncation_rejected():
    blob = checkpoint_encode(
        new_detector(4, FixedRadius(1.0), PowerDecay(1.0, 0.25)))
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
    state = new_detector(3, mode, schedule)
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
    state = new_detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
    blob = bytearray(checkpoint_encode(state))
    # Overwrite the first center float with +inf and refresh the CRC.
    w_offset = len(blob) - 4 - 16
    blob[w_offset:w_offset + 8] = struct.pack("<d", float("inf"))
    import zlib
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    with pytest.raises(CheckpointError, match="non-finite"):
        checkpoint_decode(bytes(blob))


def test_unknown_version_rejected():
    state = new_detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
    blob = bytearray(checkpoint_encode(state))
    blob[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 99)
    import zlib
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    with pytest.raises(CheckpointError, match="version"):
        checkpoint_decode(bytes(blob))


def test_wire_layout_is_pinned():
    """The byte layout is an external contract; spot-check the fields."""
    state = new_detector(2, FixedRadius(1.5), Constant(2.0))
    state.w[:] = [0.25, -1.0]
    state.t = 3
    blob = checkpoint_encode(state)
    assert blob[:8] == b"FADOCKPT"
    pos = 8
    assert struct.unpack_from("<I", blob, pos)[0] == 1  # version
    pos += 4
    assert blob[pos] == 0  # fixed mode
    pos += 1
    assert struct.unpack_from("<d", blob, pos)[0] == 1.5
    pos += 8
    assert blob[pos] == 1  # constant schedule
    pos += 1
    assert struct.unpack_from("<d", blob, pos)[0] == 2.0
    pos += 8
    n, t, m = struct.unpack_from("<QQQ", blob, pos)
    assert (n, t, m) == (2, 3, 0)
    pos += 24 + 32  # counts + trace sums
    assert struct.unpack_from("<dd", blob, pos) == (0.25, -1.0)
    assert len(blob) == pos + 16 + 4
