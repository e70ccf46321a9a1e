"""Hostile input files: truncated and bit-flipped copies of every format.

Each reader must either decode a damaged file or raise its own module's
format error, never another exception, and must not hang.  The CLI must
answer each with exit 0 or 1 and exactly one line on stderr; a file its
reader rejects exits 1 with an ``error:`` line, which for a checkpoint is
the message ``checkpoint_decode`` gives the same bytes.
"""

import contextlib
import io
import signal
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fado.checkpoint import CheckpointError, checkpoint_decode, checkpoint_encode
from fado.cli import main
from fado.detector import Detector, FixedRadius, PowerDecay
from fado.scene import (
    FrameFormatError,
    gen_synthetic_clips,
    read_frames_packed,
    read_pgm,
    write_frames_packed,
    write_pgm,
)
from fado.streamio import StreamFormatError, read_vectors, write_vectors

# Seconds one damaged file may take through a reader and the CLI.
_TIME_LIMIT = 10


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Valid seed files of each format, and a stream to resume against."""
    root = tmp_path_factory.mktemp("fuzz")
    rows = np.random.default_rng(5).normal(size=(4, 2)) * 3.0
    write_vectors(rows, root / "seed.bin")
    write_vectors(rows, root / "seed.csv")
    det = Detector(2, FixedRadius(1.0), PowerDecay())
    det.scan(rows)
    (root / "seed.ckpt").write_bytes(checkpoint_encode(det))
    frames, _ = gen_synthetic_clips(4, 3, 1, 3, 10, seed=2)
    write_frames_packed(frames, root / "seed.pack")
    write_pgm(frames.frames[0], root / "seed.pgm")
    return root


def _read_ckpt(path):
    checkpoint_decode(path.read_bytes())


# suffix: (reader, its format error, how the CLI takes the file)
FORMATS = {
    ".bin": (read_vectors, StreamFormatError, "run"),
    ".csv": (read_vectors, StreamFormatError, "run"),
    ".ckpt": (_read_ckpt, CheckpointError, "resume"),
    ".pack": (read_frames_packed, FrameFormatError, "packed"),
    ".pgm": (read_pgm, FrameFormatError, "pgm"),
}


def _cli_args(kind, path, root):
    out = str(root / "out.csv")
    if kind == "run":
        return ["run", "--mode", "fixed", "--epsilon", "1", "--input",
                str(path), "--output", out]
    if kind == "resume":
        return ["run", "--input", str(root / "seed.bin"), "--checkpoint-in",
                str(path), "--output", out]
    if kind == "packed":
        return ["scene", "--packed", str(path), "--epsilon", "1",
                "--timeline", out]
    return ["scene", str(path), "--epsilon", "1", "--timeline", out]


def _damage(blob, flips, cut, reseal):
    data = bytearray(blob)
    for bit in flips:
        data[(bit // 8) % len(data)] ^= 1 << (bit % 8)
    if reseal and len(data) >= 4:
        # a valid CRC lets the damage reach the checkpoint's field checks
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
    return bytes(data[:cut])


@pytest.mark.parametrize("suffix", sorted(FORMATS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(flips=st.lists(st.integers(0, 2**16), max_size=4),
       cut=st.one_of(st.none(), st.integers(0, 2**16)),
       reseal=st.booleans())
def test_damaged_file_is_decoded_or_rejected(corpus, suffix, flips, cut,
                                             reseal):
    reader, error, kind = FORMATS[suffix]
    blob = (corpus / f"seed{suffix}").read_bytes()
    if cut is not None:
        cut %= len(blob) + 1
    path = corpus / f"damaged{suffix}"
    path.write_bytes(_damage(blob, flips, cut, reseal and suffix == ".ckpt"))
    stderr = io.StringIO()
    with _time_limit(_TIME_LIMIT):
        try:
            reader(path)
            rejected = None
        except error as exc:
            rejected = str(exc)
        with contextlib.redirect_stderr(stderr):
            code = main(_cli_args(kind, path, corpus))
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1) and len(lines) == 1, stderr.getvalue()
    if rejected is not None or code == 1:
        assert code == 1 and lines[0].startswith("error: "), lines
    if rejected is not None and suffix == ".ckpt":
        # checkpoint_decode over the bytes and fado reading the file
        assert lines == [f"error: {rejected}"]


def test_empty_binary_stream_is_rejected(tmp_path):
    """Its header alone would set the dimension: a flipped high bit asked
    ``fado run`` for a 2**45-entry center."""
    path = tmp_path / "empty.bin"
    write_vectors(np.empty((0, 3)), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, 12, 3 | 1 << 45)
    path.write_bytes(bytes(blob))
    with pytest.raises(StreamFormatError, match="empty stream"):
        read_vectors(path)


@pytest.mark.parametrize("offset, value", [(13, -1.0), (30, 0.75)])
def test_checkpoint_out_of_range_config_is_a_format_error(offset, value):
    """A CRC-valid checkpoint with a negative epsilon or tau >= 1/2."""
    blob = bytearray(checkpoint_encode(
        Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))))
    struct.pack_into("<d", blob, offset, value)
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    with pytest.raises(CheckpointError, match="invalid configuration"):
        checkpoint_decode(bytes(blob))


def test_pgm_header_number_too_long_is_a_format_error(tmp_path):
    """int() refuses a 5000-digit string with a bare ValueError."""
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n" + b"9" * 5000 + b" 1\n255\n\0")
    with pytest.raises(FrameFormatError, match="malformed header token"):
        read_pgm(path)
