"""Vector-stream file formats: packed binary and round-trip CSV.

Binary layout (little-endian):

    magic   8 bytes  b"FADOVECS"
    version u32      1
    n       u64      dimension
    T       u64      number of vectors
    data    f64[T*n] row-major samples

CSV holds one vector per line with shortest round-trip decimal formatting,
so parse(write(x)) reproduces the binary64 payload exactly.  Readers and
the CLI pick the format from the file extension (.csv means CSV).  The
readers check the header, then take the rows in bounded blocks, so
``fado run`` holds one block of the stream at a time.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .detector import SCAN_CHUNK_BYTES

__all__ = ["StreamFormatError", "write_vectors", "read_vectors",
           "write_outcome_rows"]

MAGIC = b"FADOVECS"
VERSION = 1

# Outcome rows formatted per write, which bounds the text held at once.
_CSV_ROWS = 8192


class StreamFormatError(ValueError):
    """Malformed or truncated vector-stream file."""


def _as_matrix(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError("samples must form a (T, n) matrix with n >= 1")
    return arr


def write_vectors(samples, path) -> None:
    """Write a (T, n) sample block; CSV when the suffix is .csv, else binary."""
    arr = _as_matrix(samples)
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, "w", encoding="ascii") as fh:
            for row in arr:
                fh.write(",".join(repr(float(x)) for x in row))
                fh.write("\n")
        return
    t, n = arr.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQQ", VERSION, n, t))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def write_outcome_rows(fh, header: Optional[str], start: int,
                       columns) -> None:
    """Write ``header``, then row i as ``start + i`` and each column's entry:
    bools as 0/1, floats in shortest round-trip form, 8192 rows per write.
    A ``header`` of None continues a file block by block."""
    if header is not None:
        fh.write(header + "\n")
    count = len(columns[0])
    for lo in range(0, count, _CSV_ROWS):
        hi = min(lo + _CSV_ROWS, count)
        cells = [map(str, range(start + lo, start + hi))]
        cells += [map("01".__getitem__ if col.dtype == bool else repr,
                      col[lo:hi].tolist()) for col in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_vectors(path) -> np.ndarray:
    """Read a stream file back into a (T, n) float64 matrix."""
    # a binary file comes as one block, so its payload is held once
    blocks = list(_vector_blocks(path, None))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _vector_blocks(path, block_bytes: Optional[int]) -> Iterator[np.ndarray]:
    """Yield a stream file's rows in order, as (k, n) float64 blocks.

    The header is checked against the file size before the first block.
    A binary block holds at most ``block_bytes`` of values and at least
    one row (``None``: the whole stream); it is read into one reused
    buffer, so it is valid only until the next is read.  A CSV file is
    parsed into fresh blocks whose token strings take about
    ``block_bytes`` (:data:`SCAN_CHUNK_BYTES` when ``None``).
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        yield from _csv_blocks(path, block_bytes or SCAN_CHUNK_BYTES)
        return
    header = len(MAGIC) + struct.calcsize("<IQQ")
    with open(path, "rb") as fh:
        head = fh.read(header)
        if len(head) < header:
            raise StreamFormatError(f"{path}: truncated header")
        if head[:len(MAGIC)] != MAGIC:
            raise StreamFormatError(f"{path}: bad magic, not a vector stream")
        version, n, t = struct.unpack_from("<IQQ", head, len(MAGIC))
        if version != VERSION:
            raise StreamFormatError(f"{path}: unsupported version {version}")
        if n < 1:
            raise StreamFormatError(f"{path}: dimension must be positive")
        if t < 1:
            # with no payload nothing bounds n, and a detector over the
            # stream allocates a center of n entries
            raise StreamFormatError(f"{path}: empty stream file")
        size = os.fstat(fh.fileno()).st_size
        expected = header + 8 * n * t
        if size != expected:
            raise StreamFormatError(
                f"{path}: payload length {size} does not match header "
                f"(expected {expected})")
        rows = t if block_bytes is None else \
            min(t, max(1, block_bytes // (8 * n)))
        buf = np.empty((rows, n), dtype="<f8")
        for lo in range(0, t, rows):
            block = buf[:min(rows, t - lo)]
            if fh.readinto(block) != block.nbytes:
                raise StreamFormatError(f"{path}: truncated payload")
            yield block.astype(np.float64, copy=False)


def _csv_blocks(path: Path, block_bytes: int) -> Iterator[np.ndarray]:
    """Parse a CSV stream a batch of lines at a time.

    A faulty line is reported as ``path:lineno``, and a bad value before
    it first: the lines before a fault are parsed before it is raised.
    """
    width = rows = None
    tokens, linenos = [], []
    # latin-1 maps each byte to one character, so a non-ASCII byte is
    # reported on its own line rather than failing the whole read.
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(ch) for ch in line if ord(ch) > 127)
                fault = f"non-ASCII byte {byte:#04x}"
            else:
                line = line.strip()
                if not line:
                    continue
                row = line.split(",")
                if width is None:
                    width = len(row)
                    # a token string costs about eight times its float64
                    rows = max(1, block_bytes // (64 * width))
                fault = (None if len(row) == width else
                         f"expected {width} values, found {len(row)}")
            if fault:
                if linenos:
                    _parse_csv(path, tokens, linenos, width)
                raise StreamFormatError(f"{path}:{lineno}: {fault}")
            tokens += row
            linenos.append(lineno)
            if len(linenos) == rows:
                yield _parse_csv(path, tokens, linenos, width)
                tokens, linenos = [], []
    if linenos:
        yield _parse_csv(path, tokens, linenos, width)
    elif width is None:
        raise StreamFormatError(f"{path}: empty stream file")


def _parse_csv(path: Path, tokens, linenos, width: int) -> np.ndarray:
    """The (len(linenos), width) block of a batch's row-major tokens."""
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        for i, token in enumerate(tokens):
            try:
                float(token)
            except ValueError as exc:
                raise StreamFormatError(
                    f"{path}:{linenos[i // width]}: {exc}") from exc
        raise
    return values.reshape(len(linenos), width)
