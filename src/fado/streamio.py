"""Vector-stream file formats: packed binary and round-trip CSV.

Binary layout (little-endian):

    magic   8 bytes  b"FADOVECS"
    version u32      1
    n       u64      dimension
    T       u64      number of vectors
    data    f64[T*n] row-major samples

CSV holds one vector per line with shortest round-trip decimal formatting,
so parse(write(x)) reproduces the binary64 payload exactly.  Readers and
the CLI pick the format from the file extension (.csv means CSV).
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

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


def write_outcome_rows(fh, header: str, start: int, columns) -> None:
    """Write ``header``, then row i as ``start + i`` and each column's entry:
    bools as 0/1, floats in shortest round-trip form, 8192 rows per write."""
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
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_csv(path)
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
        # one buffer, filled in place: no second copy of the payload
        rows = np.empty((t, n), dtype="<f8")
        if fh.readinto(rows) != rows.nbytes:
            raise StreamFormatError(f"{path}: truncated payload")
    return rows.astype(np.float64, copy=False)


def _read_csv(path: Path) -> np.ndarray:
    rows = []
    width = None
    # latin-1 maps each byte to one character, so a non-ASCII byte is
    # reported on its own line rather than failing the whole read.
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(ch) for ch in line if ord(ch) > 127)
                raise StreamFormatError(
                    f"{path}:{lineno}: non-ASCII byte {byte:#04x}")
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise StreamFormatError(f"{path}:{lineno}: {exc}") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise StreamFormatError(
                    f"{path}:{lineno}: expected {width} values, found {len(row)}")
            rows.append(row)
    if not rows:
        raise StreamFormatError(f"{path}: empty stream file")
    return np.asarray(rows, dtype=np.float64)
