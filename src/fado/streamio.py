"""Stream and frame files: one packed container, and round-trip CSV.

Both binary formats are one container (little-endian):

    magic   8 bytes     b"FADOVECS" (vectors) or b"FADOFRMS" (frames)
    version u32         1
    shape   row shape   vectors: u64 n; frames: u32 width, u32 height
    count   u64         number of rows
    data    rows        row-major: f64[n] per vector, u8[height*width]
                        per frame

A reader checks the header against the file size, then yields the rows in
the header's layout from one open file, in bounded blocks read into one
reused buffer, so ``fado run`` and ``fado scene`` hold one block at a time.

CSV holds one vector per line with shortest round-trip decimal formatting,
so parse(write(x)) reproduces the binary64 payload exactly.  Readers and
the CLI pick the format from the file extension (.csv means CSV).
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .detector import _block_rows

__all__ = ["StreamFormatError", "write_vectors", "read_vectors",
           "write_outcome_rows"]

MAGIC = b"FADOVECS"

# Rows formatted per write, which bounds the text held at once.
_CSV_ROWS = 1024


class StreamFormatError(ValueError):
    """Malformed or truncated vector-stream file."""


def _write_packed(path, magic: bytes, shape_fmt: str, shape,
                  rows: np.ndarray) -> None:
    """Write ``rows`` as a container of row shape ``shape``."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<I{shape_fmt}Q", 1, *shape, len(rows)))
        fh.write(np.ascontiguousarray(rows))


def _open_packed(path, magic: bytes, shape_fmt: str, dtype, error,
                 what: str):
    """Check a container's header against the file size.

    Returns the header's row shape, the row count, and ``blocks(rows)``,
    a generator of flat (k <= rows, row) ``dtype`` blocks read into one
    reused buffer (a block is valid until the next is read).  Faults raise
    ``error`` naming ``path``.
    """
    fmt = f"<I{shape_fmt}Q"
    header = len(magic) + struct.calcsize(fmt)
    with open(path, "rb") as fh:
        head = fh.read(header)
        size = os.fstat(fh.fileno()).st_size
    if len(head) < header:
        raise error(f"{path}: truncated header")
    if head[:len(magic)] != magic:
        raise error(f"{path}: bad magic, not a {what}")
    version, *shape, count = struct.unpack_from(fmt, head, len(magic))
    if version != 1:
        raise error(f"{path}: unsupported version {version}")
    if min(shape) < 1:
        raise error(f"{path}: degenerate row shape {tuple(shape)}")
    if count < 1:
        # with no payload nothing bounds the row shape, and a detector over
        # the stream allocates a center of that many entries
        raise error(f"{path}: empty {what}")
    row = math.prod(shape)
    expected = header + count * row * np.dtype(dtype).itemsize
    if size != expected:
        raise error(f"{path}: payload length {size} does not match header "
                    f"(expected {expected})")

    def blocks(rows: int) -> Iterator[np.ndarray]:
        buf = np.empty((min(rows, count), row), dtype=dtype)
        with open(path, "rb") as fh:
            fh.seek(header)
            for lo in range(0, count, rows):
                block = buf[:min(rows, count - lo)]
                if fh.readinto(block) != block.nbytes:
                    raise error(f"{path}: truncated payload")
                yield block

    return shape, count, blocks


def _cells(col: np.ndarray):
    """The text of each entry of a column slice: bools as 0/1, integers
    and floats by ``repr`` (shortest round trip).  Each run of bit-equal
    floats is formatted once (bits keep 0.0 and -0.0 apart)."""
    if col.dtype == bool:
        return map("01".__getitem__, col.tolist())
    if col.dtype == np.float64:
        bits = col.view(np.uint64)
        starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
        if len(starts) + 1 < len(col):
            starts = np.concatenate(([0], starts))
            text = np.array(list(map(repr, col[starts].tolist())),
                            dtype=object)
            return np.repeat(text, np.diff(starts, append=len(col))).tolist()
    return map(repr, col.tolist())


def _write_rows(fh, columns) -> None:
    """Write row i as each column's entry i, comma-separated, formatted
    by :func:`_cells` a slice of at most ``_CSV_ROWS`` rows at a time."""
    count = len(columns[0])
    for lo in range(0, count, _CSV_ROWS):
        cells = [_cells(col[lo:lo + _CSV_ROWS]) for col in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_vectors(samples, path) -> None:
    """Write a (T, n) sample block; CSV when the suffix is .csv, else binary."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError("samples must form a (T, n) matrix with n >= 1")
    if Path(path).suffix.lower() == ".csv":
        with open(path, "w", encoding="ascii") as fh:
            _write_rows(fh, arr.T)
        return
    _write_packed(path, MAGIC, "Q", arr.shape[1:],
                  arr.astype("<f8", copy=False))


def write_outcome_rows(fh, header: Optional[str], start: int,
                       columns) -> None:
    """Write ``header``, then row i as ``start + i`` and each column's entry.
    A ``header`` of None continues a file block by block."""
    if header is not None:
        fh.write(header + "\n")
    _write_rows(fh, [np.arange(start, start + len(columns[0])), *columns])


def read_vectors(path) -> np.ndarray:
    """Read a stream file back into a (T, n) float64 matrix."""
    # a binary file comes as one block, so its payload is held once
    blocks = list(_vector_blocks(path, whole=True))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _vector_blocks(path, whole: bool = False) -> Iterator[np.ndarray]:
    """Yield a stream file's rows in order, as (k, n) float64 blocks.

    A binary file's header is checked against its size before the first
    block; its blocks hold :func:`_block_rows` rows (``whole``: every
    row), read into one reused buffer.  A CSV file is parsed into fresh
    blocks whose token strings take about as much memory.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        yield from _csv_blocks(path)
        return
    (n,), t, blocks = _open_packed(path, MAGIC, "Q", "<f8", StreamFormatError,
                                   "stream")
    yield from blocks(t if whole else _block_rows(n))


def _csv_blocks(path: Path) -> Iterator[np.ndarray]:
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
                    rows = _block_rows(8 * width)
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
