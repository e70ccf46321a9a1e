"""Binary checkpointing for detector states.

Layout (little-endian throughout):

    magic   8 bytes  b"FADOCKPT"
    version u32      1
    mode    u8       0 = fixed radius, 1 = adaptive radius
    epsilon f64      fixed mode only
    sched   u8       0 = power decay, 1 = constant
    params  f64[...] power decay: gamma0, tau; constant: gamma
    n       u64      dimension
    t       u64      steps processed
    m       u64      mistake count
    trace   f64[4]   sum_d_gamma_sq, sum_d_gamma, sum_d_gamma_vw, w_norm_sq
    w       f64[n]   center
    crc     u32      CRC32 of all preceding bytes

Decoding reproduces the state bit-exactly, trace accumulators included.
:func:`checkpoint_write` and :func:`checkpoint_read` stream a file with no
copy of the center beside the detector's own; :func:`checkpoint_encode` and
:func:`checkpoint_decode` are the same codec over bytes in memory.
"""

from __future__ import annotations

import io
import struct
import zlib

import numpy as np

from .detector import (
    AdaptiveRadius,
    Constant,
    Detector,
    DiagnosticsTrace,
    FixedRadius,
    PowerDecay,
)

__all__ = ["CheckpointError", "checkpoint_encode", "checkpoint_decode",
           "checkpoint_write", "checkpoint_read"]

MAGIC = b"FADOCKPT"
VERSION = 1

_MODE_FIXED = 0
_MODE_ADAPTIVE = 1
_SCHED_POWER = 0
_SCHED_CONSTANT = 1

# The longest header, magic to trace sums (fixed radius, power decay).
_HEAD = len(MAGIC) + struct.calcsize("<IBdBddQQQ4d")
# Bytes per read of the CRC pass over a checkpoint file.
_CHUNK = 1 << 16


class CheckpointError(ValueError):
    """Malformed, truncated, or corrupted checkpoint bytes."""


def checkpoint_write(state: Detector, fh) -> None:
    """Write ``state`` to the binary file ``fh`` in the wire format.

    The header goes first, then the center straight from its own buffer,
    under one running CRC, so no copy of the center is made.
    """
    parts = [MAGIC, struct.pack("<I", VERSION)]
    if isinstance(state.mode, FixedRadius):
        parts.append(struct.pack("<Bd", _MODE_FIXED, state.mode.epsilon))
    else:
        parts.append(struct.pack("<B", _MODE_ADAPTIVE))
    if isinstance(state.schedule, PowerDecay):
        parts.append(struct.pack("<Bdd", _SCHED_POWER,
                                 state.schedule.gamma0, state.schedule.tau))
    else:
        parts.append(struct.pack("<Bd", _SCHED_CONSTANT, state.schedule.gamma))
    parts.append(struct.pack("<QQQ", state.dim, state.t, state.m))
    parts.append(struct.pack("<4d", *state.trace.as_tuple()))
    head = b"".join(parts)
    w = np.ascontiguousarray(state.w, dtype="<f8")
    fh.write(head)
    fh.write(w)
    fh.write(struct.pack("<I", zlib.crc32(w, zlib.crc32(head))))


def checkpoint_read(fh) -> Detector:
    """Reconstruct a detector state from the binary file ``fh``, read from
    its position to its end.

    The CRC is checked in one pass of :data:`_CHUNK` bytes at a time before
    any field is parsed, and the header's dimension against the file's
    size before the center is allocated; the center is then read into its
    own array.  A stream that cannot seek, such as a pipe, is read whole.
    """
    if not fh.seekable():
        fh = io.BytesIO(fh.read())
    start = fh.tell()
    size = fh.seek(0, io.SEEK_END) - start
    fh.seek(start)
    if size < len(MAGIC) + 8:
        raise CheckpointError("truncated checkpoint")
    length = size - 4  # of the body, which the CRC covers
    head = _read(fh, min(length, _HEAD))
    if head[:len(MAGIC)] != MAGIC:
        raise CheckpointError("bad magic, not a checkpoint")
    actual_crc = zlib.crc32(head)
    for lo in range(len(head), length, _CHUNK):
        actual_crc = zlib.crc32(_read(fh, min(_CHUNK, length - lo)),
                                actual_crc)
    (stored_crc,) = struct.unpack("<I", _read(fh, 4))
    if stored_crc != actual_crc:
        raise CheckpointError(
            f"CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )

    pos = len(MAGIC)

    def take(fmt: str):
        nonlocal pos
        try:
            out = struct.unpack_from(fmt, head, pos)
        except struct.error:
            raise CheckpointError("truncated checkpoint") from None
        pos += struct.calcsize(fmt)
        return out

    (version,) = take("<I")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")

    (mode_tag,) = take("<B")
    if mode_tag == _MODE_FIXED:
        mode = _configure(FixedRadius, *take("<d"))
    elif mode_tag == _MODE_ADAPTIVE:
        mode = AdaptiveRadius()
    else:
        raise CheckpointError(f"unknown mode tag {mode_tag}")

    (sched_tag,) = take("<B")
    if sched_tag == _SCHED_POWER:
        schedule = _configure(PowerDecay, *take("<dd"))
    elif sched_tag == _SCHED_CONSTANT:
        schedule = _configure(Constant, *take("<d"))
    else:
        raise CheckpointError(f"unknown schedule tag {sched_tag}")

    n, t, m = take("<QQQ")
    if m > t:
        raise CheckpointError(f"mistake count {m} exceeds step count {t}")
    trace_vals = take("<4d")
    if not np.isfinite(trace_vals).all():
        raise CheckpointError("non-finite trace sum in checkpoint")
    if length - pos < 8 * n:
        raise CheckpointError("truncated checkpoint")
    if length - pos > 8 * n:
        raise CheckpointError("trailing bytes after center payload")
    w = np.empty(n, dtype="<f8")
    fh.seek(start + pos)
    if fh.readinto(w) != w.nbytes:
        raise CheckpointError("truncated checkpoint")
    w = w.astype(np.float64, copy=False)
    if not np.isfinite(w).all():
        raise CheckpointError("non-finite center payload")

    state = _configure(Detector, int(n), mode, schedule)
    state.w = w
    state.t = int(t)
    state.m = int(m)
    state.trace = DiagnosticsTrace(*trace_vals)
    return state


def checkpoint_encode(state: Detector) -> bytes:
    """Serialize a detector state to the checkpoint wire format."""
    buf = io.BytesIO()
    checkpoint_write(state, buf)
    return buf.getvalue()


def checkpoint_decode(data: bytes) -> Detector:
    """Reconstruct a detector state from checkpoint bytes."""
    return checkpoint_read(io.BytesIO(data))


def _read(fh, size: int) -> bytes:
    """The next ``size`` bytes of ``fh``; fewer is a truncated checkpoint."""
    data = fh.read(size)
    if len(data) != size:
        raise CheckpointError("truncated checkpoint")
    return data


def _configure(cls, *args):
    """Build a mode, schedule or detector; a range error is a format error."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise CheckpointError(f"invalid configuration payload: {exc}") from exc
