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
"""

from __future__ import annotations

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

__all__ = ["CheckpointError", "checkpoint_encode", "checkpoint_decode"]

MAGIC = b"FADOCKPT"
VERSION = 1

_MODE_FIXED = 0
_MODE_ADAPTIVE = 1
_SCHED_POWER = 0
_SCHED_CONSTANT = 1


class CheckpointError(ValueError):
    """Malformed, truncated, or corrupted checkpoint bytes."""


def checkpoint_encode(state: Detector) -> bytes:
    """Serialize a detector state to the checkpoint wire format."""
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
    parts.append(np.ascontiguousarray(state.w, dtype="<f8").tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise CheckpointError("truncated checkpoint")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out

    def take_bytes(self, size: int) -> bytes:
        if self.pos + size > len(self.data):
            raise CheckpointError("truncated checkpoint")
        out = self.data[self.pos:self.pos + size]
        self.pos += size
        return out


def checkpoint_decode(data: bytes) -> Detector:
    """Reconstruct a detector state from checkpoint bytes."""
    if len(data) < len(MAGIC) + 8:
        raise CheckpointError("truncated checkpoint")
    if data[:len(MAGIC)] != MAGIC:
        raise CheckpointError("bad magic, not a checkpoint")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    actual_crc = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointError(
            f"CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )

    r = _Reader(data[:-4])
    r.take_bytes(len(MAGIC))
    (version,) = r.take("<I")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")

    (mode_tag,) = r.take("<B")
    if mode_tag == _MODE_FIXED:
        mode = _configure(FixedRadius, *r.take("<d"))
    elif mode_tag == _MODE_ADAPTIVE:
        mode = AdaptiveRadius()
    else:
        raise CheckpointError(f"unknown mode tag {mode_tag}")

    (sched_tag,) = r.take("<B")
    if sched_tag == _SCHED_POWER:
        schedule = _configure(PowerDecay, *r.take("<dd"))
    elif sched_tag == _SCHED_CONSTANT:
        schedule = _configure(Constant, *r.take("<d"))
    else:
        raise CheckpointError(f"unknown schedule tag {sched_tag}")

    n, t, m = r.take("<QQQ")
    if n < 1:
        raise CheckpointError("dimension must be positive")
    if m > t:
        raise CheckpointError(f"mistake count {m} exceeds step count {t}")
    trace_vals = r.take("<4d")
    for val in trace_vals:
        _require_finite(val, "trace sum")
    w = np.frombuffer(r.take_bytes(8 * n), dtype="<f8").astype(np.float64)
    if r.pos != len(r.data):
        raise CheckpointError("trailing bytes after center payload")
    if not np.isfinite(w).all():
        raise CheckpointError("non-finite center payload")

    state = _configure(Detector, int(n), mode, schedule)
    state.w = w
    state.t = int(t)
    state.m = int(m)
    state.trace = DiagnosticsTrace(*trace_vals)
    return state


def _configure(cls, *args):
    """Build a mode, schedule or detector; a range error is a format error."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise CheckpointError(f"invalid configuration payload: {exc}") from exc


def _require_finite(value: float, name: str) -> None:
    if not np.isfinite(value):
        raise CheckpointError(f"non-finite {name} in checkpoint")
