"""Independent reference for checking the fado CLI's outputs.

Nothing here imports the program.  The detector is written from the
paper's update rule: a transaction ``y`` raises an alarm when
``|y - w| >= r``; each alarm increments the mistake count ``m`` and moves the
centre by ``g_m * (y - w) / |y - w|``.  The gain is ``gamma0 * m**-(1/2+tau)``
(fixed and adaptive radius) or a constant ``gamma``; the fixed radius is
``epsilon`` and the adaptive radius is ``1 / g_{m+1}``.  The file formats are
parsed from their documented little-endian layouts, and the bounds are the
paper's closed forms with zeta taken from mpmath.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

# Tolerances stated once: the centre may differ from the program's by
# rounding only, distances likewise.
CENTRE_RTOL = 1e-9
DISTANCE_RTOL = 1e-9
TRACE_RTOL = 1e-12
ZETA_ATOL = 1e-10
# Mistake caps are the largest m under a flat power curve; far out (m near
# 1e15) float evaluation moves them by a few units.
CAP_RTOL = 1e-9


class Fado:
    """Plain-numpy FADO detector: fixed, adaptive or constant gain."""

    def __init__(self, dim, mode, epsilon=None, gamma0=1.0, tau=0.25,
                 gamma=1.0):
        if mode not in ("fixed", "adaptive", "constant"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.epsilon = epsilon
        self.gamma0 = gamma0
        self.tau = tau
        self.gamma = gamma
        self.w = np.zeros(dim)
        self.m = 0
        self.t = 0

    def gain(self, m):
        if self.mode == "constant":
            return self.gamma
        return self.gamma0 * m ** -(0.5 + self.tau)

    def radius(self):
        if self.mode == "adaptive":
            return 1.0 / self.gain(self.m + 1)
        return self.epsilon

    def scan(self, rows):
        """Feed rows in order; return the alarm flags and the distances."""
        alarms = []
        dists = []
        for y in rows:
            diff = y - self.w
            d = math.sqrt(float(np.dot(diff, diff)))
            alarm = d >= self.radius()
            if alarm:
                self.m += 1
                if d > 0.0:
                    self.w += self.gain(self.m) * (diff / d)
            self.t += 1
            alarms.append(alarm)
            dists.append(d)
        return np.array(alarms, dtype=bool), np.array(dists)


# --------------------------------------------------------------- formats

VECS_MAGIC = b"FADOVECS"
VECS_HEADER = struct.Struct("<8sIQQ")
FRMS_HEADER = struct.Struct("<8sIIIQ")


def read_stream(path):
    """Decode a FADOVECS file into a (T, n) float64 matrix."""
    data = open(path, "rb").read()
    magic, version, n, t = VECS_HEADER.unpack_from(data)
    if magic != VECS_MAGIC or version != 1:
        raise ValueError(f"{path}: not a version-1 vector stream")
    return np.frombuffer(data, "<f8", count=n * t,
                         offset=VECS_HEADER.size).reshape(t, n)


def write_stream(rows, path):
    rows = np.ascontiguousarray(rows, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(VECS_HEADER.pack(VECS_MAGIC, 1, rows.shape[1], rows.shape[0]))
        fh.write(rows.tobytes())


def read_pack(path):
    """Decode a FADOFRMS frame pack into a (T, height, width) uint8 array."""
    data = open(path, "rb").read()
    magic, version, width, height, count = FRMS_HEADER.unpack_from(data)
    if magic != b"FADOFRMS" or version != 1:
        raise ValueError(f"{path}: not a version-1 frame pack")
    return np.frombuffer(data, np.uint8, count=count * width * height,
                         offset=FRMS_HEADER.size).reshape(count, height, width)


def read_pgm(path):
    """Decode the binary PGM the program writes (no header comments)."""
    data = open(path, "rb").read()
    head = data.split(b"\n", 3)
    if head[0] != b"P5" or head[2] != b"255":
        raise ValueError(f"{path}: unexpected PGM header")
    width, height = (int(v) for v in head[1].split())
    return np.frombuffer(head[3], np.uint8).reshape(height, width)


@dataclass
class Checkpoint:
    t: int
    m: int
    trace: tuple
    w: np.ndarray
    trace_offset: int  # byte offset of the four trace sums


def read_checkpoint(data: bytes) -> Checkpoint:
    """Decode a FADOCKPT blob, verifying its CRC32 trailer."""
    if data[:8] != b"FADOCKPT" or struct.unpack_from("<I", data, 8)[0] != 1:
        raise ValueError("not a version-1 checkpoint")
    if struct.unpack("<I", data[-4:])[0] != zlib.crc32(data[:-4]):
        raise ValueError("checkpoint CRC mismatch")
    pos = 12
    pos += 9 if data[pos] == 0 else 1  # mode tag, epsilon if fixed radius
    pos += 17 if data[pos] == 0 else 9  # schedule tag and its parameters
    n, t, m = struct.unpack_from("<QQQ", data, pos)
    pos += 24
    trace = struct.unpack_from("<4d", data, pos)
    w = np.frombuffer(data, "<f8", count=n, offset=pos + 32)
    return Checkpoint(t, m, trace, w, pos)


def read_table(path):
    """Numeric CSV with one header line; '#' lines are comments."""
    return np.loadtxt(path, delimiter=",", skiprows=1, comments="#",
                      ndmin=2)


# ---------------------------------------------------------------- bounds

def zeta(s):
    import mpmath
    return float(mpmath.zeta(s))


def x_bound(a, c):
    """Bound on x when x + y <= c*sqrt(a + 2y), y >= -a/2, x >= 0."""
    y_star = c * math.sqrt(a + c * c) + c * c
    return max(c * math.sqrt(2.0 * a) + a / 2.0,
               c * math.sqrt(a + 2.0 * y_star) + y_star)


def mistake_cap(norm_w_bar, mu, tau=0.25, gamma0=1.0, sigma_T=0.0):
    """Largest m with mu * gamma0 * ((m+1)**q - 1) / q <= x + sqrt(a sigma_T).

    q = 1/2 - tau and a = gamma0**2 * zeta(1 + 2 tau); sigma_T = 0 gives the
    margin-realizable cap, sigma_T > 0 the agnostic (contaminated) cap.
    """
    a = gamma0 * gamma0 * zeta(1.0 + 2.0 * tau)
    rhs = x_bound(a, norm_w_bar) + math.sqrt(a * sigma_T)
    q = 0.5 - tau
    return math.floor((1.0 + q * rhs / (mu * gamma0)) ** (1.0 / q) - 1.0)


def cap_matches(program, closed_form):
    return abs(program - closed_form) <= max(1.0, CAP_RTOL * closed_form)


def sigma_T(rows, centre, epsilon, mu):
    """Squared excess of each row beyond the margin radius epsilon - mu."""
    excess = np.maximum(np.linalg.norm(rows - centre, axis=1)
                        - (epsilon - mu), 0.0)
    return float(np.sum(excess * excess))


# ---------------------------------------------------------------- checks

def close(a, b, rtol):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


def check_outcomes(table, first_t, alarms, dists):
    """Problems in an outcome CSV (t, alarm, distance, threshold, gain)."""
    problems = []
    if table.shape != (len(alarms), 5):
        return [f"outcome table has shape {table.shape}, "
                f"expected ({len(alarms)}, 5)"]
    if not np.array_equal(table[:, 0], np.arange(first_t + 1,
                                                 first_t + 1 + len(alarms))):
        problems.append("t column is not the running step index")
    flips = np.flatnonzero(table[:, 1].astype(bool) != alarms)
    if flips.size:
        problems.append(f"{flips.size} alarm(s) differ, first at row "
                        f"{int(flips[0])}")
    if not close(table[:, 2], dists, DISTANCE_RTOL):
        problems.append("distance column differs")
    return problems


def check_state(ckpt: Checkpoint, ref: Fado):
    """Problems in a decoded checkpoint against the reference state."""
    problems = []
    if (ckpt.t, ckpt.m) != (ref.t, ref.m):
        problems.append(f"checkpoint (t, m) = ({ckpt.t}, {ckpt.m}), "
                        f"expected ({ref.t}, {ref.m})")
    if not close(ckpt.w, ref.w, CENTRE_RTOL):
        problems.append("checkpoint centre differs from the reference")
    return problems


def snapshot_pixels(w, width, height):
    """Expected snapshot and the pixels that sit on a rounding boundary."""
    scaled = np.clip(w, 0.0, 1.0) * 255.0 + 0.5
    pixels = np.floor(scaled).astype(np.uint8).reshape(height, width)
    frac = scaled - np.floor(scaled)
    tie = (np.minimum(frac, 1.0 - frac) < 1e-9).reshape(height, width)
    return pixels, tie
