"""Deterministic, seeded synthetic stream generators with ground truth.

Every design used by the experiment sweeps lives here: uniform-ball
"normal" streams realizable with a margin, near-boundary circle streams,
uniform-shell outlier clouds, and Bernoulli-position contaminated mixtures.
A frozen :class:`StreamSpec` states the recipe and every rule on it, and
:func:`generate` draws the stream it describes.  All randomness flows
through a counter-based splitmix64 generator, which mixes a block of draws
in place, one cache-sized tile at a time, into the same bits as drawing
them one at a time.  So a (spec, seed) pair reproduces a stream bit for bit
under a given numpy build and CPU dispatch level: numpy's AVX512 ``log``
and ``pow`` kernels give other bits than its AVX2 and baseline ones, so the
bytes can differ between hosts.  The
Gaussian construction is pinned to the classic Box-Muller pair

    z0 = sqrt(-2 ln u1) cos(2 pi u2),   z1 = sqrt(-2 ln u1) sin(2 pi u2)

with u1 clamped away from zero at 2**-53.

Seed discipline: every stream spawns three child generators from the user
seed (labels, normal samples, outlier samples, in that order), so a mixture
with contamination fraction 0 emits byte-identical samples to the ball
design under the same seed.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bounds import GroundTruth
from .detector import _TILE

__all__ = [
    "SplitMix64",
    "Design",
    "StreamSpec",
    "gen_outliers",
    "generate",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF
_U53 = 2.0 ** -53


@functools.cache
def _steps() -> np.ndarray:
    """(1..TILE) * golden mod 2**64, read-only; built on first use."""
    steps = np.arange(1, _TILE + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    steps.flags.writeable = False
    return steps


def _count(count) -> int:
    count = operator.index(count)
    if count < 0:
        raise ValueError("count must be nonnegative")
    return count


class SplitMix64:
    """splitmix64 with vectorized, counter-based block generation.

    The state advances by a fixed odd constant per draw, so a block of k
    draws is the mix function applied to an arithmetic progression.  A
    block is mixed in place, one tile of at most ``_TILE`` draws at a time,
    through one scratch tile, so block and one-at-a-time generation produce
    identical bits.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def _mix(self, lo: int, z: np.ndarray, t: np.ndarray) -> None:
        """Draws ``lo + 1 .. lo + len(z)`` after the current state, mixed
        in place into ``z``; ``t`` is scratch of the same length."""
        np.add(_steps()[:len(z)],
               np.uint64((self._state + lo * _GOLDEN) & _MASK), out=z)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, shift, out=t)
            z ^= t
            z *= np.uint64(mult)
        np.right_shift(z, 31, out=t)
        z ^= t

    def next_u64_block(self, count: int) -> np.ndarray:
        count = _count(count)
        out = np.empty(count, dtype=np.uint64)
        t = np.empty(min(count, _TILE), dtype=np.uint64)
        for lo in range(0, count, _TILE):
            z = out[lo:lo + _TILE]
            self._mix(lo, z, t[:len(z)])
        self._state = (self._state + count * _GOLDEN) & _MASK
        return out

    def next_u64(self) -> int:
        return int(self.next_u64_block(1)[0])

    def next_double_block(self, count: int,
                          out: Optional[np.ndarray] = None) -> np.ndarray:
        """Uniform doubles in [0, 1): top 53 bits scaled by 2**-53.

        With ``out`` (a float64 array of shape ``(count,)``) the doubles
        are written into it, tile by tile, and it is returned.
        """
        count = _count(count)
        if out is None:
            out = np.empty(count, dtype=np.float64)
        elif out.shape != (count,) or out.dtype != np.float64:
            raise ValueError("out must be a float64 array of shape (count,)")
        z = np.empty(min(count, _TILE), dtype=np.uint64)
        t = np.empty_like(z)
        for lo in range(0, count, _TILE):
            dst = out[lo:lo + _TILE]
            zk = z[:len(dst)]
            self._mix(lo, zk, t[:len(dst)])
            zk >>= 11
            np.multiply(zk, _U53, out=dst)  # exact: zk < 2**53
        self._state = (self._state + count * _GOLDEN) & _MASK
        return out

    def next_double(self) -> float:
        return float(self.next_double_block(1)[0])

    def spawn(self) -> "SplitMix64":
        """Child generator seeded from the next output."""
        return SplitMix64(self.next_u64())


def _box_muller(u: np.ndarray, cols: int) -> np.ndarray:
    """Standard normals from rows of interleaved (u1, u2) uniform pairs.

    Each pair yields two normals in place; the first ``cols`` are kept.
    """
    r = np.sqrt(-2.0 * np.log(np.maximum(u[:, 0::2], _U53)))
    ang = (2.0 * math.pi) * u[:, 1::2]
    g = np.empty(u.shape, dtype=np.float64)
    g[:, 0::2] = r * np.cos(ang)
    g[:, 1::2] = r * np.sin(ang)
    return g[:, :cols]


def _ball_block(rng: SplitMix64, count: int, dim: int, center: np.ndarray,
                radius: float) -> np.ndarray:
    """Uniform samples from the closed ball; row consumption is fixed.

    Each sample consumes 2*ceil(dim/2) doubles for the direction plus one
    for the radial factor U**(1/dim).  Points that land an ulp outside the
    ball after the center addition are projected back in (no extra draws).
    A Gaussian row is never all zero: u1 <= 1 - 2**-53 keeps its radius
    positive, and no double angle has a zero cosine.
    """
    per_row = 2 * ((dim + 1) // 2) + 1
    u = rng.next_double_block(count * per_row).reshape(count, per_row)
    g = _box_muller(u[:, :-1], dim)
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    scale = radius * u[:, -1] ** (1.0 / dim)
    out = center + g * (scale / norms)[:, None]
    _project_into_ball(out, center, radius)
    return out


def _project_into_ball(samples: np.ndarray, center: np.ndarray,
                       radius: float) -> None:
    """Deterministically repair ulp-level radius violations in place."""
    d = np.linalg.norm(samples - center, axis=1)
    over = d > radius
    shrink = 1.0
    while np.any(over):
        shrink *= 1.0 - 2.0 ** -50
        idx = np.flatnonzero(over)
        samples[idx] = center + (samples[idx] - center) * (
            radius * shrink / d[idx])[:, None]
        d[idx] = np.linalg.norm(samples[idx] - center, axis=1)
        over[idx] = d[idx] > radius


class Design(enum.Enum):
    BALL = "ball"
    CIRCLE = "circle"
    MIXTURE = "mixture"


@dataclass(frozen=True, eq=False)
class StreamSpec:
    """Full recipe for one synthetic stream."""

    dim: int
    count: int
    truth: GroundTruth
    seed: int
    design: Design = Design.BALL
    contamination_fraction: float = 0.0
    outlier_radius_max: Optional[float] = None

    def __post_init__(self):
        for name in ("dim", "count"):  # stored as Python ints
            try:
                object.__setattr__(self, name,
                                   operator.index(getattr(self, name)))
            except TypeError:
                raise TypeError(f"{name} must be an integer, not "
                                f"{type(getattr(self, name)).__name__}"
                                ) from None
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.truth.dim != self.dim:
            raise ValueError(
                f"truth dimension {self.truth.dim} does not match dim {self.dim}")
        if not (0.0 <= self.contamination_fraction < 1.0):
            raise ValueError("contamination_fraction must lie in [0, 1)")
        if self.design is Design.MIXTURE:
            if self.truth.mu <= 0.0:
                raise ValueError("mu must be positive in the mixture design "
                                 "(a zero margin makes labels ambiguous)")
            if self.outlier_radius_max is None:
                raise ValueError(
                    "outlier_radius_max is required for the mixture design")
            if self.outlier_radius_max <= self.truth.epsilon:
                raise ValueError("outlier_radius_max must exceed epsilon")
            return
        if self.contamination_fraction != 0.0:
            raise ValueError("contamination_fraction must be 0 outside the "
                             "mixture design")
        if self.outlier_radius_max is not None:
            raise ValueError("outlier_radius_max applies only to the mixture "
                             "design")
        if self.design is Design.CIRCLE and self.dim != 2:
            raise ValueError("dim must be 2 in the circle design (dim = 2)")


def gen_outliers(dim: int, truth: GroundTruth, count: int,
                 delta_min: float, radius_max: float,
                 rng: SplitMix64) -> np.ndarray:
    """Points uniform in the shell epsilon + delta_min <= |y - w| <= radius_max.

    Batched rejection from the outer ball: each round draws the remaining
    number of candidates and keeps the ones clearing the inner radius, in
    draw order.  Ulp-level outer violations are projected back; inner
    near-misses are rejected like any other interior point.
    """
    if truth.dim != dim:
        raise ValueError("truth dimension does not match dim")
    if not (delta_min >= 0 and math.isfinite(delta_min)):
        raise ValueError("delta_min must be a nonnegative finite number")
    lower = truth.epsilon + delta_min
    if not radius_max > lower:
        raise ValueError(
            "infeasible shell: radius_max must exceed epsilon + delta_min")
    out = np.empty((count, dim), dtype=np.float64)
    filled = 0
    while filled < count:
        cand = _ball_block(rng, count - filled, dim, truth.w_bar, radius_max)
        dist = np.linalg.norm(cand - truth.w_bar, axis=1)
        keep = cand[dist >= lower]
        out[filled:filled + keep.shape[0]] = keep
        filled += keep.shape[0]
    return out


def generate(spec: StreamSpec) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Draw the stream a spec describes: (samples, labels).

    Ball: samples uniform in the (epsilon - mu)-ball around the center.
    Circle: points at exact radius epsilon - mu from the center.
    Mixture: each position is an outlier independently, and labels holds
    the boolean outlier labels (None for the other designs); the realized
    violation count ``labels.sum()`` matches the analytic count from the
    contamination report exactly, because normals stay inside the margin
    ball and outliers start at the detection radius.
    """
    root = SplitMix64(spec.seed)
    labels_rng, normals_rng, outliers_rng = (root.spawn(), root.spawn(),
                                             root.spawn())
    center, radius = spec.truth.w_bar, spec.truth.inner_radius
    if spec.design is Design.BALL:
        return _ball_block(normals_rng, spec.count, spec.dim, center,
                           radius), None
    if spec.design is Design.CIRCLE:
        theta = (2.0 * math.pi) * normals_rng.next_double_block(spec.count)
        return center + radius * np.column_stack((np.cos(theta),
                                                  np.sin(theta))), None
    labels = (labels_rng.next_double_block(spec.count)
              < spec.contamination_fraction)
    n_out = int(np.count_nonzero(labels))
    samples = np.empty((spec.count, spec.dim), dtype=np.float64)
    samples[~labels] = _ball_block(normals_rng, spec.count - n_out, spec.dim,
                                   center, radius)
    if n_out:
        samples[labels] = gen_outliers(spec.dim, spec.truth, n_out, 0.0,
                                       spec.outlier_radius_max, outliers_rng)
    return samples, labels
