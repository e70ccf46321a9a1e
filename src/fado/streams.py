"""Deterministic, seeded synthetic stream generators with ground truth.

Every design used by the experiment sweeps lives here: uniform-ball
"normal" streams realizable with a margin, near-boundary circle streams,
uniform-shell outlier clouds, and Bernoulli-position contaminated mixtures.
All randomness flows through a counter-based splitmix64 generator so that a
(spec, seed) pair reproduces streams bit-identically on any platform; the
Gaussian construction is pinned to the classic Box-Muller pair

    z0 = sqrt(-2 ln u1) cos(2 pi u2),   z1 = sqrt(-2 ln u1) sin(2 pi u2)

with u1 clamped away from zero at 2**-53.

Seed discipline: each generator spawns three child streams from the user
seed (labels, normal samples, outlier samples, in that order), so a mixture
with contamination fraction 0 emits byte-identical samples to the
realizable generator under the same seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bounds import GroundTruth

__all__ = [
    "SplitMix64",
    "Design",
    "StreamSpec",
    "sample_ball_uniform",
    "gen_realizable_stream",
    "gen_circle_stream",
    "gen_outliers",
    "gen_contaminated_stream",
    "generate",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF
_U53 = 2.0 ** -53


class SplitMix64:
    """splitmix64 with vectorized, counter-based block generation.

    The state advances by a fixed odd constant per draw, so a block of k
    draws is the mix function applied to an arithmetic progression; block
    and one-at-a-time generation produce identical sequences.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64_block(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be nonnegative")
        idx = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + idx * np.uint64(_GOLDEN)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        self._state = (self._state + count * _GOLDEN) & _MASK
        return z

    def next_u64(self) -> int:
        return int(self.next_u64_block(1)[0])

    def next_double_block(self, count: int) -> np.ndarray:
        """Uniform doubles in [0, 1): top 53 bits scaled by 2**-53."""
        return (self.next_u64_block(count) >> np.uint64(11)).astype(
            np.float64) * _U53

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


def sample_ball_uniform(dim: int, center, radius: float,
                        rng: SplitMix64) -> np.ndarray:
    """One point uniform over the closed ball of the given radius."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("radius must be a positive finite number")
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (dim,):
        raise ValueError(f"center must have shape ({dim},)")
    return _ball_block(rng, 1, dim, center, radius)[0]


class Design(enum.Enum):
    BALL = "ball"
    CIRCLE = "circle"
    MIXTURE = "mixture"


@dataclass(eq=False)
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
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.truth.dim != self.dim:
            raise ValueError(
                f"truth dimension {self.truth.dim} does not match dim {self.dim}")
        if not (0.0 <= self.contamination_fraction < 1.0):
            raise ValueError("contamination_fraction must lie in [0, 1)")
        if self.design is Design.CIRCLE and self.dim != 2:
            raise ValueError("circle design requires dim = 2")
        if self.design is Design.MIXTURE:
            if self.truth.mu <= 0.0:
                raise ValueError(
                    "mixture design requires a positive margin so labels are unambiguous")
            if self.outlier_radius_max is None:
                raise ValueError("mixture design requires outlier_radius_max")
        if self.outlier_radius_max is not None and \
                self.outlier_radius_max <= self.truth.epsilon:
            raise ValueError("outlier_radius_max must exceed epsilon")


def _spawn_children(seed: int):
    root = SplitMix64(seed)
    return root.spawn(), root.spawn(), root.spawn()  # labels, normals, outliers


def gen_realizable_stream(spec: StreamSpec) -> Tuple[np.ndarray, GroundTruth]:
    """T samples uniform in the (epsilon - mu)-ball around the true center."""
    if spec.design is not Design.BALL:
        raise ValueError("realizable generator requires the ball design")
    if spec.contamination_fraction != 0.0:
        raise ValueError("realizable generator requires zero contamination")
    radius = spec.truth.inner_radius
    if radius <= 0.0:
        raise ValueError("margin leaves an empty ball (mu >= epsilon)")
    _, normals_rng, _ = _spawn_children(spec.seed)
    samples = _ball_block(normals_rng, spec.count, spec.dim,
                          spec.truth.w_bar, radius)
    return samples, spec.truth


def gen_circle_stream(spec: StreamSpec) -> Tuple[np.ndarray, GroundTruth]:
    """T points at exact radius epsilon - mu from the center (dim 2 only)."""
    if spec.design is not Design.CIRCLE:
        raise ValueError("circle generator requires the circle design")
    radius = spec.truth.inner_radius
    if radius <= 0.0:
        raise ValueError("margin leaves an empty circle (mu >= epsilon)")
    _, normals_rng, _ = _spawn_children(spec.seed)
    theta = (2.0 * math.pi) * normals_rng.next_double_block(spec.count)
    samples = np.empty((spec.count, 2), dtype=np.float64)
    samples[:, 0] = spec.truth.w_bar[0] + radius * np.cos(theta)
    samples[:, 1] = spec.truth.w_bar[1] + radius * np.sin(theta)
    return samples, spec.truth


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


def gen_contaminated_stream(spec: StreamSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Mixture stream: each position is an outlier independently.

    Returns the samples and the boolean outlier labels; the realized
    violation count is ``labels.sum()`` and matches the analytic count from
    the contamination report exactly, because normals stay strictly inside
    the margin ball and outliers start at the detection radius.
    """
    if spec.design is not Design.MIXTURE:
        raise ValueError("contaminated generator requires the mixture design")
    labels_rng, normals_rng, outliers_rng = _spawn_children(spec.seed)
    labels = labels_rng.next_double_block(spec.count) < spec.contamination_fraction
    n_out = int(np.count_nonzero(labels))
    samples = np.empty((spec.count, spec.dim), dtype=np.float64)
    normals = _ball_block(normals_rng, spec.count - n_out, spec.dim,
                          spec.truth.w_bar, spec.truth.inner_radius)
    samples[~labels] = normals
    if n_out:
        samples[labels] = gen_outliers(spec.dim, spec.truth, n_out, 0.0,
                                       spec.outlier_radius_max, outliers_rng)
    return samples, labels


def generate(spec: StreamSpec):
    """Dispatch a spec to its generator: (samples, labels), where labels
    is None except for the mixture design."""
    if spec.design is Design.MIXTURE:
        return gen_contaminated_stream(spec)
    if spec.design is Design.BALL:
        return gen_realizable_stream(spec)[0], None
    return gen_circle_stream(spec)[0], None
