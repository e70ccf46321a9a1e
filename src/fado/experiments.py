"""Figure-reproducing sweeps: margin, center scale, dimension, radius
insensitivity, contamination, and the fixed-vs-adaptive comparison.

The sweeps run at the paper's settings, radius 1 and the decaying gain
with tau = 0.25 and gamma0 = 1 (the radius sweep scales both radius and
gain), and take only their grid, seeds, count and base seed.  Each draws
its stream seeds from one base seed (so grid points are paired across
seeds), records one row per (point, seed), aggregates medians, and
attaches named checks (bound dominance, trace audits, monotonicity,
fits, equal counts).  Results serialize to CSV (data only, byte
reproducible under fixed seeds) and JSON (adds metadata and checks; a
non-finite float is null).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from . import __version__ as _version
from .bounds import (
    GroundTruth,
    adaptive_mistake_bound,
    audit_trace,
    mistake_bound_agnostic,
    mistake_bound_realizable,
    sigma_size,
)
from .detector import (
    AdaptiveRadius,
    Detector,
    DetectorMode,
    FixedRadius,
    GainSchedule,
    PowerDecay,
)
from .streams import (Design, SplitMix64, StreamSpec, _children,
                      gen_outliers, generate)

__all__ = [
    "SweepRecord",
    "SweepResult",
    "run_detection_experiment",
    "sweep_margin",
    "sweep_center_scale",
    "sweep_dimension",
    "sweep_epsilon",
    "sweep_contamination",
    "compare_adaptive",
    "emit_results",
]

DEFAULT_SEED = 0xFAD0
DEFAULT_COUNT = 10_000
DEFAULT_HELDOUT = 10_000
DEFAULT_POWER_DELTA = 0.1
# The figures' radius, gain decay and gain scale, as in the paper
EPSILON = 1.0
TAU = 0.25
GAMMA0 = 1.0
_SCHEDULE = PowerDecay(gamma0=GAMMA0, tau=TAU)


@dataclass
class SweepRecord:
    """One run; a sweep sets its grid value, variant and bound.

    Fields from ``wall_time`` on are neither compared nor written to CSV."""

    seed: int
    m_T: int
    value: Optional[float] = None
    power: Optional[float] = None
    final_w_error: Optional[float] = None
    bound: Optional[int] = None
    p_realized: Optional[int] = None
    variant: str = ""
    wall_time: Optional[float] = field(default=None, compare=False)
    final_radius: Optional[float] = field(default=None, compare=False)
    sigma_T: Optional[float] = field(default=None, compare=False)
    audit_passed: Optional[bool] = field(default=None, compare=False)


def run_detection_experiment(spec: StreamSpec, mode: DetectorMode,
                             schedule: GainSchedule) -> SweepRecord:
    """Train on the stream described by ``spec``, then measure held-out power.

    Power is the fraction of :data:`DEFAULT_HELDOUT` fresh shell outliers
    (distance at least epsilon + :data:`DEFAULT_POWER_DELTA` from the true
    center, and at most ten times that) whose distance to the final center
    reaches the detector's current radius.
    """
    started = time.perf_counter()
    samples = generate(spec)[0]

    detector = Detector(spec.dim, mode, schedule)
    detector.scan(samples)

    heldout = gen_outliers(
        spec.truth, DEFAULT_HELDOUT, DEFAULT_POWER_DELTA,
        10.0 * (spec.truth.epsilon + DEFAULT_POWER_DELTA),
        _children(spec.seed, 4)[3])
    radius = detector.current_radius()
    dists = np.linalg.norm(heldout - detector.w, axis=1)
    power = float(np.mean(dists >= radius))

    audit_passed = None
    if isinstance(schedule, PowerDecay):
        audit_passed = audit_trace(detector).passed

    sigma_t = p_realized = None
    if spec.design is Design.MIXTURE:
        report = sigma_size(samples, spec.truth)
        p_realized, sigma_t = report.p_T, report.sigma_T

    return SweepRecord(
        seed=spec.seed,
        m_T=detector.m,
        power=power,
        final_w_error=float(np.linalg.norm(detector.w - spec.truth.w_bar)),
        final_radius=radius,
        p_realized=p_realized,
        sigma_T=sigma_t,
        audit_passed=audit_passed,
        wall_time=time.perf_counter() - started,
    )


@dataclass
class SweepResult:
    """A sweep's rows; equality compares the data, as the CSV carries it."""

    parameter: str
    grid: List[float]
    records: List[SweepRecord]
    checks: Dict[str, dict] = field(default_factory=dict, compare=False)
    metadata: Dict[str, object] = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return all(c.get("passed", False) for c in self.checks.values())

    def median(self, value: float, name: str = "m_T",
               variant: str = "") -> float:
        """Median of field ``name`` over the records at ``value`` and
        ``variant``, skipping unset (None) entries."""
        vals = [getattr(r, name) for r in self.records
                if r.value == value and r.variant == variant]
        return float(np.median([v for v in vals if v is not None]))


def _stream_seeds(base_seed: int, n_seeds: int) -> List[int]:
    root = SplitMix64(base_seed)
    return [root.next_u64() for _ in range(n_seeds)]


class _Point(NamedTuple):
    """A grid value, its ``spec(seed=...)`` factory, schedule and variants.

    A variant is (name, mode, bound); the bound is an int or a function of
    the run's :class:`SweepRecord`.
    """

    value: float
    spec: Callable[..., StreamSpec]
    schedule: GainSchedule
    variants: Sequence[Tuple[str, DetectorMode, object]]


def _ball(dim: int, c: float, epsilon: float, mu: float, count: int):
    """Ball-design truth with w_bar = c * ones(dim), and its spec factory."""
    truth = GroundTruth(np.full(dim, c, dtype=np.float64), epsilon, mu)
    return truth, partial(StreamSpec, dim=dim, count=count, truth=truth)


def _ball_point(value: float, dim: int, c: float, mu: float,
                count: int) -> _Point:
    """Ball-design point run by one fixed-radius variant under its cap."""
    truth, spec = _ball(dim, c, EPSILON, mu, count)
    bound = mistake_bound_realizable(truth.norm, mu, TAU, GAMMA0)
    return _Point(value, spec, _SCHEDULE, [("", FixedRadius(EPSILON), bound)])


def _run_grid(parameter: str, seeds: Sequence[int], points: Sequence[_Point],
              metadata: Dict[str, object]) -> SweepResult:
    """One record per (point, seed, variant), in that order, plus the
    per-run checks: bound dominance and audits (an unaudited run passes)."""
    records: List[SweepRecord] = []
    for point in points:
        for seed in seeds:
            spec = point.spec(seed=seed)
            for variant, mode, bound in point.variants:
                rec = run_detection_experiment(spec, mode, point.schedule)
                records.append(replace(
                    rec, value=point.value, variant=variant,
                    bound=bound(rec) if callable(bound) else bound))
    result = SweepResult(parameter, [point.value for point in points],
                         records, metadata={**metadata, "version": _version})
    violations = sum(r.bound is not None and r.m_T > r.bound for r in records)
    result.checks["bound_dominance"] = {"passed": not violations,
                                        "violations": violations,
                                        "runs": len(records)}
    result.checks["audits"] = {
        "passed": all(r.audit_passed in (None, True) for r in records)}
    return result


def _monotone(result: SweepResult, nonincreasing: bool) -> dict:
    """Per-point median m_T with at most one adjacent inversion."""
    medians = [result.median(value) for value in result.grid]
    inversions = sum(right > left if nonincreasing else right < left
                     for left, right in zip(medians, medians[1:]))
    return {"passed": inversions <= 1, "inversions": inversions,
            "medians": medians}


def sweep_margin(mus: Sequence[float] = (0.001, 0.01, 0.1),
                 n_seeds: int = 5, c: float = 2.0, count: int = DEFAULT_COUNT,
                 base_seed: int = DEFAULT_SEED) -> SweepResult:
    """Mistakes versus margin on the realizable ball w_bar = c * ones(2).

    Checks: per-run bound dominance and audits, nonincreasing medians
    (at most one adjacent inversion), and a log-log slope within
    [-2.5, -0.5] - the observed decay is far milder than the mu**-2 cap.
    """
    seeds = _stream_seeds(base_seed, n_seeds)
    result = _run_grid(
        "mu", seeds, [_ball_point(mu, 2, c, mu, count) for mu in mus],
        {"design": "ball", "dim": 2, "c": c, "epsilon": EPSILON,
         "count": count, "tau": TAU, "gamma0": GAMMA0, "seeds": seeds})
    result.checks["monotone"] = _monotone(result, nonincreasing=True)
    medians = result.checks["monotone"]["medians"]
    if len(mus) < 2:
        result.checks["loglog_slope"] = {"passed": True, "slope": math.nan,
                                         "note": "needs >= 2 grid points"}
    elif all(v > 0 for v in medians):
        slope = float(np.polyfit(np.log10(mus), np.log10(medians), 1)[0])
        result.checks["loglog_slope"] = {"passed": -2.5 <= slope <= -0.5,
                                         "slope": slope}
    else:
        result.checks["loglog_slope"] = {"passed": False, "slope": math.nan}
    return result


def sweep_center_scale(n_seeds: int = 5, count: int = DEFAULT_COUNT,
                       base_seed: int = DEFAULT_SEED) -> SweepResult:
    """Mistakes versus center scale c in (0.5, 1, 2, 4), with
    w_bar = c * ones(2) and margin 0.1.

    The wide margin keeps the runs travel-dominated so the growth in c is
    visible; at tighter margins the near-boundary re-adjustment alarms
    swamp the travel cost and flatten the curve.  Checks: per-run bound
    dominance and audits, nondecreasing medians, and growth from the
    smallest to the largest c below the cap's quartic rate (8**4).
    """
    cs = (0.5, 1.0, 2.0, 4.0)
    seeds = _stream_seeds(base_seed, n_seeds)
    result = _run_grid(
        "c", seeds, [_ball_point(c, 2, c, 0.1, count) for c in cs],
        {"design": "ball", "dim": 2, "mu": 0.1, "epsilon": EPSILON,
         "count": count, "tau": TAU, "gamma0": GAMMA0, "seeds": seeds})
    result.checks["monotone"] = _monotone(result, nonincreasing=False)
    medians = result.checks["monotone"]["medians"]
    if medians[0] > 0:
        # observed growth sits far below the quartic rate of the cap
        growth = medians[-1] / medians[0]
        quartic = (cs[-1] / cs[0]) ** 4
        result.checks["sub_quartic_growth"] = {
            "passed": growth < quartic, "growth": growth, "quartic": quartic}
    return result


def sweep_dimension(n_seeds: int = 5, count: int = DEFAULT_COUNT,
                    base_seed: int = DEFAULT_SEED) -> SweepResult:
    """Mistakes versus dimension n in (2, 10, 50, 100), with
    w_bar = ones(n) and margin 0.01.

    Checks: per-run bound dominance and audits, and nondecreasing medians.
    """
    seeds = _stream_seeds(base_seed, n_seeds)
    result = _run_grid(
        "n", seeds, [_ball_point(float(dim), dim, 1.0, 0.01, count)
                     for dim in (2, 10, 50, 100)],
        {"design": "ball", "c": 1.0, "mu": 0.01, "epsilon": EPSILON,
         "count": count, "tau": TAU, "gamma0": GAMMA0, "seeds": seeds})
    result.checks["monotone"] = _monotone(result, nonincreasing=False)
    return result


def sweep_epsilon(exponents: Sequence[int] = range(-7, 8),
                  n_seeds: int = 5, count: int = DEFAULT_COUNT,
                  base_seed: int = DEFAULT_SEED) -> SweepResult:
    """Radius insensitivity over the radii epsilon = 2**k, k in ``exponents``.

    Each seed draws its nuisance once, from its stream seed's fifth child
    generator: mu/epsilon log-uniform on [1e-3, 1e-1], c uniform on [0.5, 4]
    and n uniform on {2..20}.  At every radius w_bar = epsilon * c * ones(n)
    and the margin and gain scale are epsilon times theirs: unit-norm
    updates make the detector equivariant under that rescaling, exactly in
    floating point, so each seed must make equal mistakes at every radius.
    """
    seeds = _stream_seeds(base_seed, n_seeds)
    nuisance = {}
    for seed in seeds:
        rng = _children(seed, 5)[4]
        nuisance[seed] = (10.0 ** (-3.0 + 2.0 * rng.next_double()),
                          0.5 + 3.5 * rng.next_double(),
                          2 + int(rng.next_double() * 19.0))

    def point(eps: float) -> _Point:
        balls = {seed: _ball(dim, eps * c, eps, eps * mu, count)
                 for seed, (mu, c, dim) in nuisance.items()}
        caps = {seed: mistake_bound_realizable(truth.norm, truth.mu, TAU, eps)
                for seed, (truth, _) in balls.items()}
        return _Point(eps, lambda seed: balls[seed][1](seed=seed),
                      PowerDecay(gamma0=eps, tau=TAU),
                      [("", FixedRadius(eps), lambda rec: caps[rec.seed])])

    result = _run_grid(
        "epsilon", seeds, [point(math.ldexp(1.0, k)) for k in exponents],
        {"design": "ball", "count": count, "tau": TAU, "gamma0": "epsilon",
         "seeds": seeds, "nuisance": [dict(zip(("relative_mu", "c", "n"), v))
                                      for v in nuisance.values()]})
    m_T = [sorted({r.m_T for r in result.records if r.seed == seed})
           for seed in seeds]
    result.checks["equal_m_T"] = {"passed": all(len(m) <= 1 for m in m_T),
                                  "m_T": m_T}
    return result


def sweep_contamination(fractions: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                        n_seeds: int = 5, dim: int = 2,
                        count: int = DEFAULT_COUNT,
                        base_seed: int = DEFAULT_SEED) -> SweepResult:
    """Mistakes versus realized contamination on the mixture design, at
    margin 0.1 with outliers at distance at most 5 from the center.

    Centers follow the robustness-study family (2, 2, 0, ..., 0).  The
    check fits median m_T against median realized p_T by least squares and
    requires a positive slope with R**2 >= 0.8; dominance is checked
    against the sigma-corrected agnostic cap.
    """
    seeds = _stream_seeds(base_seed, n_seeds)
    center = np.zeros(dim, dtype=np.float64)
    center[:2] = 2.0
    truth = GroundTruth(center, EPSILON, 0.1)
    variants = [("", FixedRadius(EPSILON), lambda rec: mistake_bound_agnostic(
        truth.norm, truth.mu, TAU, GAMMA0, rec.sigma_T))]
    result = _run_grid(
        "contamination_fraction", seeds,
        [_Point(fraction,
                partial(StreamSpec, dim=dim, count=count, truth=truth,
                        design=Design.MIXTURE,
                        contamination_fraction=fraction,
                        outlier_radius_max=5.0),
                _SCHEDULE, variants)
         for fraction in fractions],
        {"design": "mixture", "dim": dim, "mu": truth.mu, "epsilon": EPSILON,
         "radius_max": 5.0, "count": count, "tau": TAU, "gamma0": GAMMA0,
         "seeds": seeds})
    xs = [result.median(f, "p_realized") for f in fractions]
    ys = [result.median(f) for f in fractions]
    if len(set(xs)) < 2:
        fit = {"passed": True, "slope": math.nan, "r2": math.nan,
               "note": "needs >= 2 distinct points"}
    else:
        slope, intercept = np.polyfit(xs, ys, 1)
        fitted = np.polyval([slope, intercept], xs)
        ss_res = float(np.sum((np.asarray(ys) - fitted) ** 2))
        ss_tot = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else math.nan
        fit = {"passed": bool(slope > 0 and r2 >= 0.8), "slope": float(slope),
               "r2": r2}
    result.checks["linear_fit"] = {**fit, "p_medians": xs, "m_medians": ys}
    return result


def compare_adaptive(mus: Sequence[float] = (0.01, 0.05, 0.1),
                     n_seeds: int = 5, count: int = DEFAULT_COUNT,
                     base_seed: int = DEFAULT_SEED) -> SweepResult:
    """Fixed-radius versus adaptive-radius detectors on identical streams,
    over margins mu with w_bar = ones(2).

    Variant "fixed" knows epsilon; variant "adaptive" estimates the radius
    as the reciprocal gain.  Checks: fixed median power exactly 1 at every
    grid point, adaptive median power at least 0.9, adaptive mistake
    counts within the loose diagnostic cap, and both variants' audits.
    """
    seeds = _stream_seeds(base_seed, n_seeds)
    points = []
    for mu in mus:
        truth, spec = _ball(2, 1.0, EPSILON, mu, count)
        points.append(_Point(mu, spec, _SCHEDULE, [
            ("fixed", FixedRadius(EPSILON),
             mistake_bound_realizable(truth.norm, mu, TAU, GAMMA0)),
            ("adaptive", AdaptiveRadius(),
             adaptive_mistake_bound(truth.norm, EPSILON, TAU, GAMMA0).bound),
        ]))
    result = _run_grid(
        "mu", seeds, points,
        {"design": "ball", "dim": 2, "c": 1.0, "epsilon": EPSILON,
         "count": count, "tau": TAU, "gamma0": GAMMA0, "seeds": seeds})
    fixed_power = [result.median(mu, "power", "fixed") for mu in mus]
    adaptive_power = [result.median(mu, "power", "adaptive") for mu in mus]
    result.checks["fixed_power"] = {
        "passed": all(p == 1.0 for p in fixed_power), "medians": fixed_power}
    result.checks["adaptive_power"] = {
        "passed": all(p >= 0.9 for p in adaptive_power),
        "medians": adaptive_power}
    return result


# The sweep-record columns in file order; the CSV prefixes the sweep
# parameter and the JSON appends the wall time.
_COLUMNS = ("value", "variant", "seed", "m_T", "power", "final_w_error",
            "bound", "p_realized")
_CSV_HEADER = ",".join(["parameter", *_COLUMNS])


def _fmt(value) -> str:
    # str of a float is its shortest round-trip repr
    return "" if value is None else str(value)


def emit_results(result: SweepResult, path) -> None:
    """Write a sweep result: JSON, with checks and metadata, when the
    suffix of ``path`` is .json in any case, else CSV of the data rows."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        text = json.dumps({
            "parameter": result.parameter,
            "grid": result.grid,
            "records": [{name: getattr(r, name)
                         for name in (*_COLUMNS, "wall_time")}
                        for r in result.records],
            "checks": result.checks,
            "metadata": result.metadata,
        })
        # JSON has no NaN or infinity: a non-finite float is written null
        text = json.dumps(json.loads(text, parse_constant=lambda _: None),
                          indent=2, allow_nan=False)
    else:
        text = "\n".join([_CSV_HEADER] + [
            ",".join([result.parameter,
                      *(_fmt(getattr(r, name)) for name in _COLUMNS)])
            for r in result.records])
    path.write_text(text + "\n", encoding="ascii")
