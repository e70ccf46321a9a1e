"""Executable mistake/power bounds and trace auditors.

The detector's guarantees are chains of three closed forms: the zeta-capped
gain energy, an integral lower bound on the accumulated gain mass, and an
algebraic bound on any quantity that is dominated by a constant plus
the square root of an affine function of itself.  This module exposes each
link with explicit constants, the bound compositions built from them, and
auditors that check the unconditional inequalities against a detector's
diagnostics trace.

zeta(1+2*tau) is an Euler-Maclaurin sum of 18 terms, exact to a few ulps,
and each integer cap comes from one search, :func:`_least_m`, over a
monotone closed form.

All functions are pure; everything is safe for unrestricted parallel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DiagnosticsTrace, as_vector

__all__ = [
    "riemann_zeta",
    "ac_y_bound",
    "ac_x_bound",
    "gamma_sum_lower_bound",
    "mistake_bound_realizable",
    "power_delta_bound",
    "mistake_bound_agnostic",
    "adaptive_mistake_bound",
    "AdaptiveBoundReport",
    "sigma_admissibility_ratio",
    "GroundTruth",
    "ContaminationReport",
    "sigma_size",
    "TraceAudit",
    "audit_trace",
]

# B_2j / (2j)! for j = 1..7, the Euler-Maclaurin correction coefficients.
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600)


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1, to within a few ulps (DLMF 25.2.9).

    Euler-Maclaurin summation at N = 10: the terms k**-s for k < N, the
    tail N**(1-s)/(s-1) + N**-s/2, and seven Bernoulli corrections
    B_2j/(2j)! * s(s+1)...(s+2j-2) * N**(1-s-2j).  The first omitted
    correction is below 1e-16 relative for every s > 1, and a call takes
    microseconds at any s, as s -> 1+ too.
    """
    s = float(s)
    if not (s > 1.0 and math.isfinite(s)):
        raise ValueError("zeta is summed only for s > 1")
    n = 10.0
    terms = [k ** -s for k in range(1, 10)]
    terms += [n ** (1.0 - s) / (s - 1.0), 0.5 * n ** -s]
    rising = s * n ** (-s - 1.0)  # s(s+1)...(s+2j-2) * N**(1-s-2j)
    for j, coeff in enumerate(_BERNOULLI, start=1):
        terms.append(coeff * rising)
        rising = rising * (s + 2 * j - 1) / n * (s + 2 * j) / n
    return math.fsum(terms)


def _check_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a positive finite number")


def _check_ac_args(a: float, c: float) -> None:
    _check_positive("a", a)
    _check_positive("c", c)


def ac_y_bound(a: float, c: float) -> float:
    """Bound on |y| when x + y <= c*sqrt(a + 2y), y >= -a/2, x >= 0.

    The second branch is the positive root of y = c*sqrt(a + 2y).
    """
    _check_ac_args(a, c)
    return max(a / 2.0, c * math.sqrt(a + c * c) + c * c)


def ac_x_bound(a: float, c: float) -> float:
    """Bound on x under the same premises as :func:`ac_y_bound`.

    Evaluates x <= c*sqrt(a + 2|y|) + |y| at both candidate |y| values.
    """
    _check_ac_args(a, c)
    y_star = c * math.sqrt(a + c * c) + c * c
    branch1 = c * math.sqrt(2.0 * a) + a / 2.0
    branch2 = c * math.sqrt(a + 2.0 * y_star) + y_star
    return max(branch1, branch2)


def _check_schedule_args(tau: float, gamma0: float) -> None:
    if not (0.0 < tau < 0.5):
        raise ValueError("tau must lie strictly between 0 and 1/2")
    _check_positive("gamma0", gamma0)


def _gain_energy(tau: float, gamma0: float) -> float:
    """gamma0**2 * zeta(1+2*tau), the cap on a power-decay run's gain energy."""
    _check_schedule_args(tau, gamma0)
    energy = gamma0 * gamma0 * riemann_zeta(1.0 + 2.0 * tau)
    if not math.isfinite(energy):
        raise ValueError(f"gain energy overflows float range at "
                         f"gamma0 = {gamma0!r}")
    return energy


def gamma_sum_lower_bound(m: int, tau: float, gamma0: float = 1.0) -> float:
    """Integral lower bound on the accumulated gain after m mistakes.

    gamma0 * ((m+1)**(1/2-tau) - 1) / (1/2 - tau) never exceeds the true
    partial sum gamma0 * sum_{k<=m} k**-(1/2+tau); it trails it by at most
    gamma0.  This is the explicit stand-in for the otherwise unnamed
    universal constant in the gain-mass growth statement.
    """
    _check_schedule_args(tau, gamma0)
    if m < 1:
        raise ValueError("m must be at least 1")
    q = 0.5 - tau
    return gamma0 * ((float(m) + 1.0) ** q - 1.0) / q


def _least_m(holds) -> int:
    """Smallest m >= 1 at which the monotone predicate ``holds`` is true.

    Doubles m until ``holds`` turns true, then bisects the last doubling.
    Raises OverflowError when no m up to 2**400 qualifies, a parameter
    pathology (a vanishing margin, an overflowing cap).
    """
    hi = 1
    while not holds(hi):
        hi *= 2
        if hi > 2 ** 400:
            raise OverflowError("mistake bound search diverged")
    lo = hi // 2  # holds(hi); not holds(lo), or lo == 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def mistake_bound_realizable(norm_w_bar: float, mu: float, tau: float = 0.25,
                             gamma0: float = 1.0) -> int:
    """Mistake cap for margin-realizable streams under the decaying gain.

    Largest m such that mu * gamma_sum_lower_bound(m) stays within the
    algebraic x-bound evaluated at a = gamma0**2 * zeta(1+2*tau) and
    c = norm_w_bar.  Any run on a stream whose points all sit within
    epsilon - mu of a fixed center of that norm makes at most this many
    mistakes, at every prefix.
    """
    return mistake_bound_agnostic(norm_w_bar, mu, tau, gamma0, 0.0)


def power_delta_bound(norm_w_bar: float, m_T: int, tau: float = 0.25,
                      gamma0: float = 1.0) -> float:
    """Excess distance guaranteeing detection after m_T mistakes.

    delta* = x_bound(gamma0**2 * zeta(1+2*tau) + c'**2, norm_w_bar) / c'
    with c' = m_T**((1-2*tau)/4).  A transaction farther than
    epsilon + delta* from the realizable center is always flagged.
    Decreasing in m_T throughout the practically reachable range; once
    c'**2 dwarfs the zeta term (m_T beyond any realizable run) the ratio
    turns back upward, which is exactly where the chain's a = O(c^2)
    premise stops holding.
    """
    _check_positive("norm_w_bar", norm_w_bar)
    if m_T < 1:
        raise ValueError("m_T must be at least 1")
    energy = _gain_energy(tau, gamma0)
    c_prime = float(m_T) ** ((1.0 - 2.0 * tau) / 4.0)
    a = energy + c_prime * c_prime
    return ac_x_bound(a, norm_w_bar) / c_prime


def mistake_bound_agnostic(norm_w_bar: float, mu: float, tau: float,
                           gamma0: float, sigma_T: float) -> int:
    """Mistake cap when a contaminated prefix has fault mass sigma_T.

    The margin mass is reduced by sqrt(gamma0**2 * zeta(1+2*tau) * sigma_T)
    (the Cauchy-Schwarz coupling of gain energy and fault sizes); with
    sigma_T = 0 this reduces to :func:`mistake_bound_realizable`.
    """
    _check_positive("norm_w_bar", norm_w_bar)
    _check_positive("mu", mu)
    if not (sigma_T >= 0 and math.isfinite(sigma_T)):
        raise ValueError("sigma_T must be a nonnegative finite number")
    zeta_energy = _gain_energy(tau, gamma0)
    x_max = ac_x_bound(zeta_energy, norm_w_bar)
    rhs = x_max + math.sqrt(zeta_energy * sigma_T)
    if not math.isfinite(rhs):
        name, value = (("norm_w_bar", norm_w_bar) if math.isinf(x_max)
                       else ("sigma_T", sigma_T))
        raise ValueError(f"mistake cap overflows float range at "
                         f"{name} = {value!r}")
    # the largest m with mu * gamma_sum_lower_bound(m) <= rhs; a tie keeps
    # m, the conservative side
    return _least_m(
        lambda m: mu * gamma_sum_lower_bound(m, tau, gamma0) > rhs) - 1


def sigma_admissibility_ratio(norm_w_bar: float, sigma_T: float) -> float:
    """sigma_T / norm_w_bar**8, reported (not enforced) for the agnostic cap."""
    _check_positive("norm_w_bar", norm_w_bar)
    return sigma_T / norm_w_bar ** 8


@dataclass(frozen=True)
class AdaptiveBoundReport:
    """Diagnostic mistake cap for the adaptive-radius variant.

    ``loose`` is always True: the epsilon-correction step of the chain picks
    an interior split point implicitly, and this executable version solves
    that split equation numerically, keeping every slack in place.
    """

    bound: int
    ac_component: float
    first_solvable_m: int
    loose: bool = True


def _split_equation_min(m: float, p: float) -> float:
    """min over x in (0, m] of g(x) = x + (m - x) * x**-p (g is convex)."""
    def dg(x: float) -> float:
        return 1.0 - x ** -p - p * (m - x) * x ** (-p - 1.0)

    if dg(m) <= 0.0:
        return float(m)  # minimum at the right edge: g(m) = m
    lo, hi = min(1e-9, m / 2), m
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dg(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return x + (m - x) * x ** -p


def adaptive_mistake_bound(norm_w_bar: float, epsilon: float,
                           tau: float = 0.25,
                           gamma0: float = 1.0) -> AdaptiveBoundReport:
    """Loose diagnostic cap on adaptive-radius mistakes.

    For mistake counts where the split equation
    x + (m - x)/x**(1/2+tau) = m / (2*epsilon*gamma0) admits a root, the
    chain forces m <= 2 * x_bound(gamma0**2 * zeta(1+2*tau), norm_w_bar);
    counts below the first such root escape the argument and are admitted
    into the cap unchallenged.
    """
    _check_positive("norm_w_bar", norm_w_bar)
    _check_positive("epsilon", epsilon)
    a = _gain_energy(tau, gamma0)
    p = 0.5 + tau
    scale = 2.0 * epsilon * gamma0
    ac_cap = 2.0 * ac_x_bound(a, norm_w_bar)

    first = _least_m(
        lambda m: _split_equation_min(float(m), p) <= m / scale)
    bound = max(int(math.floor(ac_cap)), first - 1)
    return AdaptiveBoundReport(bound=bound, ac_component=ac_cap,
                               first_solvable_m=first)


@dataclass(eq=False)
class GroundTruth:
    """Generator-side truth: center, radius and margin."""

    w_bar: np.ndarray
    epsilon: float
    mu: float = 0.0

    def __post_init__(self):
        self.w_bar = as_vector(self.w_bar, name="w_bar")
        _check_positive("epsilon", self.epsilon)
        if not (self.mu >= 0 and math.isfinite(self.mu)):
            raise ValueError("mu must be a nonnegative finite number")
        if self.mu > 0 and self.mu >= self.epsilon:
            raise ValueError("mu must be smaller than epsilon (empty ball otherwise)")

    @property
    def dim(self) -> int:
        return self.w_bar.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.w_bar))

    @property
    def inner_radius(self) -> float:
        return self.epsilon - self.mu


@dataclass(frozen=True)
class ContaminationReport:
    """Realizability violation counts and sizes over a finite stream."""

    p_T: int
    r_T: float
    sigma_T: float


def sigma_size(stream, truth: GroundTruth) -> ContaminationReport:
    """Count and size realizability violations of a stream against a truth.

    p_T counts points at distance >= epsilon from the center; sigma_T sums
    the squared positive excess over the margin radius epsilon - mu.  An
    empty stream reports (0, 1.0, 0.0) by convention.
    """
    samples = np.asarray(stream, dtype=np.float64)
    if samples.size == 0:
        return ContaminationReport(p_T=0, r_T=1.0, sigma_T=0.0)
    if samples.ndim == 1:
        samples = samples[None, :]
    if samples.shape[1] != truth.dim:
        raise ValueError(
            f"stream dimension {samples.shape[1]} does not match truth dimension {truth.dim}"
        )
    dists = np.linalg.norm(samples - truth.w_bar, axis=1)
    p_t = int(np.count_nonzero(dists >= truth.epsilon))
    excess = np.maximum(dists - truth.inner_radius, 0.0)
    sigma_t = float(np.sum(excess * excess))
    return ContaminationReport(p_T=p_t, r_T=1.0 - p_t / samples.shape[0],
                               sigma_T=sigma_t)


@dataclass(frozen=True)
class TraceAudit:
    """Outcome of the unconditional trace inequalities; reports, never raises."""

    inner_ok: bool
    inner_margin: float
    energy_ok: bool
    energy_margin: float
    telescoping_ok: bool
    telescoping_residual: float

    @property
    def passed(self) -> bool:
        return self.inner_ok and self.energy_ok and self.telescoping_ok


_AUDIT_RTOL = 1e-9


def audit_trace(trace: DiagnosticsTrace, tau: float,
                gamma0: float = 1.0) -> TraceAudit:
    """Check a power-decay run's trace against its three inequalities.

    (i) the gain-weighted inner products cannot undercut minus half the
    gain energy; (ii) the gain energy stays within gamma0**2 * zeta(1+2*tau);
    (iii) the telescoped center norm matches the accumulated sums to 1e-9
    relative.  Margins are signed (nonnegative = satisfied with room).
    """
    energy_cap = _gain_energy(tau, gamma0)
    gg = trace.sum_d_gamma_sq
    gvw = trace.sum_d_gamma_vw
    wn = trace.w_norm_sq

    inner_margin = gvw + 0.5 * gg
    inner_ok = inner_margin >= -_AUDIT_RTOL * max(1.0, gg)

    energy_margin = energy_cap - gg
    energy_ok = energy_margin >= -_AUDIT_RTOL * max(1.0, energy_cap)

    residual = abs(wn - (gg + 2.0 * gvw))
    telescoping_ok = residual <= _AUDIT_RTOL * max(1.0, abs(wn))

    return TraceAudit(inner_ok=inner_ok, inner_margin=inner_margin,
                      energy_ok=energy_ok, energy_margin=energy_margin,
                      telescoping_ok=telescoping_ok,
                      telescoping_residual=residual)
