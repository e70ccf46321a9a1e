import math

import mpmath
import numpy as np
import pytest

from fado import bounds
from fado.bounds import (
    ContaminationReport,
    GroundTruth,
    ac_x_bound,
    ac_y_bound,
    adaptive_mistake_bound,
    audit_trace,
    gamma_sum_lower_bound,
    mistake_bound_agnostic,
    mistake_bound_realizable,
    power_delta_bound,
    riemann_zeta,
    sigma_admissibility_ratio,
    sigma_size,
)
from fado.detector import Detector, FixedRadius, PowerDecay

SQRT8 = 2.8284271247461903


def _search_grid(tau_lo, tau_hi, n=24):
    """Seeded (norm_w_bar, mu, tau, gamma0, sigma_T); every third sigma 0."""
    rng = np.random.default_rng(20250101)
    grid = []
    for k in range(n):
        w, mu, gamma0, sigma = (float(10 ** rng.uniform(lo, hi)) for lo, hi
                                in ((-1, 2), (-3, 0), (-1, 1), (-2, 4)))
        tau = float(rng.uniform(tau_lo, tau_hi))
        grid.append((w, mu, tau, gamma0, 0.0 if k % 3 == 0 else sigma))
    return grid


SEARCH_GRID = _search_grid(0.005, 0.45) + [(0.1, 100.0, 0.25, 1.0, 0.0)]


class TestRiemannZeta:
    def test_basel_value(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0,
                                                  rel=1e-14, abs=0)

    def test_tau_quarter_value(self):
        # independent high-precision summation oracle (mpmath, 40 digits)
        assert riemann_zeta(1.5) == pytest.approx(2.6123753486854883,
                                                  rel=1e-14, abs=0)

    @pytest.mark.parametrize("s", [1.0001, 1.01, 1.02, 1.1, 1.2, 1.4, 1.5,
                                   1.8, 2.5, 3.0, 4.0, 6.0])
    def test_against_mpmath_oracle(self, s):
        oracle = float(mpmath.zeta(mpmath.mpf(s)))
        assert riemann_zeta(s) == pytest.approx(oracle, rel=1e-14, abs=0)

    @pytest.mark.parametrize("s", [1.0, 0.5, -2.0])
    def test_divergent_domain_rejected(self, s):
        with pytest.raises(ValueError):
            riemann_zeta(s)


class TestACBounds:
    def test_y_bound_second_branch(self):
        # a=2, c=1: max(1, sqrt(3)+1)
        assert ac_y_bound(2.0, 1.0) == pytest.approx(2.7320508075688772,
                                                     abs=1e-12)

    def test_y_bound_first_branch(self):
        # a=8, c=0.1: max(4, 0.1*sqrt(8.01)+0.01) = 4
        assert ac_y_bound(8.0, 0.1) == 4.0

    def test_y_bound_vanishing_a(self):
        assert ac_y_bound(1e-30, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_x_bound_vanishing_a(self):
        assert ac_x_bound(1e-30, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_x_bound_closed_form(self):
        # a=2, c=1: branch1 = sqrt(4)+1 = 3, branch2 = 2*y* = 5.4641016...
        assert ac_x_bound(2.0, 1.0) == pytest.approx(5.464101615137754,
                                                     abs=1e-12)

    def test_x_bound_first_branch_active(self):
        # large a, small c: c*sqrt(2a)+a/2 dominates
        assert ac_x_bound(8.0, 0.1) == pytest.approx(
            0.1 * math.sqrt(16.0) + 4.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                     (1.0, -2.0)])
    def test_domain_errors(self, bad):
        a, c = bad
        with pytest.raises(ValueError):
            ac_y_bound(a, c)
        with pytest.raises(ValueError):
            ac_x_bound(a, c)

    def test_fixed_point_residual_on_log_grid(self):
        for a in np.logspace(-3, 3, 20):
            for c in np.logspace(-3, 3, 20):
                y_star = c * math.sqrt(a + c * c) + c * c
                assert abs(y_star - c * math.sqrt(a + 2.0 * y_star)) \
                    <= 1e-9 * y_star

    def test_sampled_premises_never_exceed_bounds(self):
        """Brute-force soundness: any (x, y) satisfying the premises obeys
        both closed-form bounds."""
        rng = np.random.default_rng(20240814)
        for a in np.logspace(-2, 2, 5):
            for c in np.logspace(-2, 2, 5):
                y_star = c * math.sqrt(a + c * c) + c * c
                y = -a / 2.0 + (y_star + a / 2.0) * rng.random(2000)
                x_cap = c * np.sqrt(a + 2.0 * y) - y
                assert (x_cap >= -1e-12).all()
                x = np.maximum(x_cap, 0.0) * rng.random(2000)
                assert (np.abs(y) <= ac_y_bound(a, c) * (1 + 1e-12)).all()
                assert (x <= ac_x_bound(a, c) * (1 + 1e-12)).all()


class TestGammaSumLowerBound:
    def test_single_mistake_value(self):
        # ((2**0.25 - 1) / 0.25), below the true partial sum 1
        val = gamma_sum_lower_bound(1, 0.25, 1.0)
        assert val == pytest.approx(0.7568284600108843, abs=1e-12)
        assert val <= 1.0

    def test_four_mistakes_below_true_sum(self):
        true_sum = math.fsum(k ** -0.75 for k in range(1, 5))
        assert gamma_sum_lower_bound(4, 0.25, 1.0) <= true_sum

    @pytest.mark.parametrize("tau,gamma0", [(0.05, 1.0), (0.25, 1.0),
                                            (0.45, 0.5), (0.25, 3.0)])
    def test_bracket_exhaustive_to_ten_thousand(self, tau, gamma0):
        ks = np.arange(1, 10_001, dtype=np.float64)
        partial = gamma0 * np.cumsum(ks ** -(0.5 + tau))
        for m in range(1, 10_001):
            lb = gamma_sum_lower_bound(m, tau, gamma0)
            assert lb <= partial[m - 1] <= lb + gamma0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_sum_lower_bound(0, 0.25, 1.0)
        with pytest.raises(ValueError):
            gamma_sum_lower_bound(5, 0.5, 1.0)
        with pytest.raises(ValueError):
            gamma_sum_lower_bound(5, 0.25, -1.0)


class TestMistakeBoundRealizable:
    def test_nonincreasing_in_mu(self):
        bounds = [mistake_bound_realizable(SQRT8, mu, 0.25, 1.0)
                  for mu in (0.001, 0.01, 0.1, 1.0, 10.0)]
        assert bounds == sorted(bounds, reverse=True)

    def test_nondecreasing_in_center_norm(self):
        bounds = [mistake_bound_realizable(w, 0.1, 0.25, 1.0)
                  for w in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert bounds == sorted(bounds)

    def test_gamma0_shape_is_u_curved(self):
        """Small gain scales admit *more* mistakes (each contributes little
        margin mass while the algebraic cap saturates), so the bound is not
        globally monotone in gamma0; it falls, bottoms out, then rises."""
        gammas = [0.0625, 0.25, 1.0, 4.0, 8.0]
        bounds = [mistake_bound_realizable(SQRT8, 0.1, 0.25, g)
                  for g in gammas]
        assert bounds[0] > bounds[1] > bounds[2] > bounds[3]
        assert bounds[4] > bounds[3]

    def test_reference_run_consistency(self):
        # a reported 23-mistake run at this design must sit below the cap
        assert 23 <= mistake_bound_realizable(SQRT8, 0.1, 0.25, 1.0)

    def test_finite_integer(self):
        b = mistake_bound_realizable(SQRT8, 0.1, 0.25, 1.0)
        assert isinstance(b, int) and 0 < b < 10 ** 12

    def test_boundary_resolves_to_larger_m(self):
        # bisection keeps m whenever mu * lb(m) ties the cap exactly
        b = mistake_bound_realizable(SQRT8, 0.1, 0.25, 1.0)
        cap = ac_x_bound(riemann_zeta(1.5), SQRT8)
        assert 0.1 * gamma_sum_lower_bound(b, 0.25, 1.0) <= cap
        assert 0.1 * gamma_sum_lower_bound(b + 1, 0.25, 1.0) > cap

    @pytest.mark.parametrize("w,mu,tau,gamma0,sigma", SEARCH_GRID)
    def test_search_brackets_the_cap_on_a_seeded_grid(self, w, mu, tau,
                                                      gamma0, sigma):
        energy = gamma0 * gamma0 * riemann_zeta(1.0 + 2.0 * tau)
        rhs = ac_x_bound(energy, w) + math.sqrt(energy * sigma)
        m = mistake_bound_agnostic(w, mu, tau, gamma0, sigma)
        if m > 0:
            assert mu * gamma_sum_lower_bound(m, tau, gamma0) <= rhs
        assert mu * gamma_sum_lower_bound(m + 1, tau, gamma0) > rhs
        assert mistake_bound_realizable(w, mu, tau, gamma0) == \
            mistake_bound_agnostic(w, mu, tau, gamma0, 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mistake_bound_realizable(0.0, 0.1, 0.25, 1.0)
        with pytest.raises(ValueError):
            mistake_bound_realizable(1.0, 0.0, 0.25, 1.0)

    def test_hundred_seeded_realizable_streams_respect_cap(self):
        from fado.streams import StreamSpec, gen_realizable_stream
        truth = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.1)
        cap = mistake_bound_realizable(truth.norm, 0.1, 0.25, 1.0)
        for seed in range(100):
            spec = StreamSpec(dim=2, count=2000, truth=truth, seed=seed)
            samples, _ = gen_realizable_stream(spec)
            det = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
            det.run_stream(samples)
            assert det.m <= cap


class TestPowerDeltaBound:
    def test_strictly_decreasing_on_practical_range(self):
        ms = [1, 2, 3, 5, 10, 23, 100, 1_000, 10_000, 100_000]
        deltas = [power_delta_bound(SQRT8, m, 0.25, 1.0) for m in ms]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_reference_scale_value_finite(self):
        delta = power_delta_bound(SQRT8, 23, 0.25, 1.0)
        assert 0.0 < delta < 100.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            power_delta_bound(SQRT8, 0, 0.25, 1.0)

    def test_guaranteed_flagging_empirically(self):
        """Outliers at distance epsilon + delta* from the true center are
        always flagged after a realizable run."""
        from fado.streams import SplitMix64, StreamSpec, gen_outliers, \
            gen_realizable_stream
        truth = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.1)
        spec = StreamSpec(dim=2, count=2000, truth=truth, seed=3)
        samples, _ = gen_realizable_stream(spec)
        det = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        det.run_stream(samples)
        delta = power_delta_bound(truth.norm, det.m, 0.25, 1.0)
        rng = SplitMix64(99)
        shell = gen_outliers(2, truth, 2000, delta, 2.0 * (1.0 + delta), rng)
        dists = np.linalg.norm(shell - det.w, axis=1)
        assert (dists >= 1.0).all()


class TestSigmaSize:
    def _truth(self, mu=0.2):
        return GroundTruth(np.zeros(2), 1.0, mu)

    def test_all_inside_margin_ball(self):
        truth = self._truth()
        pts = np.array([[0.1, 0.0], [0.0, -0.5], [0.3, 0.3]])
        rep = sigma_size(pts, truth)
        assert rep == ContaminationReport(0, 1.0, 0.0)

    def test_single_excess_point(self):
        # distance (eps - mu) + 0.5 = 1.3 >= eps: counted, sigma = 0.25
        truth = self._truth(mu=0.2)
        pts = np.array([[1.3, 0.0], [0.0, 0.1]])
        rep = sigma_size(pts, truth)
        assert rep.p_T == 1
        assert rep.r_T == pytest.approx(0.5)
        assert rep.sigma_T == pytest.approx(0.25, abs=1e-12)

    def test_excess_below_epsilon_not_counted_in_p(self):
        # margin violation without an epsilon violation: sigma > 0, p = 0
        truth = self._truth(mu=0.4)
        rep = sigma_size(np.array([[0.9, 0.0]]), truth)
        assert rep.p_T == 0
        assert rep.sigma_T == pytest.approx(0.09, abs=1e-12)

    def test_empty_stream_convention(self):
        rep = sigma_size(np.empty((0, 2)), self._truth())
        assert rep == ContaminationReport(0, 1.0, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sigma_size(np.ones((3, 4)), self._truth())


class TestMistakeBoundAgnostic:
    def test_sigma_zero_reduces_to_realizable(self):
        assert mistake_bound_agnostic(SQRT8, 0.1, 0.25, 1.0, 0.0) == \
            mistake_bound_realizable(SQRT8, 0.1, 0.25, 1.0)

    def test_nondecreasing_in_sigma(self):
        bounds = [mistake_bound_agnostic(SQRT8, 0.1, 0.25, 1.0, s)
                  for s in (0.0, 1.0, 100.0, 10_000.0)]
        assert bounds == sorted(bounds)

    def test_admissibility_ratio(self):
        assert sigma_admissibility_ratio(2.0, 512.0) == pytest.approx(2.0)


class TestAuditTrace:
    def test_fresh_trace_passes_with_zero_margins(self):
        det = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        audit = audit_trace(det.trace, 0.25, 1.0)
        assert audit.passed
        assert audit.inner_margin == 0.0
        assert audit.telescoping_residual == 0.0

    def test_random_run_passes(self):
        rng = np.random.default_rng(8)
        det = Detector(4, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        det.run_stream(rng.normal(size=(3000, 4)) * 4.0)
        assert det.m > 0
        audit = audit_trace(det.trace, 0.25, 1.0)
        assert audit.passed
        assert audit.energy_margin >= 0.0

    def test_outliers_first_ordering_passes(self):
        rng = np.random.default_rng(9)
        normals = rng.normal(size=(500, 3)) * 0.05 + 2.0
        outliers = rng.normal(size=(100, 3)) * 10.0
        stream = np.vstack([outliers, normals])
        det = Detector(3, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        det.run_stream(stream)
        audit = audit_trace(det.trace, 0.25, 1.0)
        assert audit.inner_ok and audit.telescoping_ok and audit.energy_ok

    def test_reports_never_raise_on_violating_sums(self):
        from fado.detector import DiagnosticsTrace
        doctored = DiagnosticsTrace(sum_d_gamma_sq=1.0, sum_d_gamma=1.0,
                                    sum_d_gamma_vw=-10.0, w_norm_sq=5.0)
        audit = audit_trace(doctored, 0.25, 1.0)
        assert not audit.passed
        assert not audit.inner_ok and not audit.telescoping_ok


class TestAdaptiveDiagnosticBound:
    def test_report_shape(self):
        report = adaptive_mistake_bound(math.sqrt(2.0), 1.0, 0.25, 1.0)
        assert report.loose is True
        assert report.bound >= int(report.ac_component) - 1
        assert report.first_solvable_m >= 1

    def test_caps_adaptive_runs(self):
        from fado.detector import AdaptiveRadius
        from fado.streams import StreamSpec, gen_realizable_stream
        truth = GroundTruth(np.array([1.0, 1.0]), 1.0, 0.05)
        report = adaptive_mistake_bound(truth.norm, 1.0, 0.25, 1.0)
        for seed in (1, 2, 3):
            spec = StreamSpec(dim=2, count=3000, truth=truth, seed=seed)
            samples, _ = gen_realizable_stream(spec)
            det = Detector(2, AdaptiveRadius(), PowerDecay(1.0, 0.25))
            det.run_stream(samples)
            assert det.m <= report.bound

    @pytest.mark.parametrize("w,epsilon,tau,gamma0", [
        (w, 10 ** (k % 5 - 2), tau, gamma0)
        for k, (w, _, tau, gamma0, _) in enumerate(SEARCH_GRID)])
    def test_first_solvable_m_is_the_first(self, w, epsilon, tau, gamma0):
        p, scale = 0.5 + tau, 2.0 * epsilon * gamma0

        def solvable(m):
            return bounds._split_equation_min(float(m), p) <= m / scale

        first = adaptive_mistake_bound(w, epsilon, tau,
                                       gamma0).first_solvable_m
        assert solvable(first)
        assert first == 1 or not solvable(first - 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            adaptive_mistake_bound(0.0, 1.0, 0.25, 1.0)
        with pytest.raises(ValueError):
            adaptive_mistake_bound(1.0, 0.0, 0.25, 1.0)


class TestGroundTruth:
    def test_margin_must_leave_room(self):
        with pytest.raises(ValueError):
            GroundTruth(np.ones(2), 1.0, 1.0)

    def test_mu_zero_allowed(self):
        truth = GroundTruth(np.ones(2), 1.0, 0.0)
        assert truth.inner_radius == 1.0

    def test_norm_and_dim(self):
        truth = GroundTruth(np.array([3.0, 4.0]), 2.0, 0.5)
        assert truth.norm == pytest.approx(5.0)
        assert truth.dim == 2
