import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fado.detector import (
    AdaptiveRadius,
    Constant,
    Detector,
    FixedRadius,
    PowerDecay,
    as_vector,
    gain_value,
)

from conftest import run_with_norm_audit

SQRT8 = 2.8284271247461903
INV_SQRT2 = 0.7071067811865475


class TestConstruction:
    def test_fresh_state(self):
        det = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        assert det.m == 0 and det.t == 0
        assert np.array_equal(det.w, np.zeros(2))
        assert det.trace.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_case_study_scale_configuration(self):
        det = Detector(160_000, FixedRadius(100.0), Constant(1.0))
        assert det.dim == 160_000
        assert det.current_radius() == 100.0

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            Detector(0, FixedRadius(1.0), PowerDecay(1.0, 0.25))

    @pytest.mark.parametrize("schedule", [
        lambda: PowerDecay(gamma0=0.0, tau=0.25),
        lambda: PowerDecay(gamma0=1.0, tau=0.0),
        lambda: PowerDecay(gamma0=1.0, tau=0.5),
        lambda: PowerDecay(gamma0=-1.0, tau=0.25),
        lambda: Constant(gamma=0.0),
        lambda: Constant(gamma=math.inf),
    ])
    def test_bad_schedules_rejected(self, schedule):
        with pytest.raises(ValueError):
            schedule()

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            FixedRadius(-0.5)

    def test_epsilon_zero_allowed(self):
        assert FixedRadius(0.0).epsilon == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown detector mode: "):
            Detector(2, object(), PowerDecay(1.0, 0.25))

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="^unknown gain schedule: "):
            Detector(2, FixedRadius(1.0), object())

    def test_as_vector_rejects_an_empty_sequence(self):
        with pytest.raises(ValueError, match="at least one entry$"):
            as_vector([])


class TestGainValue:
    def test_power_decay_first_mistake(self):
        assert gain_value(PowerDecay(1.0, 0.25), 1) == 1.0

    def test_power_decay_fourth_mistake(self):
        assert gain_value(PowerDecay(1.0, 0.25), 4) == \
            pytest.approx(0.3535533905932738, abs=1e-12)

    def test_constant_ignores_count(self):
        assert gain_value(Constant(1.0), 17) == 1.0

    def test_power_decay_zero_count_rejected(self):
        with pytest.raises(ValueError):
            gain_value(PowerDecay(1.0, 0.25), 0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError,
                           match="^mistake count must be nonnegative$"):
            gain_value(PowerDecay(), -1)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(TypeError, match="^unknown gain schedule: "):
            gain_value(object(), 1)

    def test_gamma0_scales(self):
        assert gain_value(PowerDecay(2.0, 0.25), 4) == \
            pytest.approx(2.0 * 0.3535533905932738, rel=1e-15)

    def test_power_decay_past_a_million_mistakes(self):
        assert gain_value(PowerDecay(2.0, 0.25), 10**6) == 2.0 * 1e6 ** -0.75


class TestStep:
    def test_alarm_update_hand_computed(self):
        det = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        out = det.step([2.0, 2.0])
        assert out.alarm
        assert out.distance == pytest.approx(SQRT8, abs=1e-12)
        assert out.gain_applied == 1.0
        assert det.m == 1
        np.testing.assert_allclose(det.w, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_inside_ball_no_alarm(self):
        det = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        det.w[:] = [2.0, 2.0]
        out = det.step([2.3, 2.4])
        assert not out.alarm
        assert out.distance == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_array_equal(det.w, [2.0, 2.0])
        assert det.m == 0 and det.t == 1

    def test_boundary_counts_as_alarm(self):
        det = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        out = det.step([0.6, 0.8])
        assert out.alarm and out.distance == 1.0
        np.testing.assert_allclose(det.w, [0.6, 0.8], atol=1e-15)

    def test_adaptive_first_step(self):
        det = Detector(2, AdaptiveRadius(), PowerDecay(0.5, 0.25))
        assert det.current_radius() == pytest.approx(2.0, rel=1e-15)
        out = det.step([3.0, 0.0])
        assert out.alarm
        assert out.threshold == pytest.approx(2.0, rel=1e-15)
        assert out.gain_applied == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(det.w, [0.5, 0.0], atol=1e-15)

    def test_adaptive_radius_grows_with_mistakes(self):
        det = Detector(2, AdaptiveRadius(), PowerDecay(1.0, 0.25))
        assert det.current_radius() == pytest.approx(1.0)
        det.m = 3
        assert det.current_radius() == pytest.approx(2.8284271247461903,
                                                     abs=1e-10)

    def test_dimension_mismatch(self):
        det = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        with pytest.raises(ValueError):
            det.step([1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        det = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        with pytest.raises(ValueError):
            det.step([1.0, math.nan])
        with pytest.raises(ValueError):
            det.step([math.inf, 0.0])

    def test_epsilon_zero_distance_zero_alarm_without_update(self):
        det = Detector(2, FixedRadius(0.0), PowerDecay(1.0, 0.25))
        out = det.step([0.0, 0.0])
        assert out.alarm
        assert out.gain_applied == 0.0
        assert det.m == 1
        np.testing.assert_array_equal(det.w, [0.0, 0.0])
        assert det.trace.as_tuple() == (0.0, 0.0, 0.0, 0.0)


class TestRunStream:
    def test_empty_stream(self):
        det = Detector(3, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        assert det.run_stream([]) == []
        assert det.t == 0 and det.m == 0

    def test_copies_of_origin_never_alarm(self):
        det = Detector(3, FixedRadius(0.5), PowerDecay(1.0, 0.25))
        outcomes = det.run_stream([np.zeros(3)] * 3)
        assert not any(o.alarm for o in outcomes)
        assert det.m == 0 and det.t == 3

    def test_mistake_count_equals_alarms(self):
        rng = np.random.default_rng(7)
        det = Detector(4, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        outcomes = det.run_stream(rng.normal(size=(200, 4)) * 3.0)
        assert det.m == sum(o.alarm for o in outcomes)
        assert det.t == 200

    def test_error_reports_offending_index(self):
        det = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        stream = [np.ones(2), np.array([1.0, math.nan])]
        with pytest.raises(ValueError, match="stream item 1"):
            det.run_stream(stream)


class TestOverflow:
    """Trace sums change only in the alarm update, so its one guard stops a
    step loop and a scan alike, before a checkpoint could hold the sums."""

    def _rows(self):
        # five rows at the center, then alarms from the sixth row on
        rng = np.random.default_rng(3)
        return np.vstack([np.zeros((5, 10)),
                          rng.normal(size=(3000, 10)) + 2.0])

    def test_step_loop_names_the_step_that_overflowed(self):
        det = Detector(10, FixedRadius(1.0), PowerDecay(1e160, 0.25))
        with pytest.raises(OverflowError) as info:
            for y in self._rows():
                det.step(y)
        assert str(info.value) == (
            "detector state overflows float range by step 6 under "
            "PowerDecay(gamma0=1e+160, tau=0.25)")

    def test_scan_names_the_step_that_overflowed(self):
        det = Detector(10, FixedRadius(1.0), PowerDecay(1e160, 0.25))
        with pytest.raises(OverflowError) as info:
            det.scan(self._rows())
        assert str(info.value) == (
            "detector state overflows float range by step 6 under "
            "PowerDecay(gamma0=1e+160, tau=0.25)")

    # the first row is finite but its squared distance is not: its alarm
    # would pay a gain for a zero step and leave the center where it was
    INF_DISTANCE_ROWS = [[1e200, 1e200], [0.5, 0.0], [3.0, 0.0]]

    def test_step_refuses_an_infinite_distance_before_the_alarm(self):
        det = Detector(2, FixedRadius(1.0), PowerDecay())
        # step keeps no errstate, so the overflow would warn
        with np.errstate(over="ignore"), \
                pytest.raises(OverflowError) as info:
            det.step(self.INF_DISTANCE_ROWS[0])
        assert str(info.value) == \
            "distance to the center overflows float range by step 1"
        assert det.m == 0 and not det.w.any()
        assert det.trace.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_scan_refuses_an_infinite_distance(self):
        det = Detector(2, FixedRadius(1.0), PowerDecay())
        with pytest.raises(OverflowError, match="^distance to the center "
                           "overflows float range by step 1$"):
            det.scan(self.INF_DISTANCE_ROWS)
        assert det.m == 0


class TestInvariants:
    """The unconditional per-step identities, on adversarial float streams."""

    def _random_stream(self, seed, n, count, scale):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(count, n)) * scale

    @pytest.mark.parametrize("mode", [FixedRadius(1.0), AdaptiveRadius()])
    @pytest.mark.parametrize("seed,scale", [(0, 1.0), (1, 50.0), (2, 1e-3)])
    def test_telescoping_and_inner_bound(self, mode, seed, scale):
        det = Detector(5, mode, PowerDecay(1.0, 0.25))
        samples = self._random_stream(seed, 5, 2000, scale)
        _, worst, inner_min = run_with_norm_audit(det, samples)
        assert worst <= 1e-9
        assert inner_min >= -1e-9

    def test_unit_update_directions(self):
        det = Detector(3, FixedRadius(0.5), PowerDecay(1.0, 0.25))
        rng = np.random.default_rng(3)
        for row in rng.normal(size=(500, 3)):
            w_before = det.w.copy()
            out = det.step(row)
            if out.alarm and out.gain_applied > 0:
                v = (det.w - w_before) / out.gain_applied
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_no_alarm_leaves_state_untouched(self):
        det = Detector(2, FixedRadius(10.0), PowerDecay(1.0, 0.25))
        rng = np.random.default_rng(4)
        det.step(rng.normal(size=2) * 20)  # one alarm to make state nontrivial
        snapshot = (det.w.copy(), det.m, det.trace.as_tuple())
        for row in rng.normal(size=(50, 2)):
            out = det.step(row)  # all inside the huge radius now
            assert not out.alarm
        assert np.array_equal(det.w, snapshot[0])
        assert det.m == snapshot[1]
        assert det.trace.as_tuple() == snapshot[2]

    def test_determinism_bitwise(self):
        samples = self._random_stream(9, 4, 300, 5.0)
        runs = []
        for _ in range(2):
            det = Detector(4, FixedRadius(1.0), PowerDecay(1.0, 0.25))
            outcomes = det.run_stream(samples)
            runs.append((det.w.tobytes(), det.trace.as_tuple(),
                         [(o.alarm, o.distance, o.gain_applied)
                          for o in outcomes]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("lam", [0.5, 4.0])
    def test_scale_free_power_of_two_exact(self, lam):
        """Scaling inputs, epsilon, and the gain scale by a power of two
        scales the center exactly and preserves the alarm sequence."""
        samples = self._random_stream(11, 3, 400, 2.0)
        base = Detector(3, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        scaled = Detector(3, FixedRadius(lam), PowerDecay(lam, 0.25))
        base_out = base.run_stream(samples)
        scaled_out = scaled.run_stream(samples * lam)
        assert [o.alarm for o in base_out] == [o.alarm for o in scaled_out]
        assert np.array_equal(scaled.w, base.w * lam)

    def test_scale_free_generic_lambda_alarm_sequence(self):
        lam = 3.0
        samples = self._random_stream(12, 2, 400, 2.0)
        base = Detector(2, FixedRadius(1.0), PowerDecay(1.0, 0.25))
        scaled = Detector(2, FixedRadius(lam), PowerDecay(lam, 0.25))
        base_out = base.run_stream(samples)
        scaled_out = scaled.run_stream(samples * lam)
        assert [o.alarm for o in base_out] == [o.alarm for o in scaled_out]
        np.testing.assert_allclose(scaled.w, base.w * lam, rtol=1e-12)

    def test_alarm_iff_distance_reaches_threshold(self):
        det = Detector(2, AdaptiveRadius(), PowerDecay(1.0, 0.25))
        rng = np.random.default_rng(13)
        for row in rng.normal(size=(300, 2)) * 4:
            out = det.step(row)
            assert out.alarm == (out.distance >= out.threshold)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.lists(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=3,
                 max_size=3),
        min_size=1, max_size=60),
    tau=st.floats(0.05, 0.45),
    gamma0=st.floats(0.1, 4.0),
    epsilon=st.floats(0.01, 10.0),
)
def test_property_trace_inequalities(data, tau, gamma0, epsilon):
    """The inner-product lower bound and the telescoping identity hold for any
    stream, any admissible schedule, fixed or adaptive radius."""
    for mode in (FixedRadius(epsilon), AdaptiveRadius()):
        det = Detector(3, mode, PowerDecay(gamma0, tau))
        _, worst, inner_min = run_with_norm_audit(det, np.asarray(data))
        assert worst <= 1e-9
        assert inner_min >= -1e-9
