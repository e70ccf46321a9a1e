import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fado.bounds import GroundTruth
from fado.detector import AdaptiveRadius, FixedRadius, PowerDecay
from fado.experiments import (
    SweepRecord,
    SweepResult,
    compare_adaptive,
    emit_results,
    run_detection_experiment,
    sweep_center_scale,
    sweep_contamination,
    sweep_dimension,
    sweep_epsilon,
    sweep_margin,
)
from fado.streams import Design, StreamSpec


def _standard_ball_spec(seed=1, count=4000):
    truth = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.1)
    return StreamSpec(dim=2, count=count, truth=truth, seed=seed)


class TestRunDetectionExperiment:
    def test_standard_ball_bands(self):
        rec = run_detection_experiment(_standard_ball_spec(count=10_000),
                                       FixedRadius(1.0),
                                       PowerDecay(1.0, 0.25))
        assert rec.m_T <= 100
        assert rec.final_w_error <= 0.2
        assert rec.power >= 0.95
        assert rec.audit_passed

    def test_returns_a_sweep_record_of_the_spec_seed(self):
        rec = run_detection_experiment(_standard_ball_spec(seed=5, count=500),
                                       FixedRadius(1.0),
                                       PowerDecay(1.0, 0.25))
        assert isinstance(rec, SweepRecord)
        assert rec.seed == 5
        assert rec.value is None and rec.variant == "" and rec.bound is None

    def test_circle_low_margin_band(self):
        truth = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.001)
        spec = StreamSpec(dim=2, count=250, truth=truth, seed=1,
                          design=Design.CIRCLE)
        rec = run_detection_experiment(spec, FixedRadius(1.0),
                                       PowerDecay(1.0, 0.25))
        assert 20 <= rec.m_T <= 200

    def test_circle_wide_margin_fewer_mistakes(self):
        wide = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.1)
        tight = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.001)
        for seed in (1, 2):
            rec_w = run_detection_experiment(
                StreamSpec(dim=2, count=250, truth=wide, seed=seed,
                           design=Design.CIRCLE),
                FixedRadius(1.0), PowerDecay(1.0, 0.25))
            rec_t = run_detection_experiment(
                StreamSpec(dim=2, count=250, truth=tight, seed=seed,
                           design=Design.CIRCLE),
                FixedRadius(1.0), PowerDecay(1.0, 0.25))
            assert rec_w.m_T <= 30
            assert rec_w.m_T < rec_t.m_T

    def test_mixture_reports_realized_contamination(self):
        truth = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.1)
        spec = StreamSpec(dim=2, count=2000, truth=truth, seed=3,
                          design=Design.MIXTURE, contamination_fraction=0.2,
                          outlier_radius_max=5.0)
        rec = run_detection_experiment(spec, FixedRadius(1.0),
                                       PowerDecay(1.0, 0.25))
        assert rec.p_realized is not None and rec.p_realized > 0
        assert rec.sigma_T > 0.0

    def test_adaptive_mode_runs(self):
        rec = run_detection_experiment(_standard_ball_spec(), AdaptiveRadius(),
                                       PowerDecay(1.0, 0.25))
        assert rec.m_T >= 1
        assert rec.final_radius > 1.0


class TestSweeps:
    """Small, fast sweep configurations; full-size runs live in acceptance."""

    def test_margin_sweep_checks(self):
        result = sweep_margin(mus=(0.01, 0.1), n_seeds=3, count=3000)
        assert result.checks["bound_dominance"]["passed"]
        assert result.checks["audits"]["passed"]
        assert result.checks["monotone"]["passed"]
        assert len(result.records) == 6

    def test_contamination_sweep_fit(self):
        result = sweep_contamination(fractions=(0.0, 0.25, 0.5), n_seeds=3,
                                     count=3000)
        fit = result.checks["linear_fit"]
        assert fit["passed"] and fit["slope"] > 0 and fit["r2"] >= 0.8

    def test_contamination_zero_matches_realizable_sweep(self):
        """The mixture design at fraction 0 reduces to the realizable ball
        design, so the two sweeps agree run for run on shared seeds."""
        mixture = sweep_contamination(fractions=(0.0,), n_seeds=3,
                                      count=3000)
        ball = sweep_margin(mus=(0.1,), n_seeds=3, count=3000, c=2.0)
        assert [r.m_T for r in mixture.records] == \
            [r.m_T for r in ball.records]
        assert [r.seed for r in mixture.records] == \
            [r.seed for r in ball.records]

    def test_center_sweep_sub_quartic_growth(self):
        result = sweep_center_scale(n_seeds=3)
        check = result.checks["sub_quartic_growth"]
        assert check["passed"]
        assert check["growth"] < check["quartic"] / 10.0

    def test_adaptive_compare_variants_present(self):
        result = compare_adaptive(mus=(0.05,), n_seeds=3, count=3000)
        fixed = [r for r in result.records if r.variant == "fixed"]
        adaptive = [r for r in result.records if r.variant == "adaptive"]
        assert len(fixed) == len(adaptive) == 3
        assert result.checks["fixed_power"]["passed"]
        assert result.checks["adaptive_power"]["passed"]
        assert result.checks["bound_dominance"]["passed"]
        assert result.checks["audits"]["passed"]
        assert all(r.audit_passed for r in result.records)

    def test_unaudited_run_does_not_fail_the_audits(self, monkeypatch):
        """A run with no audit (audit_passed None) leaves the check
        passing; a failed audit fails it."""
        import fado.experiments as experiments
        real = experiments.run_detection_experiment
        for verdict, passed in ((None, True), (False, False)):
            monkeypatch.setattr(
                experiments, "run_detection_experiment",
                lambda *a, verdict=verdict: replace(real(*a),
                                                    audit_passed=verdict))
            result = sweep_margin(mus=(0.1,), n_seeds=1, count=500)
            assert result.checks["audits"] == {"passed": passed}

    def test_zero_medians_fail_the_slope_check(self):
        """A center inside the radius of a detector that starts at the
        origin makes no mistakes, so no log-log slope can be fitted."""
        result = sweep_margin(mus=(0.5, 0.6), c=0.05, n_seeds=1, count=100)
        assert result.checks["monotone"]["medians"] == [0, 0]
        check = result.checks["loglog_slope"]
        assert check["passed"] is False and np.isnan(check["slope"])
        assert not result.passed

    def test_epsilon_sweep_radii_share_each_seeds_nuisance(self):
        """Each seed's stream at radius 2**k is 2**k times its stream at
        radius 1, so its runs agree on everything but the scale."""
        result = sweep_epsilon(exponents=(-3, 0, 4), n_seeds=3, count=1000)
        assert result.grid == [0.125, 1.0, 16.0]
        assert result.passed
        m_T = result.checks["equal_m_T"]["m_T"]
        assert len(m_T) == 3 and all(len(m) == 1 for m in m_T)
        assert len({m[0] for m in m_T}) > 1  # the nuisance differs by seed
        for seed, nuisance in zip(result.metadata["seeds"],
                                  result.metadata["nuisance"]):
            runs = [r for r in result.records if r.seed == seed]
            assert [r.value for r in runs] == result.grid
            assert len({(r.m_T, r.bound, r.final_w_error / r.value)
                        for r in runs}) == 1
            assert 1e-3 <= nuisance["relative_mu"] <= 1e-1
            assert 0.5 <= nuisance["c"] <= 4.0
            assert nuisance["n"] in range(2, 21)

    def test_epsilon_sweep_fails_on_a_radius_dependent_count(self,
                                                              monkeypatch):
        import fado.experiments as experiments
        real = experiments.run_detection_experiment

        def skewed(spec, mode, schedule):
            rec = real(spec, mode, schedule)
            return replace(rec, m_T=rec.m_T + (mode.epsilon > 1.0))

        monkeypatch.setattr(experiments, "run_detection_experiment", skewed)
        result = sweep_epsilon(exponents=(0, 1), n_seeds=2, count=500)
        check = result.checks["equal_m_T"]
        assert not check["passed"] and not result.passed
        assert all(len(m) == 2 and m[1] == m[0] + 1 for m in check["m_T"])

    @pytest.mark.parametrize("sweep, metadata", [
        (sweep_margin, '{"design": "ball", "dim": 2, "c": 2.0, '
         '"epsilon": 1.0, "count": 200, "tau": 0.25, "gamma0": 1.0, '
         '"seeds": [758659934611102926]}'),
        (sweep_center_scale, '{"design": "ball", "dim": 2, "mu": 0.1, '
         '"epsilon": 1.0, "count": 200, "tau": 0.25, "gamma0": 1.0, '
         '"seeds": [758659934611102926]}'),
        (sweep_dimension, '{"design": "ball", "c": 1.0, "mu": 0.01, '
         '"epsilon": 1.0, "count": 200, "tau": 0.25, "gamma0": 1.0, '
         '"seeds": [758659934611102926]}'),
        (sweep_epsilon, '{"design": "ball", "count": 200, "tau": 0.25, '
         '"gamma0": "epsilon", "seeds": [758659934611102926], '
         '"nuisance": [{"relative_mu": 0.03892061415355812, '
         '"c": 2.48461540915215, "n": 19}]}'),
        (sweep_contamination, '{"design": "mixture", "dim": 2, "mu": 0.1, '
         '"epsilon": 1.0, "radius_max": 5.0, "count": 200, "tau": 0.25, '
         '"gamma0": 1.0, "seeds": [758659934611102926]}'),
        (compare_adaptive, '{"design": "ball", "dim": 2, "c": 1.0, '
         '"epsilon": 1.0, "count": 200, "tau": 0.25, "gamma0": 1.0, '
         '"seeds": [758659934611102926]}'),
    ], ids=lambda v: getattr(v, "__name__", ""))
    def test_metadata_is_pinned(self, sweep, metadata):
        """Each sweep's JSON metadata, key order and number types included,
        states the figure's settings: a fixed value that drifts fails."""
        result = sweep(n_seeds=1, count=200)
        assert json.dumps({key: value for key, value
                           in result.metadata.items()
                           if key != "version"}) == metadata

    def test_sweep_reproducible_csv_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(sweep_margin(mus=(0.1,), n_seeds=2, count=1500), p1)
        emit_results(sweep_margin(mus=(0.1,), n_seeds=2, count=1500), p2)
        assert p1.read_bytes() == p2.read_bytes()


def _read_json(path):
    """The document, read by a strict parser: JSON has no NaN or
    infinity."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(path.read_text(encoding="ascii"),
                      parse_constant=refuse)


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


class TestEmitParse:
    """What ``emit_results`` writes, read back by ``json`` and ``csv``."""

    HEADER = ["parameter", "value", "variant", "seed", "m_T", "power",
              "final_w_error", "bound", "p_realized"]

    def _result(self):
        records = [
            SweepRecord(value=0.1, seed=7, m_T=23, power=0.98299,
                        final_w_error=0.0625, bound=57475228,
                        wall_time=0.5),
            SweepRecord(value=0.2, seed=7, m_T=11, power=None,
                        final_w_error=None, bound=None, p_realized=3,
                        variant="adaptive", wall_time=0.25),
        ]
        return SweepResult(parameter="mu", grid=[0.1, 0.2], records=records,
                           checks={"demo": {"passed": True, "margin": 0.5}},
                           metadata={"seeds": [7], "design": "ball"})

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_results(self._result(), path)
        assert _read_csv(path)[1:] == [
            ["mu", "0.1", "", "7", "23", "0.98299", "0.0625", "57475228", ""],
            ["mu", "0.2", "adaptive", "7", "11", "", "", "", "3"]]

    def test_json_roundtrip_with_metadata(self, tmp_path):
        result = self._result()
        path = tmp_path / "r.json"
        emit_results(result, path)
        doc = _read_json(path)
        assert list(doc) == ["parameter", "grid", "records", "checks",
                             "metadata"]
        assert doc["parameter"] == "mu" and doc["grid"] == [0.1, 0.2]
        assert doc["records"] == [
            {name: getattr(r, name) for name in (*self.HEADER[1:],
                                                 "wall_time")}
            for r in result.records]
        assert doc["checks"] == result.checks
        assert doc["metadata"] == result.metadata

    def test_empty_sweep_header_only(self, tmp_path):
        result = SweepResult(parameter="mu", grid=[], records=[])
        path = tmp_path / "empty.csv"
        emit_results(result, path)
        assert path.read_text(encoding="ascii").count("\n") == 1
        assert _read_csv(path) == [self.HEADER]
        json_path = tmp_path / "empty.json"
        emit_results(result, json_path)
        assert _read_json(json_path) == {"parameter": "mu", "grid": [],
                                         "records": [], "checks": {},
                                         "metadata": {}}

    def test_csv_header_names_the_columns(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_results(self._result(), path)
        assert _read_csv(path)[0] == self.HEADER

    def test_csv_has_no_blank_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_results(self._result(), path)
        lines = path.read_text(encoding="ascii").split("\n")
        assert lines[-1] == "" and all(lines[:-1])
        assert len(_read_csv(path)) == 3

    def test_float_formatting_shortest_roundtrip(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        result = SweepResult(parameter="x", grid=[value], records=[
            SweepRecord(value=value, seed=1, m_T=1, power=value,
                        final_w_error=None, bound=None)])
        path = tmp_path / "f.csv"
        emit_results(result, path)
        row = _read_csv(path)[1]
        assert row[1] == row[5] == "0.30000000000000004"
        assert float(row[1]) == value and float(row[5]) == value

    def test_non_finite_floats_are_json_null(self, tmp_path):
        """JSON has no NaN or infinity: a strict parser reads the file."""
        result = SweepResult(
            parameter="x", grid=[1.0],
            records=[SweepRecord(value=1.0, seed=1, m_T=1,
                                 wall_time=math.inf)],
            checks={"fit": {"passed": True, "slope": math.nan,
                            "r2": -math.inf, "medians": [1.0, math.nan],
                            "pair": (math.nan, 2)}})
        path = tmp_path / "r.json"
        emit_results(result, path)
        doc = _read_json(path)
        assert doc["checks"]["fit"] == {"passed": True, "slope": None,
                                        "r2": None, "medians": [1.0, None],
                                        "pair": [None, 2]}
        assert doc["records"][0]["wall_time"] is None

    def test_one_point_margin_sweep_slope_is_json_null(self, tmp_path):
        path = tmp_path / "margin.json"
        emit_results(sweep_margin(mus=(0.1,), n_seeds=1, count=100), path)
        assert _read_json(path)["checks"]["loglog_slope"]["slope"] is None

    @pytest.mark.parametrize("name, is_json", [
        ("r.JSON", True), ("r.Json", True), ("r.txt", False),
        ("r", False), ("r.json.csv", False)])
    def test_suffix_picks_the_format(self, tmp_path, name, is_json):
        result = self._result()
        path = tmp_path / name
        emit_results(result, path)
        text = path.read_text(encoding="ascii")
        assert text.startswith("{") is is_json
        assert text.startswith("parameter,") is not is_json
        # only JSON carries the checks and the metadata
        if is_json:
            doc = _read_json(path)
            assert doc["checks"] == result.checks
            assert doc["metadata"] == result.metadata
        else:
            assert len(_read_csv(path)) == 1 + len(result.records)
