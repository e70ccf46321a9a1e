import math
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fado import streams
from fado.bounds import GroundTruth, sigma_size
from fado.detector import _TILE
from fado.scene import gen_synthetic_clips
from fado.streamio import read_vectors
from fado.streams import (
    _SPLIT_DRAWS,
    Design,
    SplitMix64,
    StreamSpec,
    _ball_block,
    gen_outliers,
    generate,
)

from conftest import child_env


class TestSplitMix64:
    def test_reference_vector_seed_zero(self):
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                         0x06C45D188009454F]

    def test_block_matches_sequential(self):
        a, b = SplitMix64(12345), SplitMix64(12345)
        block = list(a.next_u64_block(17))
        seq = [b.next_u64() for _ in range(17)]
        assert block == seq

    def test_same_seed_same_sequence(self):
        a, b = SplitMix64(99), SplitMix64(99)
        assert list(a.next_u64_block(100)) == list(b.next_u64_block(100))

    def test_doubles_in_unit_interval(self):
        rng = SplitMix64(7)
        u = rng.next_double_block(100_000)
        assert (u >= 0.0).all() and (u < 1.0).all()

    def test_double_construction(self):
        # (value >> 11) * 2**-53, exactly
        rng_bits, rng_dbl = SplitMix64(4), SplitMix64(4)
        bits = rng_bits.next_u64()
        assert rng_dbl.next_double() == (bits >> 11) * 2.0 ** -53

    def test_seed_wraps_to_uint64(self):
        assert SplitMix64(2 ** 64)._state == 0

    @pytest.mark.parametrize("seed", [2.9, 2.0, "2", None])
    def test_seed_must_be_an_integer(self, seed):
        """A float seed is refused, not truncated to another seed."""
        with pytest.raises(TypeError, match="^seed must be an integer"):
            SplitMix64(seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int8(7)])
    def test_numpy_integer_seed_matches_python_int(self, seed):
        assert SplitMix64(seed).next_u64_block(5).tobytes() == \
            SplitMix64(7).next_u64_block(5).tobytes()

    def test_tile_boundary_entries_match_the_formula(self):
        """Draw i (from 0) mixes state + (i + 1) * golden, in Python ints,
        on either side of the first tile boundary."""
        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
            return z ^ (z >> 31)

        MASK, state = 2 ** 64 - 1, 2 ** 64 - 3
        block = SplitMix64(state).next_u64_block(_TILE + 2)
        for i in (_TILE - 1, _TILE, _TILE + 1):
            assert int(block[i]) == mix(
                (state + (i + 1) * 0x9E3779B97F4A7C15) & MASK)

    @pytest.mark.parametrize("kind", ["u64", "double"])
    def test_split_draws_match_one_block(self, kind):
        def draw(rng, count):
            return (rng.next_u64_block(count) if kind == "u64"
                    else rng.next_double_block(count))

        whole, split = SplitMix64(7), SplitMix64(7)
        expected = draw(whole, 100_003)
        parts = [draw(split, count)
                 for count in (_TILE - 1, 2, 100_003 - _TILE - 1)]
        assert np.concatenate(parts).tobytes() == expected.tobytes()
        assert split._state == whole._state

    def test_double_block_fills_out(self):
        buf = np.full(_TILE + 5, np.nan)
        assert SplitMix64(3).next_double_block(_TILE + 5, out=buf) is buf
        assert buf.tobytes() == \
            SplitMix64(3).next_double_block(_TILE + 5).tobytes()

    @pytest.mark.parametrize("out", [np.empty(4), np.empty(5, np.float32),
                                     np.empty((5, 1))])
    def test_out_must_be_float64_of_count(self, out):
        rng = SplitMix64(3)
        with pytest.raises(ValueError, match="^out "):
            rng.next_double_block(5, out=out)
        assert rng._state == 3

    def test_counts_are_integers(self):
        assert SplitMix64(1).next_double_block(np.int64(5)).tobytes() == \
            SplitMix64(1).next_double_block(5).tobytes()
        rng = SplitMix64(1)
        with pytest.raises(TypeError):
            rng.next_u64_block(2.5)
        with pytest.raises(ValueError, match="nonnegative"):
            rng.next_double_block(-1)
        assert rng._state == 1


def _assert_jump_is_the_tail(seed, k, m=_TILE + 3):
    """A generator jumped k draws ahead draws the tail of one (k + m)-draw
    block and ends in the same state, for u64 and double blocks."""
    for draw in (SplitMix64.next_u64_block, SplitMix64.next_double_block):
        whole, origin = SplitMix64(seed), SplitMix64(seed)
        expected = draw(whole, k + m)[k:]
        jumped = origin.jumped(k)
        assert draw(jumped, m).tobytes() == expected.tobytes()
        assert jumped._state == whole._state
        assert origin._state == seed % 2 ** 64  # the original stays put


class TestJumpAhead:
    @pytest.mark.parametrize("k", [0, 1, _TILE - 1, _TILE, _TILE + 1])
    def test_jump_draws_the_tail_of_one_block(self, k):
        _assert_jump_is_the_tail(2 ** 64 - 5, k)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), k=st.integers(0, 4 * _TILE),
           m=st.integers(0, 2 * _TILE))
    def test_any_jump_draws_the_tail_of_one_block(self, seed, k, m):
        _assert_jump_is_the_tail(seed, k, m)

    def test_jump_wraps_the_state(self):
        assert SplitMix64(7).jumped(2 ** 64)._state == 7

    def test_jump_is_a_nonnegative_integer(self):
        with pytest.raises(TypeError, match="^count must be an integer"):
            SplitMix64(1).jumped(2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            SplitMix64(1).jumped(-1)


class TestGaussianConstruction:
    def test_box_muller_formulation_pinned(self):
        """The normal pair is exactly sqrt(-2 ln u1) * (cos, sin)(2 pi u2)
        over consecutive uniforms, with u1 clamped at 2**-53."""
        from fado.streams import _box_muller

        seed = 314159
        u = SplitMix64(seed).next_double_block(2)
        u1 = max(u[0], 2.0 ** -53)
        r = math.sqrt(-2.0 * math.log(u1))
        expected = [r * math.cos(2.0 * math.pi * u[1]),
                    r * math.sin(2.0 * math.pi * u[1])]
        block = _box_muller(u.reshape(1, 2), 2)[0]
        assert block.tolist() == expected

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gaussian_row_is_never_zero(self, dim):
        """The ball sampler divides by the row norm without a redraw: the
        clamped u1 keeps the radius positive, and no double angle has a
        zero cosine, at the extreme u1 and at angles next to the zeros of
        cos and sin."""
        from fado.streams import _box_muller

        quarters = (0.0, 0.25, 0.5, 0.75)
        u2s = {np.nextafter(q, d) for q in quarters for d in (-1.0, 1.0)}
        u2s = sorted(u2s.union(quarters) - {-5e-324})  # 0 has no lower one
        assert len(u2s) == 11
        width = 2 * ((dim + 1) // 2)
        for u1 in (0.0, 2.0 ** -53, 1.0 - 2.0 ** -53):
            for u2 in u2s:
                u = np.full((1, width), u1)
                u[:, 1::2] = u2
                g = _box_muller(u, dim)
                assert g.shape == (1, dim) and np.isfinite(g).all()
                assert np.einsum("ij,ij->i", g, g)[0] > 0.0, (u1, u2)

    def test_row_consumption_is_fixed(self):
        """Each ball sample consumes 2*ceil(dim/2)+1 doubles, so drawing
        one at a time reproduces a batch row for row."""
        truth_center = np.array([1.0, -2.0, 0.5])
        batch = _ball_block(SplitMix64(777), 4, truth_center, 2.0)
        single_rng = SplitMix64(777)
        singles = [_ball_block(single_rng, 1, truth_center, 2.0)
                   for _ in range(4)]
        assert np.array_equal(batch, np.concatenate(singles))


class TestBallSampler:
    def test_1d_uniform_statistics(self):
        rng = SplitMix64(11)
        xs = np.array([_ball_block(rng, 1, np.zeros(1), 1.0)[0, 0]
                       for _ in range(20_000)])
        assert (np.abs(xs) <= 1.0).all()
        # mean of U[-1, 1] over 2e4 draws: 3 sigma = 3/sqrt(3 * 2e4)
        assert abs(xs.mean()) <= 3.0 / math.sqrt(3 * xs.size)

    def test_radius_bound_exact(self):
        rng = SplitMix64(12)
        center = np.array([5.0, -3.0, 2.0])
        for _ in range(2_000):
            y = _ball_block(rng, 1, center, 2.5)[0]
            assert np.linalg.norm(y - center) <= 2.5

    def test_2d_area_ratio(self):
        rng = SplitMix64(13)
        pts = np.array([_ball_block(rng, 1, np.zeros(2), 1.0)[0]
                        for _ in range(20_000)])
        inside = np.mean(np.linalg.norm(pts, axis=1) <= 1.0 / math.sqrt(2))
        # area ratio 1/2; 3 sigma binomial band
        assert abs(inside - 0.5) <= 3.0 * 0.5 / math.sqrt(pts.shape[0])


class TestProjectIntoBall:
    @pytest.mark.parametrize("offset, radius", [
        ([1.125], 1.1), ([0.75, 0.75], 1.0)], ids=["1d", "2d"])
    def test_row_just_outside_a_far_ball_ends_inside(self, offset, radius):
        """Centred at 1e15 the grid step is 0.125: a row one grid point
        outside the ball, scaled back to the radius, rounds to itself, so
        a shrink below the center's ulp moves nothing.  The repair still
        ends with the row inside."""
        from fado.streams import _project_into_ball

        center = np.full(len(offset), 1e15)
        samples = (center + offset)[None, :]
        _project_into_ball(samples, center, radius)
        assert np.linalg.norm(samples - center, axis=1)[0] <= radius

    def test_first_round_repair_keeps_its_bytes(self):
        """A row that one shrink by 1 - 2**-50 repairs is scaled exactly
        as that one round states."""
        from fado.streams import _project_into_ball

        center = np.array([0.5, -0.25])
        row = center + np.array([0.6, 0.8]) * np.nextafter(1.0, 2.0)
        samples = row[None, :].copy()
        d = np.linalg.norm(samples - center, axis=1)[0]
        assert d > 1.0
        expected = center + (row - center) * (1.0 * (1.0 - 2.0 ** -50) / d)
        _project_into_ball(samples, center, 1.0)
        assert samples[0].tobytes() == expected.tobytes()

    def test_far_one_dimensional_stream_is_drawn(self):
        truth = GroundTruth(np.array([1e8]), 1e-3, 0.0)
        samples, _ = generate(StreamSpec(dim=1, count=200_000, truth=truth,
                                         seed=1))
        assert (np.abs(samples[:, 0] - 1e8) <= 1e-3).all()



def _ball_spec(seed=1, mu=0.1, count=500, dim=2, center=(2.0, 2.0)):
    truth = GroundTruth(np.asarray(center, dtype=float), 1.0, mu)
    return StreamSpec(dim=dim, count=count, truth=truth, seed=seed)


class TestRealizableStream:
    def test_every_sample_inside_margin_ball(self):
        spec = _ball_spec(count=5_000)
        samples, _ = generate(spec)
        dists = np.linalg.norm(samples - spec.truth.w_bar, axis=1)
        assert (dists <= spec.truth.inner_radius).all()

    def test_margin_check_via_contamination_report(self):
        spec = _ball_spec(count=2_000)
        rep = sigma_size(generate(spec)[0], spec.truth)
        assert rep.p_T == 0 and rep.sigma_T == 0.0

    def test_bit_identical_under_fixed_seed(self):
        a, _ = generate(_ball_spec(seed=42))
        b, _ = generate(_ball_spec(seed=42))
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a, _ = generate(_ball_spec(seed=1))
        b, _ = generate(_ball_spec(seed=2))
        assert a.tobytes() != b.tobytes()

    def test_power_of_two_scaling_is_exact(self):
        """Scaling the center, epsilon and mu by 2**k scales the stream by
        2**k bit for bit: the radius sweep's equivariance rests on it."""
        center = np.linspace(0.3, 2.9, 7)
        base, _ = generate(StreamSpec(
            dim=7, count=2000, truth=GroundTruth(center, 1.0, 0.013),
            seed=99))
        for k in range(-7, 8):
            s = math.ldexp(1.0, k)
            scaled, _ = generate(StreamSpec(
                dim=7, count=2000,
                truth=GroundTruth(center * s, s, 0.013 * s), seed=99))
            assert scaled.tobytes() == (base * s).tobytes(), k


class TestSpecRules:
    """The spec types state every stream rule, and being frozen, what they
    checked at construction still holds when the stream is drawn."""

    def test_truth_and_spec_are_frozen(self):
        spec = _ball_spec()
        with pytest.raises(FrozenInstanceError):
            spec.truth.mu = 1.0
        with pytest.raises(FrozenInstanceError):
            spec.count = 10

    @pytest.mark.parametrize("design", [Design.BALL, Design.CIRCLE])
    @pytest.mark.parametrize("field, value", [
        ("contamination_fraction", 0.3), ("outlier_radius_max", 5.0)])
    def test_mixture_fields_rejected_for_other_designs(self, design, field,
                                                       value):
        truth = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.1)
        with pytest.raises(ValueError, match=f"^{field} "):
            StreamSpec(dim=2, count=10, truth=truth, seed=1, design=design,
                       **{field: value})

    def test_count_must_be_nonnegative(self):
        truth = GroundTruth(np.ones(2), 1.0, 0.1)
        with pytest.raises(ValueError, match="^count must be nonnegative$"):
            StreamSpec(dim=2, count=-1, truth=truth, seed=1)

    def test_dim_must_be_positive(self):
        truth = GroundTruth(np.ones(1), 1.0, 0.1)
        with pytest.raises(ValueError, match="^dim "):
            StreamSpec(dim=0, count=10, truth=truth, seed=1)

    def test_integer_fields_are_stored_as_ints(self):
        truth = GroundTruth(np.ones(2), 1.0, 0.1)
        spec = StreamSpec(dim=np.int64(2), count=np.int64(100), truth=truth,
                          seed=np.uint64(1))
        assert type(spec.dim) is int and type(spec.count) is int
        assert type(spec.seed) is int
        assert generate(spec)[0].tobytes() == generate(StreamSpec(
            dim=2, count=100, truth=truth, seed=1))[0].tobytes()

    @pytest.mark.parametrize("field", ["dim", "count", "seed"])
    def test_integer_fields_reject_floats(self, field):
        truth = GroundTruth(np.ones(2), 1.0, 0.1)
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            StreamSpec(**{"dim": 2, "count": 10, "seed": 1, field: 2.9},
                       truth=truth)

    def test_center_shape_must_match_dim(self):
        truth = GroundTruth(np.zeros(3), 1.0, 0.1)
        with pytest.raises(ValueError, match="does not match dim 2"):
            StreamSpec(dim=2, count=10, truth=truth, seed=1)


class TestCircleStream:
    def _spec(self, mu, seed=1, count=1000):
        truth = GroundTruth(np.array([2.0, 2.0]), 1.0, mu)
        return StreamSpec(dim=2, count=count, truth=truth, seed=seed,
                          design=Design.CIRCLE)

    @pytest.mark.parametrize("mu", [0.001, 0.1])
    def test_exact_radius(self, mu):
        spec = self._spec(mu)
        samples, _ = generate(spec)
        dists = np.linalg.norm(samples - spec.truth.w_bar, axis=1)
        assert np.abs(dists - spec.truth.inner_radius).max() <= 1e-12

    def test_dim_must_be_two(self):
        truth = GroundTruth(np.ones(3), 1.0, 0.1)
        with pytest.raises(ValueError, match="dim = 2"):
            StreamSpec(dim=3, count=10, truth=truth, seed=1,
                       design=Design.CIRCLE)

    def test_deterministic(self):
        a, _ = generate(self._spec(0.001, seed=5))
        b, _ = generate(self._spec(0.001, seed=5))
        assert a.tobytes() == b.tobytes()


class TestOutliers:
    def _truth(self):
        return GroundTruth(np.array([2.0, 2.0]), 1.0, 0.1)

    def test_shell_containment(self):
        truth = self._truth()
        pts = gen_outliers(truth, 3_000, 0.1, 5.0, SplitMix64(3))
        dists = np.linalg.norm(pts - truth.w_bar, axis=1)
        assert (dists >= 1.1).all() and (dists <= 5.0).all()

    def test_delta_zero_excludes_unit_ball_only(self):
        truth = self._truth()
        pts = gen_outliers(truth, 3_000, 0.0, 5.0, SplitMix64(4))
        dists = np.linalg.norm(pts - truth.w_bar, axis=1)
        assert (dists >= 1.0).all()

    def test_infeasible_shell_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_outliers(self._truth(), 10, 0.5, 1.2, SplitMix64(5))

    @pytest.mark.parametrize("delta_min", [-1.0, math.nan])
    def test_delta_min_must_be_nonnegative_and_finite(self, delta_min):
        with pytest.raises(ValueError, match="^delta_min must be a "
                                             "nonnegative finite number$"):
            gen_outliers(self._truth(), 10, delta_min, 5.0, SplitMix64(5))

    def test_draws_per_row_are_fixed(self):
        """Each outlier takes 2*ceil(dim/2) + 1 draws, in a thin shell as
        in a thick one: no row is drawn again."""
        for dim in (1, 2, 5):
            truth = GroundTruth(np.full(dim, 2.0), 1.0, 0.1)
            for radius_max in (1.0000001, 5.0):
                rng = SplitMix64(21)
                gen_outliers(truth, 1_000, 0.0, radius_max, rng)
                per_row = 2 * ((dim + 1) // 2) + 1
                assert rng._state == \
                    SplitMix64(21).jumped(1_000 * per_row)._state

    @pytest.mark.parametrize("width", [1e-7, 1e-3, 4.0])
    @pytest.mark.parametrize("dim", [2, 10, 100])
    def test_every_row_lies_in_the_shell(self, dim, width):
        """By the norm that ``sigma_size`` takes, however thin the shell
        (its outer radius is 1 + width times its inner one)."""
        center = np.zeros(dim)
        center[:2] = 2.0
        truth = GroundTruth(center, 1.0, 0.1)
        radius_max = 1.25 * (1.0 + width)
        pts = gen_outliers(truth, 2_000, 0.25, radius_max, SplitMix64(8))
        dists = np.linalg.norm(pts - truth.w_bar, axis=1)
        assert (dists >= 1.25).all() and (dists <= radius_max).all()

    def test_radius_is_uniform_in_volume(self):
        """(r**n - lower**n) / (R**n - lower**n) is uniform on [0, 1]."""
        truth = GroundTruth(np.zeros(3), 1.5)
        pts = gen_outliers(truth, 200_000, 0.0, 4.0, SplitMix64(10))
        r = np.linalg.norm(pts, axis=1)
        share = (r ** 3 - 1.5 ** 3) / (4.0 ** 3 - 1.5 ** 3)
        probs = [0.1, 0.25, 0.5, 0.75, 0.9]
        assert np.abs(np.quantile(share, probs) - probs).max() <= 0.005

    @pytest.mark.parametrize("center, ulps", [
        ((2.0, 2.0), 1), ((1e6, 0.0), 1000)], ids=["1-ulp", "far-1000-ulp"])
    def test_a_shell_too_thin_for_float64_is_refused(
            self, tmp_path, capsys, center, ulps):
        """No float64 point lands in the shell around this center, so the
        sampler raises where a rejection loop would spin forever; through
        ``fado gen`` that is exit 1, one line and no file."""
        from fado.cli import main
        radius_max = 1.0 + ulps * 2.0 ** -52
        truth = GroundTruth(np.array(center), 1.0, 0.1)
        with pytest.raises(ValueError, match=(
                rf"^the shell 1\.0 <= \|y - center\| <= {radius_max!r} "
                "is thinner than float64 resolves around its center$")):
            gen_outliers(truth, 1_000, 0.0, radius_max, SplitMix64(1))
        out = tmp_path / "m.bin"
        assert main(["gen", "--design", "mixture", "--dim", "2", "--count",
                     "2000", "--center", ",".join(map(repr, center)),
                     "--epsilon", "1", "--mu", "0.1", "--fraction", "0.5",
                     "--radius-max", repr(radius_max), "--seed", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the shell ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_a_thin_shell_mixture_is_generated_in_time(self, tmp_path):
        """A shell 1e-7 wide once kept rejection sampling spinning."""
        out = tmp_path / "m.bin"
        subprocess.run(
            [sys.executable, "-m", "fado.cli", "gen", "--design", "mixture",
             "--dim", "2", "--count", "20000", "--center", "2",
             "--epsilon", "1", "--mu", "0.1", "--fraction", "0.5",
             "--radius-max", "1.0000001", "--seed", "1", "--out", str(out)],
            env=child_env(), capture_output=True, check=True, timeout=10)
        dists = np.linalg.norm(read_vectors(out) - 2.0, axis=1)
        outliers = dists > 0.9
        assert outliers.sum() > 9_000
        assert ((dists[outliers] >= 1.0)
                & (dists[outliers] <= 1.0000001)).all()


class TestContaminatedStream:
    def _spec(self, fraction, seed=1, count=4_000, dim=2):
        center = np.zeros(dim)
        center[:2] = 2.0
        truth = GroundTruth(center, 1.0, 0.1)
        return StreamSpec(dim=dim, count=count, truth=truth, seed=seed,
                          design=Design.MIXTURE,
                          contamination_fraction=fraction,
                          outlier_radius_max=5.0)

    def test_fraction_zero_reduces_to_realizable(self):
        mixture, labels = generate(self._spec(0.0))
        ball, _ = generate(_ball_spec(seed=1, count=4_000))
        assert labels.sum() == 0
        assert mixture.tobytes() == ball.tobytes()

    def test_realized_fraction_within_binomial_band(self):
        spec = self._spec(0.5, count=10_000)
        _, labels = generate(spec)
        p_hat = labels.mean()
        assert abs(p_hat - 0.5) <= 3.0 * 0.5 / math.sqrt(10_000)

    def test_labels_agree_with_analytic_report(self):
        for fraction in (0.1, 0.3):
            spec = self._spec(fraction)
            samples, labels = generate(spec)
            rep = sigma_size(samples, spec.truth)
            assert rep.p_T == int(labels.sum())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("radius_max", [1.0000001, 1.001, 5.0])
    def test_labels_agree_for_thin_and_thick_shells(self, radius_max, seed):
        center = np.zeros(5)
        center[:2] = 2.0
        spec = StreamSpec(dim=5, count=4_000, truth=GroundTruth(
            center, 1.0, 0.1), seed=seed, design=Design.MIXTURE,
            contamination_fraction=0.3, outlier_radius_max=radius_max)
        samples, labels = generate(spec)
        assert sigma_size(samples, spec.truth).p_T == int(labels.sum())

    def test_ten_dimensional_variant(self):
        spec = self._spec(0.2, dim=10)
        samples, labels = generate(spec)
        assert samples.shape == (4_000, 10)
        rep = sigma_size(samples, spec.truth)
        assert rep.p_T == int(labels.sum())

    def test_mixture_requires_radius_and_margin(self):
        truth = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.1)
        with pytest.raises(ValueError, match="outlier_radius_max"):
            StreamSpec(dim=2, count=10, truth=truth, seed=1,
                       design=Design.MIXTURE, contamination_fraction=0.1)
        zero_margin = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.0)
        with pytest.raises(ValueError, match="margin"):
            StreamSpec(dim=2, count=10, truth=zero_margin, seed=1,
                       design=Design.MIXTURE, contamination_fraction=0.1,
                       outlier_radius_max=5.0)

    @pytest.mark.parametrize("radius_max", [math.inf, math.nan])
    def test_outer_radius_must_be_finite(self, radius_max):
        """An infinite outer shell would draw rows of inf and -inf."""
        truth = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.1)
        with pytest.raises(ValueError, match="^outlier_radius_max must be "
                                             "a positive finite number$"):
            StreamSpec(dim=2, count=10, truth=truth, seed=1,
                       design=Design.MIXTURE, contamination_fraction=0.5,
                       outlier_radius_max=radius_max)


class TestGenerateDispatch:
    def test_dispatches_by_design(self):
        ball, _ = generate(_ball_spec())
        assert ball.shape == (500, 2)
        truth = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.001)
        circle, _ = generate(StreamSpec(dim=2, count=100, truth=truth,
                                        seed=1, design=Design.CIRCLE))
        assert circle.shape == (100, 2)

    def test_second_slot_is_labels_or_none(self):
        """Ball and circle streams have no labels; a mixture's second slot
        is its outlier labels.  The labels come from the seed's first
        child and the normal samples from its second."""
        root = SplitMix64(1)
        labels_rng, normals_rng = root.spawn(), root.spawn()
        spec = _ball_spec()
        ball, labels = generate(spec)
        assert labels is None
        assert ball.tobytes() == _ball_block(
            normals_rng, 500, spec.truth.w_bar,
            spec.truth.inner_radius).tobytes()
        truth = GroundTruth(np.array([2.0, 2.0]), 1.0, 0.001)
        assert generate(StreamSpec(dim=2, count=10, truth=truth, seed=1,
                                   design=Design.CIRCLE))[1] is None
        mixture = StreamSpec(dim=2, count=200, truth=truth, seed=1,
                             design=Design.MIXTURE,
                             contamination_fraction=0.3,
                             outlier_radius_max=5.0)
        _, labels = generate(mixture)
        assert labels.dtype == bool and labels.shape == (200,)
        assert np.array_equal(labels,
                              labels_rng.next_double_block(200) < 0.3)


def _split_threshold(draws_each: int) -> int:
    """The fewest items that split: each half holds _SPLIT_DRAWS draws."""
    return 2 * -(-_SPLIT_DRAWS // draws_each)


def _on_both_paths(monkeypatch, draw):
    """``draw()`` with two usable CPUs, then with one: (its result on the
    split path, on the serial path, threads the split path started)."""
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(streams, "_usable_cpus", lambda: 2)
    split = draw()
    threads = len(started)
    monkeypatch.setattr(streams, "_usable_cpus", lambda: 1)
    serial = draw()
    assert len(started) == threads  # one CPU starts no thread
    return split, serial, threads


def _worker_fault(monkeypatch, in_worker=True):
    """Make the upper half of each split (the thread's), or the lower
    half (the caller's), raise MemoryError, with two usable CPUs."""
    real_split = streams._split

    def split(fill, count, draws_each):
        def faulty(lo, hi):
            if (lo > 0) is in_worker:
                raise MemoryError("worker fault" if in_worker
                                  else "caller fault")
            fill(lo, hi)

        real_split(faulty, count, draws_each)

    monkeypatch.setattr(streams, "_split", split)
    monkeypatch.setattr(streams, "_usable_cpus", lambda: 2)


class TestSplitGeneration:
    """Ball rows and clip frames are drawn in two halves at once, by
    counter offset, when two CPUs are usable: the bytes and the
    generator's end state are those of the one-CPU path."""

    @pytest.mark.parametrize("where", ["one", "below", "at", "odd-above"])
    @pytest.mark.parametrize("dim", [2, 7, 10])
    def test_ball_block_bytes_do_not_depend_on_the_split(
            self, monkeypatch, dim, where):
        per_row = 2 * ((dim + 1) // 2) + 1
        threshold = _split_threshold(per_row)
        count = {"one": 1, "below": threshold - 1, "at": threshold,
                 "odd-above": threshold + 7}[where]
        center = np.linspace(-1.0, 3.0, dim)

        def draw():
            rng = SplitMix64(31)
            return _ball_block(rng, count, center, 0.75).tobytes(), rng._state

        split, serial, threads = _on_both_paths(monkeypatch, draw)
        assert split == serial
        assert split[1] == SplitMix64(31).jumped(count * per_row)._state
        assert threads == (count >= threshold)

    @pytest.mark.parametrize("clips, per_clip", [
        (1, 1), (1, 85),  # 1 frame and the threshold - 1
        (2, 43), (1, 86),  # the threshold, split at and inside a clip
        (3, 31), (93, 1),  # an odd count above it
    ])
    def test_clip_bytes_do_not_depend_on_the_split(self, monkeypatch, clips,
                                                   per_clip):
        width, height = 64, 48
        assert _split_threshold(width * height) == 86

        def draw():
            frames, _ = gen_synthetic_clips(width, height, clips, per_clip,
                                            9, seed=6)
            return frames.frames.tobytes()

        split, serial, threads = _on_both_paths(monkeypatch, draw)
        assert split == serial
        assert threads == (clips * per_clip >= 86)

    def test_mixture_bytes_do_not_depend_on_the_split(self, monkeypatch):
        truth = GroundTruth(np.array([2.0, 2.0, 0.0, 0.0, 0.0]), 1.0, 0.1)
        spec = StreamSpec(dim=5, count=80_000, truth=truth, seed=4,
                          design=Design.MIXTURE, contamination_fraction=0.5,
                          outlier_radius_max=3.0)

        def draw():
            samples, labels = generate(spec)
            return samples.tobytes(), labels.tobytes()

        split, serial, threads = _on_both_paths(monkeypatch, draw)
        assert split == serial
        assert threads == 2  # the normal rows and the outlier rows

    @pytest.mark.parametrize("radius_max", [1.0000001, 3.0])
    def test_outlier_bytes_do_not_depend_on_the_split(self, monkeypatch,
                                                      radius_max):
        truth = GroundTruth(np.array([2.0, 2.0, 0.0, 0.0, 0.0]), 1.0, 0.1)
        count = _split_threshold(7) + 7

        def draw():
            rng = SplitMix64(12)
            return (gen_outliers(truth, count, 0.0, radius_max,
                                 rng).tobytes(), rng._state)

        split, serial, threads = _on_both_paths(monkeypatch, draw)
        assert split == serial and threads == 1

    @pytest.mark.parametrize("in_worker", [True, False],
                             ids=["worker", "caller"])
    def test_a_fault_in_either_half_reaches_the_caller(self, monkeypatch,
                                                       in_worker):
        _worker_fault(monkeypatch, in_worker)
        before = threading.active_count()
        message = "worker fault" if in_worker else "caller fault"
        with pytest.raises(MemoryError, match=f"^{message}$"):
            _ball_block(SplitMix64(1), _split_threshold(3), np.zeros(2), 1.0)
        with pytest.raises(MemoryError, match=f"^{message}$"):
            gen_synthetic_clips(400, 400, 1, 2, 5, seed=1)
        assert threading.active_count() == before  # the thread was joined

    def test_a_worker_fault_exits_one_with_one_line(self, monkeypatch,
                                                    tmp_path, capsys):
        from fado.cli import main
        _worker_fault(monkeypatch)
        out = tmp_path / "s.bin"
        assert main(["gen", "--dim", "2", "--count",
                     str(_split_threshold(3)), "--center", "0",
                     "--epsilon", "1", "--seed", "1", "--out",
                     str(out)]) == 1
        assert main(["scene", "--synthetic", "--width", "400", "--height",
                     "400", "--clips", "1", "--frames-per-clip", "2",
                     "--timeline", str(tmp_path / "t.csv")]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: worker fault\nerror: worker fault\n")
        assert not out.exists() and not (tmp_path / "t.csv").exists()

    def test_a_thread_that_cannot_start_leaves_the_bytes(self, monkeypatch):
        def draw():
            rng = SplitMix64(8)
            return _ball_block(rng, _split_threshold(9), np.ones(7),
                               2.0).tobytes(), rng._state

        monkeypatch.setattr(streams, "_usable_cpus", lambda: 1)
        expected = draw()

        def refuse(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(streams, "_usable_cpus", lambda: 2)
        assert draw() == expected

    def test_concurrent_splits_under_a_short_switch_interval(self,
                                                             monkeypatch):
        """Four callers split at once (eight threads on fewer cores),
        switching every microsecond: each gets the one-CPU path's bytes,
        so the halves share no state a thread switch could tear."""
        count = _split_threshold(9) + 3
        centers = [np.full(7, float(k)) for k in range(4)]
        monkeypatch.setattr(streams, "_usable_cpus", lambda: 1)
        expected = [_ball_block(SplitMix64(k), count, c, 1.5).tobytes()
                    for k, c in enumerate(centers)]
        monkeypatch.setattr(streams, "_usable_cpus", lambda: 2)
        results = [None] * 4

        def draw(k):
            results[k] = _ball_block(SplitMix64(k), count, centers[k],
                                     1.5).tobytes()

        callers = [threading.Thread(target=draw, args=(k,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == expected
