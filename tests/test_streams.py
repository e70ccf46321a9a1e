import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from fado.bounds import GroundTruth, sigma_size
from fado.detector import _TILE
from fado.streams import (
    Design,
    SplitMix64,
    StreamSpec,
    _ball_block,
    gen_outliers,
    generate,
)


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
        batch = _ball_block(SplitMix64(777), 4, 3, truth_center, 2.0)
        single_rng = SplitMix64(777)
        singles = [_ball_block(single_rng, 1, 3, truth_center, 2.0)
                   for _ in range(4)]
        assert np.array_equal(batch, np.concatenate(singles))


class TestBallSampler:
    def test_1d_uniform_statistics(self):
        rng = SplitMix64(11)
        xs = np.array([_ball_block(rng, 1, 1, np.zeros(1), 1.0)[0, 0]
                       for _ in range(20_000)])
        assert (np.abs(xs) <= 1.0).all()
        # mean of U[-1, 1] over 2e4 draws: 3 sigma = 3/sqrt(3 * 2e4)
        assert abs(xs.mean()) <= 3.0 / math.sqrt(3 * xs.size)

    def test_radius_bound_exact(self):
        rng = SplitMix64(12)
        center = np.array([5.0, -3.0, 2.0])
        for _ in range(2_000):
            y = _ball_block(rng, 1, 3, center, 2.5)[0]
            assert np.linalg.norm(y - center) <= 2.5

    def test_2d_area_ratio(self):
        rng = SplitMix64(13)
        pts = np.array([_ball_block(rng, 1, 2, np.zeros(2), 1.0)[0]
                        for _ in range(20_000)])
        inside = np.mean(np.linalg.norm(pts, axis=1) <= 1.0 / math.sqrt(2))
        # area ratio 1/2; 3 sigma binomial band
        assert abs(inside - 0.5) <= 3.0 * 0.5 / math.sqrt(pts.shape[0])



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

    def test_dim_must_be_positive(self):
        truth = GroundTruth(np.ones(1), 1.0, 0.1)
        with pytest.raises(ValueError, match="^dim "):
            StreamSpec(dim=0, count=10, truth=truth, seed=1)

    def test_integer_fields_are_stored_as_ints(self):
        truth = GroundTruth(np.ones(2), 1.0, 0.1)
        spec = StreamSpec(dim=np.int64(2), count=np.int64(100), truth=truth,
                          seed=1)
        assert type(spec.dim) is int and type(spec.count) is int
        assert generate(spec)[0].tobytes() == generate(StreamSpec(
            dim=2, count=100, truth=truth, seed=1))[0].tobytes()

    @pytest.mark.parametrize("field", ["dim", "count"])
    def test_integer_fields_reject_floats(self, field):
        truth = GroundTruth(np.ones(2), 1.0, 0.1)
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            StreamSpec(**{"dim": 2, "count": 10, field: 2.5}, truth=truth,
                       seed=1)

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
        pts = gen_outliers(2, truth, 3_000, 0.1, 5.0, SplitMix64(3))
        dists = np.linalg.norm(pts - truth.w_bar, axis=1)
        assert (dists >= 1.1).all() and (dists <= 5.0).all()

    def test_delta_zero_excludes_unit_ball_only(self):
        truth = self._truth()
        pts = gen_outliers(2, truth, 3_000, 0.0, 5.0, SplitMix64(4))
        dists = np.linalg.norm(pts - truth.w_bar, axis=1)
        assert (dists >= 1.0).all()

    def test_infeasible_shell_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_outliers(2, self._truth(), 10, 0.5, 1.2, SplitMix64(5))

    def test_rejection_expected_iterations_bounded(self):
        # volume-ratio argument: E[iters] = 1 / (1 - (lower/outer)**n) < 100
        for dim, lower_extra, outer in ((2, 0.0, 1.01), (10, 0.0, 1.2),
                                        (100, 0.1, 1.2)):
            ratio = (1.0 + lower_extra) / outer
            expected_iters = 1.0 / (1.0 - ratio ** dim)
            assert expected_iters < 100.0


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
            normals_rng, 500, 2, spec.truth.w_bar,
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
