"""The block scan against the step loop, and scale equivariance.

``Detector.scan`` must make the same decisions and reach the same state
as calling ``Detector.step`` row by row, bit for bit: alarms, distances,
thresholds, gains, center, counts, trace sums and checkpoint bytes.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fado.detector as detector_module
from fado.bounds import GroundTruth
from fado.checkpoint import checkpoint_encode
from fado.detector import (
    AdaptiveRadius,
    Constant,
    Detector,
    FixedRadius,
    PowerDecay,
)
from fado.scene import frame_to_vector, gen_synthetic_clips, run_scene_detection
from fado.streams import Design, StreamSpec, generate


def _new(mode, epsilon, dim, scale=1.0):
    if mode == "adaptive":
        return Detector(dim, AdaptiveRadius(), PowerDecay(scale, 0.25))
    schedule = Constant(scale) if mode == "constant" else PowerDecay(scale, 0.25)
    return Detector(dim, FixedRadius(epsilon), schedule)


def _step_loop(det, rows):
    outs = [det.step(row) for row in rows]
    return (np.array([o.alarm for o in outs], dtype=bool),
            np.array([o.distance for o in outs]),
            np.array([o.threshold for o in outs]),
            np.array([o.gain_applied for o in outs]))


def _assert_same(mode, epsilon, rows, cap_bytes=None, split=None,
                 tile=None):
    """Step loop and scan (optionally in two pieces, or in column tiles of
    ``tile``) agree bit for bit."""
    rows = np.asarray(rows, dtype=np.float64)
    dim = rows.shape[1]
    ref = _new(mode, epsilon, dim)
    expect = _step_loop(ref, rows)
    det = _new(mode, epsilon, dim)
    cap = detector_module.SCAN_CHUNK_BYTES if cap_bytes is None else cap_bytes
    tile = detector_module._TILE if tile is None else tile
    with mock.patch.object(detector_module, "SCAN_CHUNK_BYTES", cap), \
            mock.patch.object(detector_module, "_TILE", tile):
        pieces = [rows] if split is None else [rows[:split], rows[split:]]
        results = [det.scan(piece) for piece in pieces]
    got = [np.concatenate([getattr(r, name) for r in results])
           for name in ("alarm", "distance", "threshold", "gain_applied")]
    for name, want, have in zip(("alarm", "distance", "threshold", "gain"),
                                expect, got):
        assert want.dtype == have.dtype and want.tobytes() == have.tobytes(), \
            name
    assert det.w.tobytes() == ref.w.tobytes()
    assert (det.m, det.t) == (ref.m, ref.t)
    assert det.trace.as_tuple() == ref.trace.as_tuple()
    assert checkpoint_encode(det) == checkpoint_encode(ref)
    return expect[0]


def _circle(seed, count, center):
    truth = GroundTruth(np.asarray(center, dtype=np.float64), 1.0, 1e-3)
    return generate(StreamSpec(dim=2, count=count, truth=truth, seed=seed,
                               design=Design.CIRCLE))[0]


def _mixture(seed, count, dim, fraction=0.05):
    center = np.zeros(dim)
    center[0] = 2.0
    truth = GroundTruth(center, 1.0, 0.1)
    return generate(StreamSpec(dim=dim, count=count, truth=truth, seed=seed,
                               design=Design.MIXTURE,
                               contamination_fraction=fraction,
                               outlier_radius_max=5.0))[0]


MODES = ["fixed", "adaptive", "constant"]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(MODES),
    epsilon=st.sampled_from([0.0, 0.999, 1.0, 1.5]),
    source=st.sampled_from(["circle", "mixture", "floats"]),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 300),
    cap_rows=st.sampled_from([1, 2, 3, 7, None]),
    split=st.one_of(st.none(), st.integers(0, 300)),
    data=st.data(),
)
def test_property_scan_matches_step_loop(mode, epsilon, source, seed, count,
                                         cap_rows, split, data):
    """Every mode, epsilon = 0, near-boundary circles (mu = 1e-3), byte caps
    of a few rows, and a scan split in two, all agree with the step loop."""
    if source == "circle":
        center = data.draw(st.sampled_from([(0.0, 0.0), (2.0, 2.0)]))
        rows = _circle(seed, count, center)
    elif source == "mixture":
        rows = _mixture(seed, count, data.draw(st.integers(1, 6)),
                        data.draw(st.sampled_from([0.05, 0.3])))
    else:
        rows = data.draw(st.lists(
            st.lists(st.floats(-10, 10, allow_nan=False), min_size=3,
                     max_size=3), min_size=count % 40, max_size=count % 40))
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    dim = rows.shape[1]
    cap = None if cap_rows is None else 8 * dim * cap_rows
    if split is not None:
        split = min(split, len(rows))
    _assert_same(mode, epsilon, rows, cap, split)


@pytest.mark.parametrize("mode", MODES)
def test_long_mixture_stream_reaches_large_chunks(mode):
    """3000 rows with few alarms, so chunks grow towards the byte cap."""
    alarms = _assert_same(mode, 1.0, _mixture(5, 3000, 10, 0.01))
    assert 0 < alarms.sum() < 3000


@pytest.mark.parametrize("cap_rows", [1, 5, None])
def test_every_row_alarms(cap_rows):
    """epsilon = 0: each row alarms, even one equal to the center."""
    rows = np.random.default_rng(8).normal(size=(500, 10))
    rows[17] = 0.0
    rows[18] = rows[17]
    cap = None if cap_rows is None else 80 * cap_rows
    alarms = _assert_same("fixed", 0.0, rows, cap)
    assert alarms.all()


@pytest.mark.parametrize("cap_rows", [1, 2, None])
def test_a_row_on_the_radius_alarms(cap_rows):
    """distance == radius is an alarm in a chunk of any size.  Unit steps
    between integer points keep every distance exact; the row equal to
    the center at epsilon = 0 alarms with no update."""
    rows = [[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.5], [2.0, 1.0],
            [2.0, 1.0]]
    cap = None if cap_rows is None else 16 * cap_rows
    alarms = _assert_same("constant", 1.0, rows, cap)
    assert alarms.tolist() == [False, True, True, False, True, False]
    assert _assert_same("constant", 0.0, np.zeros((3, 2)), cap).all()


def test_circle_stream_near_boundary_defaults():
    for center in ((0.0, 0.0), (2.0, 2.0)):
        for mode in MODES:
            _assert_same(mode, 1.0, _circle(3, 4000, center))


# two full 8192-element dot slices and a short last one
WIDE = 2 * 8192 + 3


@pytest.mark.parametrize("cap_rows", [2, None])
@pytest.mark.parametrize("mode, epsilon", [("fixed", 1.0), ("adaptive", None),
                                           ("constant", 2.0)])
def test_wide_rows_span_three_dot_slices(mode, epsilon, cap_rows):
    """Rows that take three dot slices, in chunks of 2 and 7 rows."""
    rows = _mixture(9, 40, WIDE)
    cap = None if cap_rows is None else 8 * WIDE * cap_rows
    alarms = _assert_same(mode, epsilon, rows, cap)
    assert 0 < alarms.sum() < len(rows)


@pytest.mark.parametrize("mode, epsilon", [("fixed", 1.0), ("adaptive", None),
                                           ("constant", 2.0)])
def test_wide_rows_span_three_tiles(mode, epsilon):
    """Slices of 4096 make WIDE five slices, in tiles of two, two and one:
    the second tile's slices must be added on to the first tile's sum."""
    rows = _mixture(9, 40, WIDE)
    with mock.patch.object(detector_module, "_DOT_WIDTH", 4096):
        alarms = _assert_same(mode, epsilon, rows, 8 * WIDE * 2, tile=8192)
    assert 0 < alarms.sum() < len(rows)


@pytest.mark.parametrize("n", [1, 7, 8191, 8192])
def test_dot_is_one_vecdot_up_to_the_slice_width(n):
    assert detector_module._DOT_WIDTH == 8192
    a, b = np.random.default_rng(n).normal(size=(2, 5, n))
    for x, y in ((a, b), (a[2], b[2])):
        assert detector_module._dot(x, y).tobytes() == \
            np.vecdot(x, y).tobytes()


@pytest.mark.parametrize("n", [8193, 2 * 8192 + 3, 5 * 8192 + 1])
def test_dot_continues_a_running_total_over_tiles(n):
    """Tiles of one and of two slices, each added on to the total so far,
    give the bits of one left-to-right sum over every 8192-column slice;
    at five slices, adding each tile's own sum would not."""
    a, b = np.random.default_rng(n).normal(size=(2, 6, n))
    slices = range(0, n, 8192)
    for x, y in ((a, b), (a[4], b[4])):
        expect = np.vecdot(x[..., :8192], y[..., :8192])
        for lo in slices[1:]:
            expect = expect + np.vecdot(x[..., lo:lo + 8192],
                                        y[..., lo:lo + 8192])
        assert detector_module._dot(x, y).tobytes() == expect.tobytes()
        for width in (8192, 2 * 8192):
            total = None
            for lo in range(0, n, width):
                total = detector_module._dot(x[..., lo:lo + width],
                                             y[..., lo:lo + width], total)
            assert total.tobytes() == expect.tobytes(), width
        if n == 5 * 8192 + 1 and x.ndim == 2:
            per_tile = sum(detector_module._dot(x[..., lo:lo + 2 * 8192],
                                                y[..., lo:lo + 2 * 8192])
                           for lo in range(0, n, 2 * 8192))
            assert per_tile.tobytes() != expect.tobytes()


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_alarm_update_over_tiles_matches_one_row(gamma):
    """An alarm moving the center two slices at a time gives the center and
    trace of one whole-row update.  The trace starts at zero, so it holds
    v . w exactly, where a scan's longer sums could absorb its last bit."""
    n = 5 * 8192 + 1
    rng = np.random.default_rng(11)
    w, diff = rng.normal(size=(2, n))
    dets = [Detector(n, FixedRadius(1.0), Constant(gamma)) for _ in range(2)]
    for det in dets:
        det.w[:] = w
    dets[0]._learn(3.0, [(diff.copy(), dets[0].w)])
    tiles = range(0, n, 2 * 8192)
    dets[1]._learn(3.0, [(diff[lo:lo + 2 * 8192], dets[1].w[lo:lo + 2 * 8192])
                         for lo in tiles])
    assert dets[1].w.tobytes() == dets[0].w.tobytes()
    assert dets[1].trace.as_tuple() == dets[0].trace.as_tuple()
    v = diff / 3.0
    per_tile = sum(detector_module._dot(v[lo:lo + 2 * 8192],
                                        w[lo:lo + 2 * 8192]) for lo in tiles)
    assert dets[0].trace.sum_d_gamma_vw != gamma * per_tile


class TestValidation:
    def test_non_finite_names_first_bad_item_and_keeps_state(self):
        det = _new("fixed", 1.0, 2)
        rows = np.ones((6, 2)) * 3.0
        rows[3, 1] = math.nan
        rows[5, 0] = math.inf
        with pytest.raises(ValueError, match=r"stream item 3: .*non-finite"):
            det.run_stream(rows)
        with pytest.raises(ValueError, match=r"stream item 3: .*non-finite"):
            det.scan(rows)
        assert (det.m, det.t) == (0, 0) and not det.w.any()

    def test_ragged_rows_name_the_item(self):
        det = _new("fixed", 1.0, 2)
        with pytest.raises(ValueError, match="stream item 2: .*dimension 3"):
            det.scan([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="stream item 0: .*dimension 3"):
            det.scan(np.zeros((4, 3)))

    def test_generator_and_empty_inputs(self):
        det = _new("fixed", 0.5, 2)
        assert len(det.scan([])) == 0
        out = det.scan(np.ones(2) * k for k in range(4))
        assert out.alarm.tolist() == [False, True, True, True]
        assert det.t == 4

    def test_run_stream_builds_step_outcomes_from_columns(self):
        rows = _mixture(2, 200, 4)
        det, ref = _new("fixed", 1.0, 4), _new("fixed", 1.0, 4)
        assert det.run_stream(rows) == [ref.step(row) for row in rows]


def test_scene_detection_matches_per_frame_steps():
    """uint8 frames converted a chunk and a tile at a time decide as
    frame_to_vector + step.  200 x 205 frames are five dot slices, in
    tiles of two, two and one; gamma 1 skips the gain multiply."""
    for (width, height, epsilon), gamma, cap_frames in itertools.product(
            [(8, 6, 2.0), (200, 205, 105.0)], [1.0, 2.0], [1, 5]):
        frames, _ = gen_synthetic_clips(width, height, 4, 6, 10, seed=3)
        ref = Detector(frames.dim, FixedRadius(epsilon), Constant(gamma))
        expect = [tuple(ref.step(frame_to_vector(f))) for f in frames.frames]
        assert 0 < ref.m < len(expect)
        with mock.patch.object(detector_module, "SCAN_CHUNK_BYTES",
                               8 * frames.dim * cap_frames), \
                mock.patch.object(detector_module, "_TILE", 2 * 8192):
            timeline, det = run_scene_detection(frames, epsilon, gamma)
        out = timeline.outcomes
        assert list(zip(out.alarm.tolist(), out.distance.tolist(),
                        out.threshold.tolist(),
                        out.gain_applied.tolist())) == expect
        assert det.w.tobytes() == ref.w.tobytes()
        assert det.trace.as_tuple() == ref.trace.as_tuple()


class TestScaleEquivariance:
    """Fixed-radius detectors commute with scaling by a power of two."""

    @pytest.mark.parametrize("k", [2.0 ** -7, 8.0, 2.0 ** 20])
    @pytest.mark.parametrize("mode", ["fixed", "constant"])
    def test_power_of_two_scaling_is_exact(self, mode, k):
        rows = _mixture(4, 2000, 6, 0.1)
        base = _new(mode, 1.0, 6)
        scaled = _new(mode, k, 6, scale=k)
        base_out = base.scan(rows)
        scaled_out = scaled.scan(rows * k)
        assert 0 < base.m < 2000
        assert np.array_equal(base_out.alarm, scaled_out.alarm)
        assert np.array_equal(scaled_out.distance, base_out.distance * k)
        assert scaled.w.tobytes() == (base.w * k).tobytes()

    def test_adaptive_radius_is_not_equivariant(self):
        """Its radius 1/gain shrinks as gamma0 grows, so one point inside
        the unscaled radius falls outside the scaled one."""
        base = _new("adaptive", None, 1)
        scaled = _new("adaptive", None, 1, scale=8.0)
        assert not base.step([0.5]).alarm      # 0.5 < radius 1
        assert scaled.step([4.0]).alarm        # 4.0 >= radius 1/8
