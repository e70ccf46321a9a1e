"""Adaptive adversaries: realizable streams that watch the center.

The mistake caps claim to hold for *any* stream whose points all lie
within ``epsilon - mu`` of a fixed center ``w_bar``, not only for the
i.i.d. streams the other tests draw.  Here two adversaries see the
detector's center ``w`` before each :meth:`Detector.step` and pick the
next point from the margin ball around ``w_bar``:

* farthest-point: ``w_bar + (epsilon - mu) (w_bar - w) / |w_bar - w|``,
  the ball's point farthest from ``w``;
* myopic: the farthest from ``w`` of ``K`` points drawn uniformly from
  the ball.

Each runs in 2-d and at n = 10, with ``|w_bar|`` of 1 and 2 and margins
0.1 and 0.3.  Under power decay the mistake count must stay within
:func:`mistake_bound_realizable` and :func:`audit_trace` must pass.
Under a constant gain ``gamma < 2 mu`` every alarm cuts ``|w - w_bar|^2``
by at least ``gamma (2 mu - gamma)``, from ``|w_bar|^2`` at the start, so
the count must stay within ``|w_bar|^2 / (gamma (2 mu - gamma))``.

The realizability certificate, the potential-function cap for the
decaying gain and the per-run decision margin are not in fado yet; their
checks join this file when they are.
"""

import itertools
import math

import numpy as np
import pytest

from fado.bounds import audit_trace, mistake_bound_realizable
from fado.detector import Constant, Detector, FixedRadius, PowerDecay

EPSILON = 1.0
STEPS = 5000
# candidate points the myopic adversary draws per step
K = 8
GAMMA = 0.05  # the constant gain, below 2 * mu for both margins
# the power decay's first gain: from 1, the first alarm of a farthest-point
# stream about a center of norm 1 moves the center onto it; from 0.25 the
# center takes 6 to 94 alarms to come within mu of it
GAMMA0 = 0.25
TAU = 0.25


def _norms(rows):
    """The Euclidean norm of each row of ``rows``."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def farthest_point(w, w_bar, reach, rng):
    """The point of the ball of radius ``reach`` about ``w_bar`` farthest
    from ``w`` (any point of its sphere when ``w`` is its center)."""
    away = w_bar - w
    if not away.any():
        away = rng.normal(size=w.size)
    return w_bar + reach / math.sqrt(away @ away) * away


def myopic(w, w_bar, reach, rng):
    """The farthest from ``w`` of ``K`` points drawn uniformly from the
    ball of radius ``reach`` about ``w_bar``."""
    n = w.size
    directions = rng.normal(size=(K, n))
    radii = reach * rng.random(K) ** (1.0 / n) / _norms(directions)
    points = w_bar + radii[:, None] * directions
    return points[_norms(points - w).argmax()]


ADVERSARIES = {"farthest-point": farthest_point, "myopic": myopic}
CASES = list(itertools.product(ADVERSARIES, (2, 10), (1.0, 2.0),
                               (0.1, 0.3)))


def attack(detector, adversary, c, mu, seed):
    """Run ``detector`` on ``STEPS`` points that ``adversary`` picks from
    the margin ball about a center of norm ``c``; check that each lies in
    the ball and return the mistake count."""
    rng = np.random.default_rng(seed)
    n = detector.dim
    w_bar = rng.normal(size=n)
    w_bar *= c / np.linalg.norm(w_bar)
    reach = EPSILON - mu
    points = np.empty((STEPS, n))
    for y in points:
        y[:] = ADVERSARIES[adversary](detector.w, w_bar, reach, rng)
        detector.step(y)
    # the farthest point lies on the sphere, up to rounding
    assert _norms(points - w_bar).max() <= reach * (1 + 1e-12)
    assert detector.t == STEPS
    return detector.m


@pytest.mark.parametrize("adversary, n, c, mu", CASES)
def test_power_decay_stays_within_the_realizable_cap(adversary, n, c, mu):
    detector = Detector(n, FixedRadius(EPSILON), PowerDecay(GAMMA0, TAU))
    m = attack(detector, adversary, c, mu, seed=n)
    assert 1 <= m <= mistake_bound_realizable(c, mu, TAU, GAMMA0)
    assert audit_trace(detector).passed


@pytest.mark.parametrize("adversary, n, c, mu", CASES)
def test_constant_gain_stays_within_the_potential_cap(adversary, n, c, mu):
    detector = Detector(n, FixedRadius(EPSILON), Constant(GAMMA))
    m = attack(detector, adversary, c, mu, seed=n)
    assert 1 <= m <= c ** 2 / (GAMMA * (2 * mu - GAMMA))
