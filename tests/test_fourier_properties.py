"""Property tests of the Fourier boundary shapes, orders 0-16.

`radius` is checked against the per-mode sum written out here as the
reference, `radius_deriv` against central differences, `rotated` against a
shift of the angle, and `StarPair.gap` against the separation sampled on
the 1024-angle check grid, also for pairs whose two shapes differ in order.
"""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from strategies import pairs, pos

from thermoshield.annulus import FourierShape


@st.composite
def shapes(draw):
    order = draw(st.integers(0, 16))
    return FourierShape(draw(st.lists(pos(-2.0, 2.0), min_size=2 * order + 1, max_size=2 * order + 1)))


ANGLES = arrays(float, st.integers(1, 32), elements=pos(-10.0, 10.0))


def _radius_by_modes(shape, theta):
    """r(theta) = a0 + sum_k (a_k cos k theta + b_k sin k theta), mode by mode."""
    c = shape.coeffs
    r = np.full_like(theta, c[0])
    for k in range(1, shape.order + 1):
        r += c[2 * k - 1] * np.cos(k * theta) + c[2 * k] * np.sin(k * theta)
    return r


def _mode_sum(shape, power):
    """sum over modes of k**power (|a_k| + |b_k|), with k = 0 for a0."""
    c = np.abs(np.array(shape.coeffs))
    k = np.r_[0, np.repeat(np.arange(1, shape.order + 1), 2)]
    return float(np.sum(k**power * c))


@given(shape=shapes(), theta=ANGLES)
def test_radius_matches_mode_sum(shape, theta):
    # The sums differ only in the order of their terms.
    tol = 1e-14 * (1.0 + _mode_sum(shape, 0)) * (shape.order + 1)
    assert np.max(np.abs(shape.radius(theta) - _radius_by_modes(shape, theta))) <= tol


@given(shape=shapes(), theta=ANGLES)
def test_radius_deriv_matches_differences(shape, theta):
    # Truncation h^2/6 sum k^3 |c| plus rounding eps sum |c| / h, each well
    # below the bound.
    h = 1e-5
    fd = (shape.radius(theta + h) - shape.radius(theta - h)) / (2.0 * h)
    tol = 1e-9 * (1.0 + _mode_sum(shape, 0) + _mode_sum(shape, 3))
    assert np.max(np.abs(shape.radius_deriv(theta) - fd)) <= tol


@given(shape=shapes(), theta=ANGLES, phi=pos(-2.0 * math.pi, 2.0 * math.pi))
def test_rotation_shifts_the_angle(shape, theta, phi):
    tol = 1e-13 * (1.0 + _mode_sum(shape, 0)) * (shape.order + 1)
    assert np.max(np.abs(shape.rotated(phi).radius(theta) - shape.radius(theta + phi))) <= tol


@given(pair=pairs(min_order=0, max_order=16))
def test_gap_is_the_sampled_minimum_separation(pair):
    theta = np.arange(1024) * (2.0 * math.pi / 1024)
    assert pair.gap == float(np.min(pair.outer.radius(theta) - pair.inner.radius(theta)))


@given(pair=pairs(min_order=0, max_order=16, mixed_orders=True))
def test_gap_with_mixed_orders(pair):
    assume(pair.inner.order != pair.outer.order)
    theta = np.arange(1024) * (2.0 * math.pi / 1024)
    sampled = float(np.min(pair.outer.radius(theta) - pair.inner.radius(theta)))
    assert abs(pair.gap - sampled) <= 1e-14
