"""Property tests of the law jets against difference quotients.

Laws are the nonsmooth families of the annulus tests (the surface-cost jump
at zero, power cusps and convex kinks), tabulated laws with a jump, and the
smooth laws: radiation, convection, linear and power laws with alpha >= 1,
whose curvature at 0 is finite, infinite or 0 * inf if written carelessly.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from strategies import NONSMOOTH_LAWS, pos
from thermoshield.dissipation import Convection, Linear, Power, Radiation, SurfaceCost, Tabulated

EPS = np.finfo(float).eps
SLOPE_STEP = 1e-7
BEND_STEP = 1e-4


@st.composite
def jumped(draw):
    """A tabulated law with a jump inside (0, 1) and, by a coin, one at 0."""
    at = draw(pos(0.1, 0.9))
    s1, s2, jump = draw(pos(0.0, 2.0)), draw(pos(0.0, 4.0)), draw(pos(0.01, 2.0))
    base = draw(st.one_of(st.just(0.0), pos(0.01, 1.0)))
    knots = [(0.0, 0.0), (0.0, base), (at, base + s1 * at), (at, base + s1 * at + jump)]
    return Tabulated(knots + [(1.0, knots[-1][1] + s2 * (1.0 - at))])


LAWS = st.one_of(
    NONSMOOTH_LAWS,
    jumped(),
    st.builds(Radiation, pos(0.05, 3.0)),
    st.builds(Convection, pos(0.05, 3.0)),
    st.builds(Linear, pos(0.05, 3.0)),
    st.builds(Power, pos(0.1, 3.0), pos(1.0, 3.0)),
)


def _values(law, u):
    return np.asarray(law.value(u))


def _jumps(law):
    """Abscissae where a tabulated law's value jumps."""
    if not isinstance(law, Tabulated):
        return np.array([])
    us, vs = np.array(law.knots).T
    return us[1:][(np.diff(us) == 0.0) & (np.diff(vs) > 0.0)]


@given(law=LAWS, drawn=st.lists(pos(0.0, 1.0), min_size=1, max_size=16))
def test_jets_match_difference_quotients(law, drawn):
    points = np.concatenate([drawn, [0.0, 1.0, 5e-324], law.breakpoints])
    left, right, bend = law.jet(points)
    assert left.shape == right.shape == bend.shape == points.shape
    assert not np.any(np.isnan(left) | np.isnan(right) | np.isnan(bend))
    # Outside [0, 1] a side repeats the inside one.
    ends = (points == 0.0) | (points == 1.0)
    assert np.array_equal(left[ends], right[ends])

    # Jumps and cusps have an infinite right slope.
    cusp = isinstance(law, SurfaceCost) or (isinstance(law, Power) and law.alpha < 1.0)
    if cusp:
        assert law.jet(0.0)[1] == np.inf
    assert np.all(law.jet(_jumps(law))[1] == np.inf)

    # One-sided quotients: the Taylor remainder is at most h/2 times the
    # largest |theta''| on the step, which is at one of its ends on every
    # law here; the rest is rounding of the values.
    h = SLOPE_STEP
    u = points[np.min(np.abs(points[:, None] - law.breakpoints), axis=1) > 2 * h]
    lu, ru, cu = law.jet(u)
    theta = _values(law, u)
    for side, slope in ((1.0, ru), (-1.0, lu)):
        step = _values(law, u + side * h)
        quotient = side * (step - theta) / h
        tol = h * np.maximum(np.abs(cu), np.abs(law.jet(u + side * h)[2]))
        tol += 8 * EPS * (np.abs(theta) + np.abs(step)) / h + 1e-12 * np.abs(slope)
        assert np.all(np.abs(quotient - slope) <= tol), (u, quotient, slope)

    # The second difference is theta'' somewhere on [u - h, u + h]; that
    # lies between its values at the ends, theta'' being monotone there.
    h = BEND_STEP
    u = points[np.min(np.abs(points[:, None] - law.breakpoints), axis=1) > 2 * h]
    below, mid, above = _values(law, u - h), _values(law, u), _values(law, u + h)
    second = (above - 2.0 * mid + below) / h**2
    ends = np.stack([law.jet(u - h)[2], law.jet(u + h)[2]])
    tol = 16 * EPS * (np.abs(below) + 2.0 * np.abs(mid) + np.abs(above)) / h**2
    assert np.all(second >= ends.min(axis=0) - tol - 1e-9 * np.abs(ends).max(axis=0))
    assert np.all(second <= ends.max(axis=0) + tol + 1e-9 * np.abs(ends).max(axis=0))


@given(law=LAWS)
def test_convex_is_midpoint_convexity(law):
    # Midpoint convexity on all pairs of a grid that holds each breakpoint
    # and two points just above it: every nonconvex law here fails it by
    # far more than rounding.  A jump fails by half its height at the pair
    # around it, and Power with alpha <= 0.95 by 1.7% of theta(1) at (0, 1).
    b = law.breakpoints
    u = np.unique(np.concatenate([np.linspace(0.0, 1.0, 65), b, b + 1e-6, b + 2e-6]))
    u = u[u <= 1.0]
    a, b = u[:, None], u[None, :]
    excess = _values(law, (a + b) / 2) - (_values(law, a) + _values(law, b)) / 2
    assert law.convex == bool(np.max(excess) <= 1e-12 * max(1.0, law.value(1.0)))
