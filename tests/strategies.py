"""Hypothesis strategies shared by the annulus property tests."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thermoshield.annulus import GAP_MIN, FourierShape, Mesh, StarPair
from thermoshield.dissipation import Power, SurfaceCost, Tabulated


def pos(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def pairs(draw):
    """A nested pair of order 1-4 whose separation is at least GAP_MIN.

    The inner radius is a0 plus modes of total amplitude at most a0 / 5; the
    outer radius adds a gap function h0 plus modes of total amplitude at most
    h0 / 2, so the separation is at least h0 / 2 >= GAP_MIN.
    """
    order = draw(st.integers(1, 4))
    a0 = draw(pos(0.5, 2.0))
    h0 = draw(pos(2.0 * GAP_MIN, 2.0))
    unit = st.lists(pos(-1.0, 1.0), min_size=2 * order, max_size=2 * order)
    inner = np.array([a0] + draw(unit)) * np.r_[1.0, [0.1 * a0 / order] * (2 * order)]
    gap = np.array([h0] + draw(unit)) * np.r_[1.0, [0.25 * h0 / order] * (2 * order)]
    return StarPair(FourierShape(inner), FourierShape(inner + gap))


@st.composite
def kinked(draw):
    """A convex piecewise-linear law with one kink inside (0, 1)."""
    kink = draw(pos(0.1, 0.9))
    s1 = draw(pos(0.05, 2.0))
    s2 = s1 + draw(pos(0.1, 4.0))
    return Tabulated([(0.0, 0.0), (kink, s1 * kink), (1.0, s1 * kink + s2 * (1.0 - kink))])


# Laws whose boundary term is nonsmooth: the surface-cost jump at zero, the
# power cusp at zero and a convex kink.
NONSMOOTH_LAWS = st.one_of(
    st.builds(SurfaceCost, pos(0.05, 2.0), pos(0.0, 2.0), pos(0.5, 3.0)),
    st.builds(Power, pos(0.1, 3.0), pos(0.2, 0.95)),
    kinked(),
)


@st.composite
def fields(draw, max_s=12, max_theta=48):
    """A mesh of 3..max_s by 8..max_theta nodes and a field on it with
    values in [0, 1] and the inner row at 1."""
    mesh = Mesh(draw(st.integers(3, max_s)), draw(st.integers(8, max_theta)))
    u = draw(arrays(float, (mesh.n_s, mesh.n_theta), elements=pos(0.0, 1.0)))
    u[0] = 1.0
    return mesh, u
