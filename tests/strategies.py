"""Hypothesis strategies shared by the annulus property tests."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thermoshield.annulus import GAP_MIN, FourierShape, Mesh, StarPair
from thermoshield.dissipation import Power, SurfaceCost, Tabulated


def pos(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def pairs(draw, min_order=1, max_order=4, mixed_orders=False):
    """A nested pair of order min_order..max_order whose separation is at
    least GAP_MIN.

    The inner radius is a0 plus modes of total amplitude at most a0 / 5; the
    outer radius adds a gap function h0 plus modes of total amplitude at most
    h0 / 2, so the separation is at least h0 / 2 >= GAP_MIN.  With
    mixed_orders the gap function draws its own order, and a drawn coin may
    instead take the shape, raised by 3 h0 / 2, as the outer radius and
    subtract the gap from it: either shape may then have the larger order.
    """
    order = draw(st.integers(min_order, max_order))
    gap_order = draw(st.integers(min_order, max_order)) if mixed_orders else order
    a0 = draw(pos(0.5, 2.0))
    h0 = draw(pos(2.0 * GAP_MIN, 2.0))

    def modes(k):
        return draw(st.lists(pos(-1.0, 1.0), min_size=2 * k, max_size=2 * k))

    shape = np.array([a0] + modes(order)) * np.r_[1.0, [0.1 * a0 / max(order, 1)] * (2 * order)]
    gap = np.array([h0] + modes(gap_order))
    gap *= np.r_[1.0, [0.25 * h0 / max(gap_order, 1)] * (2 * gap_order)]

    def padded(c):
        return np.pad(c, (0, 2 * max(order, gap_order) + 1 - c.size))

    if not mixed_orders or draw(st.booleans()):
        return StarPair(FourierShape(shape), FourierShape(padded(shape) + padded(gap)))
    shape[0] += 1.5 * h0
    return StarPair(FourierShape(padded(shape) - padded(gap)), FourierShape(shape))


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
