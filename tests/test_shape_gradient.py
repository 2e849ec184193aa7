"""Exact shape gradient of the discrete annulus energy.

`Assembly.shape_gradient` differentiates the discrete energy with respect to
the Fourier coefficients of both boundaries at fixed nodal values.  It is
checked against central differences of `Assembly.energy` at a fixed field
for drawn pairs, fields and nonsmooth laws, and, at a solved field, against
central differences of the solved energy (the envelope theorem).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thermoshield.annulus import (
    GAP_MIN,
    Assembly,
    FourierShape,
    Mesh,
    StarPair,
    solve_state,
)
from thermoshield.dissipation import (
    Convection,
    Power,
    Radiation,
    SurfaceCost,
    Tabulated,
)


def _pos(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def pairs(draw):
    """A nested pair of order 1-4 whose separation is at least GAP_MIN.

    The inner radius is a0 plus modes of total amplitude at most a0 / 5; the
    outer radius adds a gap function h0 plus modes of total amplitude at most
    h0 / 2, so the separation is at least h0 / 2 >= GAP_MIN.
    """
    order = draw(st.integers(1, 4))
    a0 = draw(_pos(0.5, 2.0))
    h0 = draw(_pos(2.0 * GAP_MIN, 2.0))
    unit = st.lists(_pos(-1.0, 1.0), min_size=2 * order, max_size=2 * order)
    inner = np.array([a0] + draw(unit)) * np.r_[1.0, [0.1 * a0 / order] * (2 * order)]
    gap = np.array([h0] + draw(unit)) * np.r_[1.0, [0.25 * h0 / order] * (2 * order)]
    return StarPair(FourierShape(inner), FourierShape(inner + gap))


@st.composite
def kinked(draw):
    kink = draw(_pos(0.1, 0.9))
    s1 = draw(_pos(0.05, 2.0))
    s2 = s1 + draw(_pos(0.1, 4.0))
    return Tabulated([(0.0, 0.0), (kink, s1 * kink), (1.0, s1 * kink + s2 * (1.0 - kink))])


LAWS = st.one_of(
    st.builds(Convection, _pos(0.1, 3.0)),
    st.builds(Radiation, _pos(0.1, 3.0)),
    st.builds(SurfaceCost, _pos(0.05, 2.0), _pos(0.0, 2.0), _pos(0.5, 3.0)),
    st.builds(Power, _pos(0.1, 3.0), _pos(0.2, 0.95)),
    kinked(),
)


@st.composite
def fields(draw):
    mesh = Mesh(draw(st.integers(3, 12)), draw(st.integers(8, 48)))
    u = draw(arrays(float, (mesh.n_s, mesh.n_theta), elements=_pos(0.0, 1.0)))
    u[0] = 1.0
    return mesh, u


def _split(x, n):
    return StarPair(FourierShape(x[:n]), FourierShape(x[n:]))


def _coeffs(pair):
    return np.concatenate([pair.inner.coeffs, pair.outer.coeffs]), len(pair.inner.coeffs)


@given(pair=pairs(), mesh_field=fields(), law=LAWS)
def test_matches_differences_at_fixed_field(pair, mesh_field, law):
    mesh, u = mesh_field
    g_in, g_out = Assembly(pair, mesh).shape_gradient(u, law)
    grad = np.concatenate([g_in, g_out])
    x, n = _coeffs(pair)
    # Steps relative to the gap keep the truncation error near (1e-4)^2.
    h = 1e-4 * pair.gap
    fd = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        ep = Assembly(_split(xp, n), mesh).energy(u, law)
        em = Assembly(_split(xm, n), mesh).energy(u, law)
        fd[i] = (ep - em) / (2.0 * h)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("law", [Convection(1.0), Radiation(0.5)])
def test_matches_differences_of_solved_energy(law):
    pair = StarPair(
        FourierShape([1.0, 0.03, -0.02, 0.05, 0.01]),
        FourierShape([2.0, 0.05, 0.04, 0.1, -0.03]),
    )
    mesh = Mesh(33, 128)
    # A tight solver tolerance keeps the solve error out of the differences.
    tol = 1e-14
    u = solve_state(pair, law, mesh, tol).field.values
    g_in, g_out = Assembly(pair, mesh).shape_gradient(u, law)
    grad = np.concatenate([g_in, g_out])
    x, n = _coeffs(pair)
    h = 1e-5
    for i in (0, n, n + 3):  # inner a0, outer a0, outer a2
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        ep = solve_state(_split(xp, n), law, mesh, tol, u0=u).energy.total
        em = solve_state(_split(xm, n), law, mesh, tol, u0=u).energy.total
        fd = (ep - em) / (2.0 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5)
