"""Exact shape gradient of the discrete annulus energy.

`Assembly.shape_gradient` differentiates the discrete energy with respect to
the Fourier coefficients of both boundaries at fixed nodal values.  It is
checked against central differences of the `Assembly.evaluate` energy at a
fixed field for drawn pairs, fields and nonsmooth laws, and, at a solved
field, against central differences of the solved energy (the envelope
theorem).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import NONSMOOTH_LAWS, fields, pairs, pos

from thermoshield.annulus import Assembly, FourierShape, Mesh, StarPair, solve_state
from thermoshield.dissipation import Convection, Radiation


LAWS = st.one_of(
    st.builds(Convection, pos(0.1, 3.0)),
    st.builds(Radiation, pos(0.1, 3.0)),
    NONSMOOTH_LAWS,
)


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
        ep = Assembly(_split(xp, n), mesh).evaluate(u, law)[0]
        em = Assembly(_split(xm, n), mesh).evaluate(u, law)[0]
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
