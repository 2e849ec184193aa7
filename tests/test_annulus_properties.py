"""Property tests of the annulus energy kernels and the state solver.

The Dirichlet stencil is checked against the three-term quadratic form
(radial, angular and cross terms) written out here as the reference, for
exact zeros on constant fields, for its degree-2 homogeneity and against
central differences.  The solver is run on the nonsmooth laws, which reject
Armijo trials often, and its result is checked for the admissible set and
for `energy_of` reproducing the reported energy.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from strategies import NONSMOOTH_LAWS, fields, pairs, pos

from thermoshield.annulus import Assembly, ConvergenceError, energy_of, solve_state


def _three_term_energy(asm, u):
    """Dirichlet energy as the sum of its radial, angular and cross terms."""
    US = np.diff(u, axis=0) / asm.ds
    UT = (np.roll(u, -1, axis=1) - u) / asm.dt
    V = UT + np.roll(UT, 1, axis=1)
    e_rad = np.sum(asm._Pe * US * US)
    e_ang = np.sum(asm._Ce * UT * UT)
    e_cross = np.sum(US * (asm.Q[:-1] * V[:-1] + asm.Q[1:] * V[1:]))
    return float(e_rad + e_ang + e_cross)


@given(pair=pairs(), mesh_field=fields(), offset=pos(0.0, 1.0), log_scale=pos(-6.0, 0.0))
def test_energy_matches_three_term_form(pair, mesh_field, offset, log_scale):
    mesh, u = mesh_field
    # Nearly constant fields are where a form that pairs u with its
    # gradient loses digits.
    u = offset + 10.0**log_scale * u
    asm = Assembly(pair, mesh)
    reference = _three_term_energy(asm, u)
    assert abs(asm.dirichlet(u)[0] - reference) <= 1e-13 * reference


@given(pair=pairs(), mesh_field=fields(), c=pos(-2.0, 2.0))
def test_constant_field_has_zero_energy_and_gradient(pair, mesh_field, c):
    mesh, _ = mesh_field
    energy, grad = Assembly(pair, mesh).dirichlet(np.full((mesh.n_s, mesh.n_theta), c))
    assert energy == 0.0
    assert np.all(grad == 0.0)


@given(pair=pairs(), mesh_field=fields(), data=st.data())
def test_curvature_is_twice_the_energy(pair, mesh_field, data):
    mesh, _ = mesh_field
    d = data.draw(arrays(float, (mesh.n_s, mesh.n_theta), elements=pos(-1.0, 1.0)))
    energy, grad = Assembly(pair, mesh).dirichlet(d)
    assert abs(float(np.sum(d * grad)) - 2.0 * energy) <= 1e-12 * energy


@given(pair=pairs(), mesh_field=fields())
def test_gradient_matches_differences(pair, mesh_field):
    mesh, u = mesh_field
    asm = Assembly(pair, mesh)
    grad = asm.dirichlet(u)[1]
    # The energy is quadratic, so central differences are exact up to
    # rounding; the floor of 1 covers constant fields, whose differences
    # are rounding noise.
    h = 1e-3
    fd = np.empty_like(u)
    for i in np.ndindex(u.shape):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        fd[i] = (asm.dirichlet(up)[0] - asm.dirichlet(um)[0]) / (2.0 * h)
    assert np.max(np.abs(grad - fd)) <= 1e-8 * max(np.max(np.abs(fd)), 1.0)


@given(pair=pairs(), mesh_field=fields(max_s=9, max_theta=32), law=NONSMOOTH_LAWS,
       warm=st.booleans())
def test_solver_invariants_on_nonsmooth_laws(pair, mesh_field, law, warm):
    mesh, u0 = mesh_field
    try:
        result = solve_state(pair, law, mesh, max_iters=3000, u0=u0 if warm else None)
    except ConvergenceError:
        assume(False)
    u = result.field.values
    assert np.all((u >= 0.0) & (u <= 1.0))
    assert np.all(u[0] == 1.0)
    assert energy_of(result.field, pair, law) == result.energy
