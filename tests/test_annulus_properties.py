"""Property tests of the annulus energy kernels and the state solver.

The Dirichlet stencil is checked against the three-term quadratic form
(radial, angular and cross terms) written out here as the reference, for
exact zeros on constant fields, for its degree-2 homogeneity and against
central differences.  The solver is run on the nonsmooth laws and on
radiation, from cold, warm and outer-row-at-0 starts, and its result is
checked for the admissible set, for `energy_of` reproducing the reported
energy and for stationarity, by its own residual and by secant slopes.
Under convex laws the solved state obeys the discrete maximum principle,
and rotating a pair by whole angular grid steps rotates the solved state
with it; the radial cold start and the constant 1 start end at the same
energy.  On concentric circles the solved energy is the radial closed form.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from strategies import NONSMOOTH_LAWS, fields, kinked, pairs, pos

from thermoshield.annulus import Assembly, Mesh, StarPair, energy_of, solve_state
from thermoshield.dissipation import Convection, Power, Radiation
from thermoshield.radial import general_radial_energy

CONVEX_LAWS = st.one_of(st.builds(Convection, pos(0.05, 5.0)), st.builds(Radiation, pos(0.05, 2.0)))


def _three_term_energy(asm, u):
    """Dirichlet energy as the sum of its radial, angular and cross terms,
    from the stencil's edge stiffnesses and cross weight."""
    DS = np.diff(u, axis=0)
    DT = np.roll(u, -1, axis=1) - u
    V = DT + np.roll(DT, 1, axis=1)
    e_rad = 0.5 * np.sum(asm._pe * DS * DS)
    e_ang = 0.5 * np.sum(asm._ce * DT * DT)
    e_cross = np.sum(DS * (asm._q[:-1] * V[:-1] + asm._q[1:] * V[1:]))
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


@given(pair=pairs(), mesh_field=fields())
def test_gradient_alone_is_the_gradient(pair, mesh_field):
    mesh, u = mesh_field
    asm = Assembly(pair, mesh)
    assert np.array_equal(asm.dirichlet_grad(u), asm.dirichlet(u)[1])


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


def _secant_residual(asm, law, u, h=1e-7):
    """Largest first-order energy decrease of one node of u, with the law's
    slopes taken as one-sided secants of step h (shorter at 0 and 1): an
    independent check of the stationarity that `Assembly.residual`
    measures with exact slopes."""
    g = asm.dirichlet(u)[1]
    down, up = g.copy(), g.copy()
    ub = u[-1]
    lo, hi = np.maximum(ub - h, 0.0), np.minimum(ub + h, 1.0)
    mid = law.value(ub)
    with np.errstate(invalid="ignore", divide="ignore"):
        down[-1] += asm.bw * (mid - law.value(lo)) / (ub - lo)
        up[-1] += asm.bw * (law.value(hi) - mid) / (hi - ub)
    down = np.where(u > 0.0, down, 0.0)
    up = np.where(u < 1.0, -up, 0.0)
    return max(float(np.max(down[1:])), float(np.max(up[1:])), 0.0)


def _best_single_move(asm, law, u):
    """Largest relative energy decrease from moving one outer node of u to
    0, to 1 or to the minimizer of the Dirichlet energy alone, by direct
    evaluation of the energy."""
    energy = asm.breakdown(u, law).total
    g = asm.dirichlet(u)[1][-1]
    best = 0.0
    for j in range(u.shape[1]):
        unit = np.zeros_like(u)
        unit[-1, j] = 1.0
        # The Dirichlet energy is quadratic: its curvature in u_j is 2 D(e_j).
        target = u[-1, j] - g[j] / (2.0 * asm.dirichlet(unit)[0])
        for c in (0.0, 1.0, min(max(target, 0.0), 1.0)):
            v = u.copy()
            v[-1, j] = c
            best = max(best, (energy - asm.breakdown(v, law).total) / abs(energy))
    return best


@given(pair=pairs(), mesh_field=fields(max_s=9, max_theta=32),
       law=st.one_of(NONSMOOTH_LAWS, st.builds(Radiation, pos(0.05, 2.0))),
       start=st.sampled_from(["cold", "warm", "outer row at 0"]))
def test_solver_invariants_on_nonsmooth_laws(pair, mesh_field, law, start):
    """Every returned solve is admissible, reproduced by `energy_of`,
    stationary to its reported residual (at most the default tol) and to
    secant slopes, and no single-node move of the outer row lowers its
    energy beyond rounding.  Starting with the outer row at 0 is where a
    node held by an infinite slope (the jump of `SurfaceCost`, the cusp of
    `Power`) needs the solver's escape test to leave."""
    mesh, u0 = mesh_field
    if start == "outer row at 0":
        u0[-1] = 0.0
    result = solve_state(pair, law, mesh, max_iters=500, u0=None if start == "cold" else u0)
    u = result.field.values
    assert np.all((u >= 0.0) & (u <= 1.0))
    assert np.all(u[0] == 1.0)
    assert energy_of(result.field, pair, law) == result.energy
    assert result.residual <= 1e-9
    asm = Assembly(pair, mesh)
    # The bound of the benchmark's stationarity check.
    assert _secant_residual(asm, law, u) <= 3e-5
    assert _best_single_move(asm, law, u) <= 1e-12


@given(pair=pairs(), mesh_field=fields(), law=CONVEX_LAWS)
def test_maximum_principle(pair, mesh_field, law):
    """Under a convex law no interior node of the solved state lies outside
    the range of its eight neighbours."""
    mesh, _ = mesh_field
    u = solve_state(pair, law, mesh).field.values
    left, right = np.roll(u, 1, axis=1), np.roll(u, -1, axis=1)
    around = np.stack(
        [u[:-2], u[2:], left[1:-1], right[1:-1], left[:-2], right[:-2], left[2:], right[2:]]
    )
    assert np.all(u[1:-1] <= around.max(axis=0) + 1e-6)
    assert np.all(u[1:-1] >= around.min(axis=0) - 1e-6)


@given(pair=pairs(), mesh_field=fields(), law=CONVEX_LAWS, data=st.data())
def test_rotational_equivariance_on_grid_steps(pair, mesh_field, law, data):
    """Rotating the pair by k angular grid steps maps the mesh onto itself,
    so the solved state is the rolled state.  Convection and radiation are
    convex, so the discrete minimizer is unique; a nonconvex law may reach
    different local minima from rounding-level differences, so none is
    drawn.  Both solves run at tol 1e-14, so that each stops at a residual
    of at most 1e-14 or at the solver's rounding floor, and the comparison
    measures the discretization, not the solve error."""
    mesh, _ = mesh_field
    k = data.draw(st.integers(1, mesh.n_theta - 1))
    base = solve_state(pair, law, mesh, tol=1e-14)
    turned = solve_state(pair.rotated(2.0 * math.pi * k / mesh.n_theta), law, mesh, tol=1e-14)
    e0, e1 = base.energy.total, turned.energy.total
    assert abs(e1 - e0) <= 1e-10 * e0
    expected = np.roll(base.field.values, -k, axis=1)
    assert np.max(np.abs(turned.field.values - expected)) <= 2e-5


@given(pair=pairs(), mesh_field=fields(max_s=9, max_theta=32),
       law=st.one_of(CONVEX_LAWS, st.builds(Power, pos(0.1, 3.0), pos(1.0, 3.0)), kinked()))
def test_cold_start_does_not_move_convex_energies(pair, mesh_field, law):
    """Under a convex law the discrete minimizer is unique, so the default
    start (the radial profile) and the constant 1 state end at the same
    energy."""
    mesh, _ = mesh_field
    radial = solve_state(pair, law, mesh).energy.total
    ones = solve_state(pair, law, mesh, u0=np.ones((mesh.n_s, mesh.n_theta))).energy.total
    assert abs(radial - ones) <= 1e-9 * ones


@given(R=pos(1.1, 4.0), n_s=st.integers(5, 48), n_theta=st.integers(8, 128),
       law=st.one_of(CONVEX_LAWS, NONSMOOTH_LAWS))
def test_concentric_state_is_exact(R, n_s, n_theta, law):
    """The ball invariant: under the log-polar map the concentric harmonic
    profile is linear in s, which bilinear elements hold exactly, so the
    solved energy of circles 1 and R is the radial energy to rounding."""
    exact = general_radial_energy(2, law, R).total
    got = solve_state(StarPair.circles(1.0, R), law, Mesh(n_s, n_theta), tol=1e-11).energy.total
    assert abs(got - exact) <= 1e-10 * exact
