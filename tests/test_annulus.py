"""Annulus state solver: geometry, assembly, accuracy, and invariants."""

import math
import signal
from dataclasses import dataclass

import numpy as np
import pytest

from thermoshield import radial
from thermoshield.annulus import (
    Assembly,
    ConvergenceError,
    FourierShape,
    GeometryError,
    Mesh,
    MeshMismatchError,
    ScalarField,
    StarPair,
    _assembly,
    _fourier_basis,
    _ModeSolver,
    _radial_start,
    _uniform_basis,
    dump_field,
    energy_of,
    load_field,
    solve_state,
)
from thermoshield.dissipation import (
    Convection,
    DissipationLaw,
    Linear,
    Power,
    Radiation,
    SurfaceCost,
    Tabulated,
)
from thermoshield.radial import convection_energy, general_radial_energy

ZERO_LAW = Tabulated([(0, 0), (1, 0)])


def perturbed_pair(amp_inner=0.05, amp_outer=0.1, mode=2, r_out=2.0):
    inner = [1.0] + [0.0] * (2 * mode)
    outer = [r_out] + [0.0] * (2 * mode)
    inner[2 * mode - 1] = amp_inner
    outer[2 * mode - 1] = amp_outer
    return StarPair(FourierShape(inner), FourierShape(outer))


@dataclass(frozen=True)
class _NanValues(DissipationLaw):
    """Convection whose values are NaN on (0.3, 0.7): a broken law."""

    def _raw(self, u):
        return np.where((u > 0.3) & (u < 0.7), np.nan, u * u)

    def _jet(self, u):
        return 2.0 * u, 2.0 * u, np.full_like(u, 2.0)


@pytest.fixture
def alarm():
    """Fail a test that runs past 30 s instead of letting it hang."""

    def expire(signum, frame):
        raise TimeoutError("the state solve did not stop")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def preconditioner_calls(monkeypatch):
    """A list that grows by one entry at each preconditioner application."""
    calls = []
    apply = _ModeSolver.__call__

    def counted(self, r):
        calls.append(r.shape)
        return apply(self, r)

    monkeypatch.setattr(_ModeSolver, "__call__", counted)
    return calls


class TestFourierShape:
    def test_circle_radius(self):
        c = FourierShape.circle(2.0, order=3)
        theta = np.linspace(0, 2 * math.pi, 17)
        assert np.allclose(c.radius(theta), 2.0)

    def test_area_identity(self):
        # (1/2) int r^2 = pi (a0^2 + (a1^2 + b1^2 + ...)/2), exact here.
        s = FourierShape([1.0, 0.1, 0.0])
        assert s.area() == pytest.approx(math.pi * (1.0 + 0.1**2 / 2.0), rel=1e-12)
        assert FourierShape.circle(2.0).area() == pytest.approx(4 * math.pi, rel=1e-12)

    def test_rotation_preserves_radius_samples(self):
        s = FourierShape([1.0, 0.2, -0.1, 0.05, 0.15])
        phi = 0.83
        theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        assert np.allclose(s.rotated(phi).radius(theta), s.radius(theta + phi))

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            FourierShape([1.0, 0.1])


class TestStarPair:
    def test_gap_property(self):
        assert StarPair.circles(1.0, 2.0).gap == pytest.approx(1.0)

    def test_gap_violation(self):
        with pytest.raises(GeometryError):
            StarPair.circles(1.0, 1.0005)

    def test_nonpositive_inner(self):
        with pytest.raises(GeometryError):
            StarPair(FourierShape([0.2, 0.5, 0.0]), FourierShape.circle(2.0))

    def test_minimum_gap_allowed(self):
        StarPair.circles(1.0, 1.0 + 1e-3)


class TestMesh:
    @pytest.mark.parametrize("n_s, n_theta", [(9.5, 32), (9, 32.0), ("9", 32), (None, 32)])
    def test_non_integer_size_rejected(self, n_s, n_theta):
        with pytest.raises(ValueError, match="must be an integer of at least"):
            Mesh(n_s, n_theta)

    def test_numpy_integers_accepted(self):
        assert Mesh(np.int64(9), np.int32(32)) == Mesh(9, 32)

    def test_too_coarse(self):
        with pytest.raises(ValueError, match="n_s must be an integer of at least 3"):
            Mesh(2, 32)


# Each count of this layer: its name, its least value and a call that passes it.
COUNTS = {
    "n_s": ("n_s", 3, lambda v: Mesh(v, 32)),
    "n_theta": ("n_theta", 8, lambda v: Mesh(9, v)),
    "order": ("order", 0, lambda v: FourierShape.circle(1.0, v)),
    "with_order": ("order", 0, lambda v: FourierShape([1.0, 0.1, 0.0]).with_order(v)),
    "max_iters": (
        "max_iters", 0, lambda v: solve_state(perturbed_pair(), Convection(1.0), Mesh(9, 32), max_iters=v)
    ),
}


@pytest.mark.parametrize("bad", ["fraction", "bool", "below"])
@pytest.mark.parametrize("site", sorted(COUNTS))
def test_count_must_be_an_integer(site, bad):
    name, least, call = COUNTS[site]
    value = {"fraction": 2.5, "bool": True, "below": least - 1}[bad]
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least {least}, got {value!r}$"):
        call(value)


class TestSolveAccuracy:
    def test_circles_match_radial_oracle(self):
        res = solve_state(StarPair.circles(1.0, 2.0), Convection(1.0), Mesh(64, 256))
        exact = convection_energy(2, 1.0, 2.0).total
        assert res.energy.total == pytest.approx(exact, rel=1e-2)
        # Under the log-polar map the concentric state is exact (to 2e-16
        # here), far inside both bounds.
        assert abs(res.energy.total - exact) / exact < 1e-4

    def test_thin_shell_limit(self):
        res = solve_state(StarPair.circles(1.0, 1.0 + 1e-3), Convection(1.0), Mesh(64, 256))
        oracle = general_radial_energy(2, Convection(1.0), 1.0 + 1e-3).total
        assert res.energy.total == pytest.approx(oracle, rel=1e-6)
        assert res.energy.total == pytest.approx(2 * math.pi, rel=1e-2)

    def test_free_boundary_constant_one(self):
        res = solve_state(StarPair.circles(1.0, 2.0), ZERO_LAW, Mesh(33, 128))
        assert res.energy.total == 0.0
        assert np.all(res.field.values == 1.0)

    def test_mesh_convergence_monotone_first_order(self):
        # Circles are exact (`test_concentric_state_is_exact`), so the order
        # is measured on a perturbed pair, against the Richardson value of
        # 65x256 and 129x512.
        pair = TestResidual.PAIR
        energies = [
            solve_state(pair, Convection(1.0), Mesh(n_s, 4 * (n_s - 1))).energy.total
            for n_s in (17, 33, 65, 129)
        ]
        exact = energies[-1] + (energies[-1] - energies[-2]) / 3.0
        errs = [abs(e - exact) for e in energies[:3]]
        assert errs[0] > errs[1] > errs[2]
        order = math.log2(errs[0] / errs[2]) / 2.0
        assert order >= 1.0

    def test_radiation_matches_trace_oracle(self):
        res = solve_state(StarPair.circles(1.0, 1.5), Radiation(1.0), Mesh(48, 192))
        oracle = general_radial_energy(2, Radiation(1.0), 1.5).total
        assert res.energy.total == pytest.approx(oracle, rel=1e-3)


class TestSolverInvariants:
    def test_energy_of_reproduces_exactly(self):
        pair = perturbed_pair()
        res = solve_state(pair, Convection(1.0), Mesh(33, 128))
        again = energy_of(res.field, pair, Convection(1.0))
        assert again.total == res.energy.total
        assert again.dirichlet == res.energy.dirichlet

    def test_energy_of_rejects_other_pair(self):
        pair = perturbed_pair()
        res = solve_state(pair, Convection(1.0), Mesh(33, 128))
        with pytest.raises(MeshMismatchError):
            energy_of(res.field, StarPair.circles(1.0, 2.0), Convection(1.0))

    def test_maximum_principle_and_residual(self):
        pair = perturbed_pair()
        res = solve_state(pair, Convection(1.0), Mesh(33, 128), tol=1e-13)
        u = res.field.values
        interior = u[1:-1]
        left = np.roll(u, 1, axis=1)
        right = np.roll(u, -1, axis=1)
        stacks = np.stack(
            [u[:-2], u[2:], left[1:-1], right[1:-1], left[:-2], right[:-2], left[2:], right[2:]]
        )
        assert np.all(interior <= stacks.max(axis=0) + 1e-6)
        assert np.all(interior >= stacks.min(axis=0) - 1e-6)
        g = Assembly(pair, res.field.mesh).dirichlet(u)[1]
        assert np.abs(g[1:-1]).max() < 1e-6

    def test_rotational_equivariance(self):
        pair = perturbed_pair()
        e1 = solve_state(pair, Convection(1.0), Mesh(33, 128)).energy.total
        e2 = solve_state(pair.rotated(0.7), Convection(1.0), Mesh(33, 128)).energy.total
        assert abs(e1 - e2) / e1 < 1e-10

    def test_beta_monotonicity(self):
        pair = StarPair.circles(1.0, 2.0)
        e1 = solve_state(pair, Convection(1.0), Mesh(33, 128)).energy.total
        e2 = solve_state(pair, Convection(2.0), Mesh(33, 128)).energy.total
        assert e1 <= e2

    def test_field_bounds_and_dirichlet_row(self):
        res = solve_state(perturbed_pair(), Radiation(1.0), Mesh(33, 128))
        u = res.field.values
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        assert np.all(u[0] == 1.0)

    def test_nonconvergence_raises(self):
        # From the constant 1 state radiation takes 6 steps; a cap of 3
        # cannot be met.
        with pytest.raises(ConvergenceError):
            solve_state(
                perturbed_pair(), Radiation(1.0), Mesh(33, 128), max_iters=3, u0=np.ones((33, 128))
            )

    def test_quadratic_law_converges_in_one_step(self):
        # Convection's energy is quadratic on the free nodes, so its CG
        # solve runs close to the stop tolerance: one Newton step from the
        # constant 1 state, which leaves no clamp active.
        res = solve_state(perturbed_pair(), Convection(1.0), Mesh(33, 128), u0=np.ones((33, 128)))
        assert res.iterations == 1
        assert res.residual <= 1e-9

    def test_warm_start_shape_checked(self):
        with pytest.raises(MeshMismatchError):
            solve_state(
                perturbed_pair(), Convection(1.0), Mesh(33, 128), u0=np.ones((5, 5))
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_warm_start_rejected(self, bad):
        # Rejected before the Newton loop, with a ValueError that names u0
        # rather than a ConvergenceError on the NaN energy.
        u0 = np.full((9, 32), 0.5)
        u0[4, 7] = bad
        with pytest.raises(ValueError, match="u0"):
            solve_state(perturbed_pair(), Convection(1.0), Mesh(9, 32), max_iters=5, u0=u0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-9, "1e-9"])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            solve_state(perturbed_pair(), Convection(1.0), Mesh(9, 32), tol=tol, max_iters=5)

    @pytest.mark.parametrize("max_iters", [-1, 2.5, None])
    def test_bad_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            solve_state(perturbed_pair(), Convection(1.0), Mesh(9, 32), max_iters=max_iters)

    def test_zero_max_iters_allowed(self):
        with pytest.raises(ConvergenceError):
            solve_state(perturbed_pair(), Convection(1.0), Mesh(9, 32), max_iters=0)

    def test_nested_list_warm_start(self):
        u0 = np.full((9, 32), 0.5)
        from_array = solve_state(perturbed_pair(), Convection(1.0), Mesh(9, 32), u0=u0)
        from_list = solve_state(perturbed_pair(), Convection(1.0), Mesh(9, 32), u0=u0.tolist())
        assert np.array_equal(from_list.field.values, from_array.field.values)
        with pytest.raises(MeshMismatchError):
            solve_state(perturbed_pair(), Convection(1.0), Mesh(9, 32), u0=[[0.5] * 5] * 5)

    def test_warm_start_clipped_and_pinned(self):
        # A warm start outside [0, 1] whose inner row is not 1 solves as its
        # copy clipped to [0, 1] with the inner row set to 1.
        u0 = np.random.default_rng(0).uniform(-0.5, 1.5, (9, 32))
        start = np.clip(u0, 0.0, 1.0)
        start[0] = 1.0
        a, b = (solve_state(perturbed_pair(), Radiation(1.0), Mesh(9, 32), u0=u) for u in (u0, start))
        assert np.array_equal(a.field.values, b.field.values)
        assert a.iterations == b.iterations

    def test_convex_law_stops_at_a_start_within_tol(self):
        # A convex law's solve ends at the first point whose residual is at
        # most tol: it makes none of the single-node escape moves of a
        # nonconvex law, which from this detached start lower the energy.
        u0 = np.repeat(1.0 - np.linspace(0.0, 1.0, 9)[:, None], 32, axis=1)
        res = solve_state(perturbed_pair(), Convection(1.0), Mesh(9, 32), tol=1.0, u0=u0)
        assert res.iterations == 0
        assert np.array_equal(res.field.values, u0)

    def test_non_finite_energy_raises(self, alarm):
        # Every Armijo test against a NaN energy fails, so without the check
        # the backtracking would halve the step forever.
        with pytest.raises(ConvergenceError, match="non-finite"):
            solve_state(perturbed_pair(), _NanValues(), Mesh(9, 32), u0=np.full((9, 32), 0.5))

    def test_armijo_underflow_raises(self, alarm, monkeypatch):
        # A NaN Newton direction, here from a broken preconditioner, makes
        # every trial point NaN: no step passes the Armijo test, and without
        # the bound the backtracking would keep halving a step of 0.
        monkeypatch.setattr(_ModeSolver, "__call__", lambda self, r: np.full_like(r, np.nan))
        with pytest.raises(ConvergenceError, match="underflow"):
            solve_state(perturbed_pair(), Convection(1.0), Mesh(9, 32), u0=np.full((9, 32), 0.5))


class TestResidual:
    PAIR = StarPair(FourierShape([1, 0, 0, 0.05, 0]), FourierShape([2, 0, 0, 0, 0.12]))
    MESH = Mesh(33, 128)

    @pytest.mark.parametrize(
        "law", [Convection(1.0), Radiation(1.0), SurfaceCost(0.3, 1.0, 1.0), SurfaceCost(0.3, 1.0, 2.0)]
    )
    def test_solves_read_stationary(self, law):
        res = solve_state(self.PAIR, law, self.MESH)
        # The bound of the benchmark's stationarity check.
        assert 0.0 <= res.residual <= 3e-5
        assert res.residual == Assembly(self.PAIR, self.MESH).residual(res.field.values, law)

    # Energies that the conjugate-gradient solver replaced by projected
    # Newton returned at its default tol; it stopped on the energy decrease.
    @pytest.mark.parametrize(
        "law, mesh, cg_energy",
        [
            (Convection(1.0), Mesh(33, 128), 5.284580200475132),
            (Convection(1.0), Mesh(64, 256), 5.284465517850524),
            (Radiation(1.0), Mesh(33, 128), 7.07007370587097),
            (Radiation(1.0), Mesh(64, 256), 7.069864776457557),
        ],
    )
    def test_energy_no_higher_than_cg(self, law, mesh, cg_energy):
        assert solve_state(self.PAIR, law, mesh).energy.total <= cg_energy * (1.0 + 1e-12)

    def test_kinked_law_converges(self):
        # The conjugate-gradient solver ran out of 5 000 iterations here.
        law = Tabulated([(0, 0), (0.4, 0.2), (1, 1.4)])
        res = solve_state(self.PAIR, law, self.MESH, max_iters=200)
        assert res.residual <= 1e-9

    def test_raised_node_reads_unstationary(self):
        law = Convection(1.0)
        u = solve_state(self.PAIR, law, self.MESH).field.values.copy()
        u[10, 5] += 0.01
        assert Assembly(self.PAIR, self.MESH).residual(u, law) > 1e-3

    def test_outer_row_at_zero_under_cusp_is_held(self):
        # The right slope of Power(1, 0.5) at 0 is infinite, so no outer node
        # at 0 can move up; under convection the same row wants to.
        asm = Assembly(self.PAIR, self.MESH)
        u = solve_state(self.PAIR, Convection(1.0), self.MESH).field.values.copy()
        u[-1] = 0.0
        g = asm.dirichlet(u)[1][1:-1]
        inner = float(np.max(np.where(g > 0.0, g * (u[1:-1] > 0.0), -g * (u[1:-1] < 1.0))))
        assert asm.residual(u, Power(1.0, 0.5)) == inner
        assert asm.residual(u, Convection(1.0)) > inner

    def test_doubling_detaches_surface_cost(self):
        # Under the surface-cost jump the Newton model cannot see the
        # gain of detaching the outer row; doubling the full step finds it.
        # Without doubling this solve stops attached, at energy 12.4686
        # (36% higher) and a residual as small: only the energy tells.  The
        # radial start is detached already, so the solve starts from 1.
        res = solve_state(self.PAIR, SurfaceCost(0.3, 1.0, 0.9), Mesh(17, 64), u0=np.ones((17, 64)))
        assert res.energy.total == pytest.approx(9.15999537042813, rel=1e-9)
        assert np.all(res.field.values[-1] == 0.0)

    @pytest.mark.parametrize(
        "law, mesh, energy, most",
        [
            (Tabulated([(0, 0), (0.4, 0.2), (1, 1.4)]), Mesh(33, 128), 5.819864950686924, 10),
            (SurfaceCost(0.3, 1.0, 0.9), Mesh(17, 64), 9.15999537042813, 10),
        ],
    )
    def test_held_outer_row_preconditioned_as_dirichlet(self, preconditioner_calls, law, mesh, energy, most):
        # Both solves end with the whole outer row held (at the kink, or at
        # 0 after detaching), and take 6 and 7 applications.  A
        # preconditioner that kept treating it as a free row took 66 and 43,
        # and one that gave it the mean outer curvature, 18 and 15.
        res = solve_state(self.PAIR, law, mesh)
        assert len(preconditioner_calls) <= most
        assert res.energy.total == pytest.approx(energy, rel=1e-12)


class TestNegativeCurvature:
    """The Newton system holds a nonconvex law's negative curvature, and CG
    stops at a direction of nonpositive curvature (Newton-CG)."""

    def test_attached_power_solve_takes_few_steps(self):
        # With the curvature clipped at 0 this solve took 11 Newton steps.
        pair = StarPair(FourierShape([1.0]), FourierShape([1.86, 0, 0, 0, 0, 0, 0, 0, 0.12]))
        res = solve_state(pair, Power(0.9, 0.5), Mesh(17, 64))
        assert res.iterations <= 4
        assert res.energy.total == pytest.approx(9.845298260735166, rel=1e-12, abs=0.0)

    def test_cg_stops_on_nonpositive_curvature(self):
        # This solve reaches p.Hp <= 0 and takes 15 steps; CG run through it
        # took 36, with the clip at 0 it took 12.
        pair = TestQuadraticForcing.lopsided(0.6)
        res = solve_state(pair, Power(1.0, 0.5), Mesh(17, 64), u0=np.ones((17, 64)))
        assert res.iterations <= 20
        assert res.energy.total == pytest.approx(7.325780501135163, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "law, outer, energy",
        [
            (Power(1.0, 0.5), [2.4975, 0, 0], 6.8646917564104655),
            (SurfaceCost(0.3, 1.0, 0.9), [2.4975, 0.6, 0], 7.325780501135163),
        ],
        ids=["power", "surface-cost"],
    )
    def test_preconditioner_clips_mean_curvature(self, law, outer, energy):
        # From an outer row at 1e-4 the mean curvature is far below 0; the
        # preconditioner gets it clipped at 0.  Unclipped, these solves took
        # 11 and 8 Newton steps to the same energies.
        u0 = np.ones((17, 64))
        u0[-1] = 1e-4
        res = solve_state(StarPair(FourierShape([1.0, 0, 0]), FourierShape(outer)), law, Mesh(17, 64), u0=u0)
        assert res.iterations <= 3
        assert res.energy.total == pytest.approx(energy, rel=1e-12, abs=0.0)


class TestStartOnBreakpoint:
    """Outer start values within 1e-12 of a law breakpoint are set to it,
    and a step on a held outer row solves its exact Dirichlet model."""

    PAIR = TestResidual.PAIR
    KINKED = Tabulated([(0, 0), (0.4, 0.2), (1, 1.4)])

    @pytest.mark.parametrize(
        "mesh, energy", [(Mesh(17, 64), 5.819904029913216), (Mesh(33, 128), 5.819864950686924)]
    )
    def test_kinked_radial_start_sits_on_the_kink(self, mesh, energy):
        # The radial start's trace lands 4e-14 below the kink and is set on
        # it; the outer row is held there, and the interior's exact Dirichlet
        # step ends the solve.  Started off the kink, the solve took 3 steps,
        # the first with 9-14 Armijo halvings.
        res = solve_state(self.PAIR, self.KINKED, mesh)
        assert res.iterations == 1
        assert res.energy.total == pytest.approx(energy, rel=1e-14, abs=0.0)
        assert np.all(res.field.values[-1] == 0.4)

    @pytest.mark.parametrize(
        "law",
        [SurfaceCost(0.3, 1.0, 0.9), SurfaceCost(0.3, 1.0, 1.2), Power(1.0, 0.5)],
        ids=["SurfaceCost", "SurfaceCost-alpha-1.2", "Power"],
    )
    @pytest.mark.parametrize(
        "mesh, energy", [(Mesh(17, 64), 9.15999537042813), (Mesh(33, 128), 9.159886817021768)]
    )
    def test_detached_radial_start_takes_one_step(self, law, mesh, energy):
        # The radial start is detached: the outer row is held at 0, so the
        # interior solves its exact Dirichlet model in one step.  With the
        # loose forcing of a free row it took 3.  With alpha = 1.2 the law's
        # curvature at 0 is +inf, which the Newton system sets to 0.
        res = solve_state(self.PAIR, law, mesh)
        assert res.iterations == 1
        assert res.energy.total == pytest.approx(energy, rel=1e-14, abs=0.0)
        assert np.all(res.field.values[-1] == 0.0)

    def test_warm_start_just_below_the_kink_is_on_it(self):
        mesh = Mesh(17, 64)
        on = np.repeat(1.0 - 0.6 * np.linspace(0.0, 1.0, mesh.n_s)[:, None], mesh.n_theta, axis=1)
        on[-1] = 0.4
        below = on.copy()
        below[-1] = 0.4 - 5e-13
        a, b = (solve_state(self.PAIR, self.KINKED, mesh, u0=u0) for u0 in (on, below))
        assert np.array_equal(a.field.values, b.field.values)
        assert (a.energy, a.iterations, a.residual) == (b.energy, b.iterations, b.residual)


class TestQuadraticForcing:
    """A quadratic law (`DissipationLaw.quadratic`) makes the Newton model
    exact on the free nodes, so CG cuts its residual by 0.1 stop / residual
    and, on these pairs, one Newton step ends the solve."""

    # Energies under convection of the pairs below, from the solver that
    # forced every law's CG to min(0.1, sqrt(residual)) relative accuracy:
    # (d, n_s) -> total.  That solver took 4 to 6 Newton steps on each.
    ENERGIES = {
        (0.6, 17): 4.842652243139708,
        (0.6, 33): 4.84259998157942,
        (1.2, 17): 5.075017397802812,
        (1.2, 33): 5.074793634892863,
        (1.45, 17): 5.250157159877506,
        (1.45, 33): 5.249897412129059,
    }

    @staticmethod
    def lopsided(d):
        """The inner unit circle in the outer radius 2.4975 + d cos(theta)."""
        return StarPair(FourierShape([1.0, 0.0, 0.0]), FourierShape([2.4975, d, 0.0]))

    def test_lopsided_pairs_take_one_newton_step(self, preconditioner_calls):
        for (d, n_s), energy in self.ENERGIES.items():
            res = solve_state(self.lopsided(d), Convection(1.0), Mesh(n_s, 4 * (n_s - 1)))
            assert res.iterations == 1, (d, n_s)
            assert res.energy.total == pytest.approx(energy, rel=1e-12, abs=0.0), (d, n_s)
        # The solver that forced CG as for any law took 236 applications.
        assert len(preconditioner_calls) <= 236

    def test_tolerance_at_rounding_ends(self, preconditioner_calls, alarm):
        # A tol below the rounding floor (3.1e-14 here) stops at the floor,
        # and CG's target stays above 0: a target of 0 drives CG past
        # rounding into a division by zero.  2 Newton steps, 122 applications.
        res = solve_state(self.lopsided(1.45), Convection(1.0), Mesh(65, 256), tol=1e-14)
        assert len(preconditioner_calls) <= 200
        assert res.energy.total == pytest.approx(5.249832586927598, rel=1e-12)


@dataclass(frozen=True)
class _Root(Linear):
    """theta = c sqrt(u), computed as `Power(c, 0.5)` computes it, on a class
    whose parent law is convex."""

    def _raw(self, u):
        return self.c * np.power(u, 0.5)

    def _jet(self, u):
        slope = self.c * 0.5 * np.power(u, -0.5)
        return slope, slope, self.c * 0.5 * -0.5 * np.power(u, -1.5)


@dataclass(frozen=True)
class _Flat(Convection):
    """theta = beta u, `Linear`'s law, on a class whose parent is quadratic."""

    def _raw(self, u):
        return self.beta * u

    def _jet(self, u):
        return np.full_like(u, self.beta), np.full_like(u, self.beta), np.zeros_like(u)


class TestLawFromJet:
    """A solve reads the law only through its value, jet and breakpoints, so
    a law solves as the built-in law with the same theta, whatever its
    class: `convex` and `quadratic` follow from the jet, not the class."""

    PAIR = TestQuadraticForcing.lopsided(1.45)

    @pytest.mark.parametrize(
        "law, twin", [(_Root(1.0), Power(1.0, 0.5)), (_Flat(1.0), Linear(1.0))], ids=["root", "flat"]
    )
    def test_subclass_solves_as_its_twin(self, law, twin):
        # With the flags set per class, _Root took Linear's convex path and
        # stopped at energy 20.53 (Power: 7.978), and _Flat took
        # Convection's quadratic one, in 2 Newton steps where Linear takes 6.
        got, want = (solve_state(self.PAIR, x, Mesh(17, 64)) for x in (law, twin))
        assert (got.energy, got.iterations) == (want.energy, want.iterations)
        assert np.array_equal(got.field.values, want.field.values)

    @pytest.mark.parametrize("c", [0.3, 1.0, 1.5, 7.5])
    def test_power_two_is_convection(self, c):
        # Power(c, 2) is convection's law, rounded alike, so it takes the
        # exact Newton model to bitwise the same state.
        got, want = (solve_state(self.PAIR, x, Mesh(17, 64)) for x in (Power(c, 2.0), Convection(c)))
        assert got.iterations == want.iterations == 1
        assert (got.energy, got.residual) == (want.energy, want.residual)
        assert np.array_equal(got.field.values, want.field.values)


class TestRadialStart:
    """The cold start: the harmonic profile whose outer trace minimizes the
    concentric shell energy (`_radial_start`)."""

    LAWS = [
        Convection(1.0),
        Radiation(1.0),
        Linear(0.7),
        Power(1.0, 0.5),
        Power(2.0, 1.5),
        SurfaceCost(0.3, 1.0, 0.9),
        Tabulated([(0, 0), (0.4, 0.2), (1, 1.4)]),
    ]

    @pytest.mark.parametrize("R", [1.5, 2.5])
    @pytest.mark.parametrize("law", LAWS, ids=lambda law: type(law).__name__)
    def test_outer_row_is_the_shell_trace_on_circles(self, law, R):
        # Both take one trace problem, whose kappa they round differently;
        # the trace search pins its smooth minima to rounding, and under
        # convection both are the closed form.
        u = _radial_start(Assembly(StarPair.circles(1.0, R), Mesh(9, 32)), law)
        assert np.all(u[0] == 1.0)
        assert np.allclose(u[-1], general_radial_energy(2, law, R).trace, rtol=0.0, atol=1e-15)
        assert np.all(np.diff(u, axis=0) <= 0.0)

    @pytest.mark.parametrize("mesh", [Mesh(9, 32), Mesh(48, 192)], ids=str)
    def test_concentric_convection_starts_solved(self, monkeypatch, mesh):
        # A quadratic law's shell trace is closed form, with no trace search,
        # so a concentric pair starts at its solution.  A value-comparing
        # search left the trace 1e-8 off, and took up to one Newton step.
        monkeypatch.setattr(radial, "_trace_search", None)
        res = solve_state(StarPair.circles(1.0, 2.0), Convection(1.0), mesh)
        assert res.iterations == 0
        assert res.energy.trace == pytest.approx(convection_energy(2, 1.0, 2.0).trace, rel=1e-15, abs=0.0)

    def test_cusp_solve_detaches(self):
        # The shell trace under the cusp of Power(1, 0.5) is 0, and the
        # solve stays detached; from the constant 1 state it ends attached
        # with trace 0.5, 22% higher.
        pair, mesh = TestResidual.PAIR, TestResidual.MESH
        res = solve_state(pair, Power(1.0, 0.5), mesh)
        assert res.energy.total == pytest.approx(9.159886817021768, rel=1e-9)
        assert np.all(res.field.values[-1] == 0.0)
        cold = solve_state(pair, Power(1.0, 0.5), mesh, u0=np.ones((mesh.n_s, mesh.n_theta)))
        assert cold.energy.total == pytest.approx(11.164324672643156, rel=1e-9)


class TestModeSolver:
    """The preconditioner against a dense solve of each rFFT mode's
    tridiagonal system, as its docstring states it; with the outer row held
    (curvature None, passed as inf), against the system with the outer row
    removed."""

    @pytest.mark.parametrize("n_s, n_t", [(9, 32), (33, 128)])
    @pytest.mark.parametrize("curvature", [0.0, 2.5, None])
    def test_matches_dense_mode_solves(self, n_s, n_t, curvature):
        asm = Assembly(perturbed_pair(), Mesh(n_s, n_t))
        solver = _ModeSolver(asm)
        solver.set_curvature(math.inf if curvature is None else curvature)
        rows = n_s - 1 if curvature is None else n_s
        r = np.random.default_rng(n_s).standard_normal((n_s, n_t))
        pe = np.mean(asm._pe, axis=1)
        ce = np.mean(asm._ce[1:], axis=1)
        rhs = np.fft.rfft(r[1:], axis=1)
        x = np.zeros_like(rhs)
        for k in range(rhs.shape[1]):
            wave = 2.0 - 2.0 * math.cos(2.0 * math.pi * k / n_t)
            A = np.diag(pe + np.append(pe[1:], 0.0) + ce * wave)
            A -= np.diag(pe[1:], 1) + np.diag(pe[1:], -1)
            A[-1, -1] += curvature or 0.0
            x[: rows - 1, k] = np.linalg.solve(A[: rows - 1, : rows - 1], rhs[: rows - 1, k])
        expected = np.fft.irfft(x, n=n_t, axis=1)
        got = solver(r)
        assert np.all(got[0] == 0.0)
        assert np.all(got[rows:] == 0.0)
        assert np.max(np.abs(got[1:] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_curvature_frees_a_held_row(self):
        asm = Assembly(perturbed_pair(), Mesh(9, 32))
        r = np.random.default_rng(0).standard_normal((9, 32))
        free, solver = _ModeSolver(asm), _ModeSolver(asm)
        solver.set_curvature(math.inf)
        solver.set_curvature(0.0)
        assert np.array_equal(solver(r), free(r))


class TestUniformBasis:
    @pytest.mark.parametrize("n, order", [(32, 0), (128, 3), (1024, 16)])
    def test_read_only_and_equal_to_fourier_basis(self, n, order):
        cached = _uniform_basis(n, order)
        fresh = _fourier_basis(np.arange(n) * (2.0 * math.pi / n), order)
        assert _uniform_basis(n, order) is cached
        for a, b in zip(cached, fresh):
            assert not a.flags.writeable
            assert np.array_equal(a, b)
            with pytest.raises(ValueError):
                a[0, 0] = 1.0


class TestAssemblyCache:
    def test_equal_pair_hits_and_another_mesh_builds(self, monkeypatch):
        built = []
        init = Assembly.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Assembly, "__init__", counted)
        _assembly.cache_clear()
        first = _assembly(perturbed_pair(), Mesh(9, 32))
        fresh = perturbed_pair()
        assert fresh is not first.pair and fresh == first.pair
        assert _assembly(fresh, Mesh(9, 32)) is first
        other = _assembly(fresh, Mesh(9, 64))
        assert other is not first and other.mesh == Mesh(9, 64)
        assert len(built) == 2

    def test_arrays_read_only(self):
        asm = Assembly(perturbed_pair(), Mesh(9, 32))
        arrays = [v for v in vars(asm).values() if isinstance(v, np.ndarray)]
        assert len(arrays) >= 10
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


class TestFieldDump:
    def test_round_trip(self, tmp_path):
        pair = perturbed_pair()
        res = solve_state(pair, Convection(1.0), Mesh(17, 64))
        path = str(tmp_path / "field.csv")
        dump_field(res.field, path)
        loaded = load_field(path)
        assert loaded.mesh == res.field.mesh
        assert np.array_equal(loaded.values, res.field.values)
        assert loaded.pair.inner.coeffs == pair.inner.coeffs
        head = open(path).readline().split(",")
        assert int(head[0]) == 17 and int(head[1]) == 64

    def test_extra_rows_rejected(self, tmp_path):
        # A 5x8 field file with one more value row and a line of garbage.
        path = str(tmp_path / "field.csv")
        dump_field(ScalarField(np.full((5, 8), 0.5), Mesh(5, 8), StarPair.circles(1.0, 2.0)), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(",".join(["0.5"] * 8) + "\ngarbage,row\n")
        with pytest.raises(ValueError, match="^field file holds 7 value rows, its header announces 5$"):
            load_field(path)

    def test_numeric_values_become_floats(self):
        # A nested list and an integer array are ordinary input; a float64
        # array is kept as the same object.
        pair, mesh = StarPair.circles(1.0, 2.0), Mesh(3, 8)
        rows = [[1] * 8, [1] * 8, [0] * 8]
        expected = energy_of(ScalarField(np.array(rows, dtype=float), mesh, pair), pair, Convection(1.0))
        for values in (rows, np.array(rows)):
            field = ScalarField(values, mesh, pair)
            assert field.values.dtype == np.float64
            assert energy_of(field, pair, Convection(1.0)) == expected
        floats = np.ones((3, 8))
        assert ScalarField(floats, mesh, pair).values is floats

    def test_non_numeric_values_rejected(self):
        with pytest.raises(ValueError):
            ScalarField(np.full((3, 8), "hot"), Mesh(3, 8), StarPair.circles(1.0, 2.0))

    def test_wrong_shape_rejected(self):
        with pytest.raises(MeshMismatchError, match=r"field shape \(3, 7\) does not match mesh \(3, 8\)"):
            ScalarField(values=np.ones((3, 7)), mesh=Mesh(3, 8), pair=StarPair.circles(1.0, 2.0))

    def test_header_with_wrong_coefficient_count_rejected(self, tmp_path):
        # Order 1 announces 3 + 3 coefficients; the header holds 5.
        path = tmp_path / "field.csv"
        path.write_text("3,8,1,1.0,0.0,0.0,2.5,0.0\n" + "1.0,1.0\n" * 3)
        with pytest.raises(ValueError, match="wrong number of coefficients"):
            load_field(str(path))

    def test_exact_text(self, tmp_path):
        # Integers in decimal, floats as their shortest round-trip repr (the
        # outer coefficients are padded to the larger order), a newline
        # after every row.
        pair = StarPair(FourierShape([1]), FourierShape([2.5, 0.0, 0.125]))
        values = np.full((3, 8), 1.0 / 3.0)
        values[0] = 1
        path = str(tmp_path / "field.csv")
        dump_field(ScalarField(values=values, mesh=Mesh(3, 8), pair=pair), path)
        third = ",".join(["0.3333333333333333"] * 8)
        expected = f"3,8,1,1.0,0.0,0.0,2.5,0.0,0.125\n{','.join(['1.0'] * 8)}\n{third}\n{third}\n"
        assert open(path).read() == expected
