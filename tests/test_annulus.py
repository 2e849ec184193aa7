"""Annulus state solver: geometry, assembly, accuracy, and invariants."""

import math

import numpy as np
import pytest

from thermoshield.annulus import (
    Assembly,
    ConvergenceError,
    FourierShape,
    GeometryError,
    Mesh,
    MeshMismatchError,
    ScalarField,
    StarPair,
    _fourier_basis,
    _ModeSolver,
    _uniform_basis,
    dump_field,
    energy_of,
    load_field,
    scale_field,
    solve_state,
)
from thermoshield.dissipation import Convection, Power, Radiation, SurfaceCost, Tabulated
from thermoshield.radial import convection_energy, general_radial_energy

ZERO_LAW = Tabulated([(0, 0), (1, 0)])


def perturbed_pair(amp_inner=0.05, amp_outer=0.1, mode=2, r_out=2.0):
    inner = [1.0] + [0.0] * (2 * mode)
    outer = [r_out] + [0.0] * (2 * mode)
    inner[2 * mode - 1] = amp_inner
    outer[2 * mode - 1] = amp_outer
    return StarPair(FourierShape(inner), FourierShape(outer))


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


class TestSolveAccuracy:
    def test_circles_match_radial_oracle(self):
        res = solve_state(StarPair.circles(1.0, 2.0), Convection(1.0), Mesh(64, 256))
        exact = convection_energy(2, 1.0, 2.0).total
        assert res.energy.total == pytest.approx(exact, rel=1e-2)
        # The scheme is second order; the margin over 1% is three decades.
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
        exact = convection_energy(2, 1.0, 2.0).total
        errs = []
        for n_s, n_t in ((17, 64), (33, 128), (65, 256)):
            res = solve_state(StarPair.circles(1.0, 2.0), Convection(1.0), Mesh(n_s, n_t))
            errs.append(abs(res.energy.total - exact))
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
        with pytest.raises(ConvergenceError):
            solve_state(perturbed_pair(), Convection(1.0), Mesh(33, 128), max_iters=3)

    def test_warm_start_shape_checked(self):
        with pytest.raises(MeshMismatchError):
            solve_state(
                perturbed_pair(), Convection(1.0), Mesh(33, 128), u0=np.ones((5, 5))
            )


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
        # Under the surface-cost jump the clipped Newton model cannot see the
        # gain of detaching the outer row; doubling the full step finds it.
        # Without doubling this solve stops attached, at energy 12.4694
        # (36% higher) and a residual as small: only the energy tells.
        res = solve_state(self.PAIR, SurfaceCost(0.3, 1.0, 0.9), Mesh(17, 64))
        assert res.energy.total == pytest.approx(9.161618945733837, rel=1e-9)
        assert np.all(res.field.values[-1] == 0.0)


class TestModeSolver:
    """The preconditioner against a dense solve of each rFFT mode's
    tridiagonal system, as its docstring states it."""

    @pytest.mark.parametrize("n_s, n_t", [(9, 32), (33, 128)])
    @pytest.mark.parametrize("curvature", [0.0, 2.5])
    def test_matches_dense_mode_solves(self, n_s, n_t, curvature):
        asm = Assembly(perturbed_pair(), Mesh(n_s, n_t))
        solver = _ModeSolver(asm)
        solver.set_curvature(curvature)
        r = np.random.default_rng(n_s).standard_normal((n_s, n_t))
        pe = 2.0 * np.mean(asm._Pe, axis=1) / asm.ds**2
        ce = 2.0 * np.mean(asm._Ce[1:], axis=1) / asm.dt**2
        rhs = np.fft.rfft(r[1:], axis=1)
        x = np.empty_like(rhs)
        for k in range(rhs.shape[1]):
            wave = 2.0 - 2.0 * math.cos(2.0 * math.pi * k / n_t)
            A = np.diag(pe + np.append(pe[1:], 0.0) + ce * wave)
            A -= np.diag(pe[1:], 1) + np.diag(pe[1:], -1)
            A[-1, -1] += curvature
            x[:, k] = np.linalg.solve(A, rhs[:, k])
        expected = np.fft.irfft(x, n=n_t, axis=1)
        got = solver(r)
        assert np.all(got[0] == 0.0)
        assert np.max(np.abs(got[1:] - expected)) <= 1e-12 * np.max(np.abs(expected))


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


class TestScaleField:
    def test_identity(self):
        pair = StarPair.circles(1.0, 2.0)
        res = solve_state(pair, Convection(1.0), Mesh(17, 64))
        f2, p2 = scale_field(res.field, pair, 1.0)
        e2 = energy_of(f2, p2, Convection(1.0))
        assert e2.total == pytest.approx(res.energy.total, rel=1e-12)

    def test_dilation_exponents(self):
        # Fixed nodal values in 2D: Dirichlet invariant, boundary scales by t.
        pair = StarPair.circles(1.0, 2.0)
        res = solve_state(pair, Convection(1.0), Mesh(17, 64))
        base = energy_of(res.field, pair, Convection(1.0))
        f2, p2 = scale_field(res.field, pair, 2.0)
        scaled = energy_of(f2, p2, Convection(1.0))
        assert scaled.dirichlet == pytest.approx(base.dirichlet, rel=1e-12)
        assert scaled.boundary == pytest.approx(2.0 * base.boundary, rel=1e-12)

    def test_gap_violation(self):
        pair = StarPair.circles(1.0, 1.005)
        res = solve_state(pair, Convection(1.0), Mesh(17, 64))
        with pytest.raises(GeometryError):
            scale_field(res.field, pair, 0.1)


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
