"""Level decompositions, the comparison functional, dearrangement,
truncation scans, and the high-cutoff bound."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from thermoshield.annulus import (
    FourierShape,
    Mesh,
    MeshMismatchError,
    ScalarField,
    StarPair,
    energy_of,
    solve_state,
)
from thermoshield.dissipation import Convection, Radiation, SurfaceCost, Tabulated, unit_ball_volume
from thermoshield.levelset import (
    DegenerateFieldError,
    RadialReference,
    dearrangement,
    decompose_levels,
    h_function,
    h_inequality_check,
    high_cutoff_bound,
    levels_to_csv,
    nodal_gradient_ratio,
    truncation_scan,
)
from thermoshield.radial import convection_energy, convection_state

ZERO_LAW = Tabulated([(0, 0), (1, 0)])


@pytest.fixture(scope="module")
def solved_circles():
    pair = StarPair.circles(1.0, 2.0)
    mesh = Mesh(64, 256)
    res = solve_state(pair, Convection(1.0), mesh)
    return pair, res


class TestDecomposeLevels:
    def test_exterior_length_steps_at_trace(self, solved_circles):
        pair, res = solved_circles
        dec = decompose_levels(res.field, pair, 40)
        trace = res.energy.trace
        below = dec.levels < trace - 0.02
        above = dec.levels > trace + 0.02
        assert np.allclose(dec.exterior_length[below], 4 * math.pi, rtol=1e-6)
        assert np.all(dec.exterior_length[above] == 0.0)

    def test_interior_length_matches_inverted_state(self, solved_circles):
        pair, res = solved_circles
        dec = decompose_levels(res.field, pair, 40)
        trace = res.energy.trace
        for k, t in enumerate(dec.levels):
            if t <= trace + 0.02:
                continue
            rho_t = brentq(lambda r: convection_state(2, 1.0, 2.0, r) - t, 1.0, 2.0)
            assert dec.interior_length[k] == pytest.approx(2 * math.pi * rho_t, rel=1e-2)

    def test_areas_nonincreasing_and_vanishing(self, solved_circles):
        pair, res = solved_circles
        dec = decompose_levels(res.field, pair, 40)
        assert np.all(np.diff(dec.area) <= 1e-12)
        # Near the hot end the superlevel set inside the annulus is a thin
        # collar of the inner boundary.
        assert dec.area[-1] < 0.2
        assert dec.area[0] == pytest.approx(3 * math.pi, rel=1e-3)

    def test_area_against_cell_count(self, solved_circles):
        pair, res = solved_circles
        dec = decompose_levels(res.field, pair, 16)
        from thermoshield.annulus import Assembly

        asm = Assembly(pair, res.field.mesh)
        u = res.field.values
        cell_mean = 0.25 * (
            u[:-1] + u[1:] + np.roll(u, -1, axis=1)[:-1] + np.roll(u, -1, axis=1)[1:]
        )
        cell_area = 0.5 * (asm.rho[:-1] + asm.rho[1:]) * asm.g[None, :] * asm.ds * asm.dt
        layer = float(cell_area.sum()) / (res.field.mesh.n_s - 1)
        for k, t in enumerate(dec.levels):
            count = float(cell_area[cell_mean > t].sum())
            assert abs(count - dec.area[k]) < layer

    def test_constant_field_degenerate(self):
        pair = StarPair.circles(1.0, 2.0)
        mesh = Mesh(17, 64)
        field = ScalarField(values=np.ones((17, 64)), mesh=mesh, pair=pair)
        with pytest.raises(DegenerateFieldError):
            decompose_levels(field, pair, 8)

    def test_no_levels_rejected(self, solved_circles):
        pair, res = solved_circles
        with pytest.raises(ValueError, match="n_levels"):
            decompose_levels(res.field, pair, 0)


class TestHFunction:
    def test_zero_density(self, solved_circles):
        pair, res = solved_circles
        phi = ScalarField(
            values=np.zeros_like(res.field.values), mesh=res.field.mesh, pair=pair
        )
        dec = decompose_levels(res.field, pair, 16, density=phi)
        h = h_function(dec, 1.0)
        assert np.allclose(h, dec.exterior_length)
        assert np.all(h >= 0.0)

    def test_requires_density(self, solved_circles):
        pair, res = solved_circles
        dec = decompose_levels(res.field, pair, 8)
        with pytest.raises(ValueError):
            h_function(dec, 1.0)

    def test_density_grid_mismatch(self, solved_circles):
        pair, res = solved_circles
        other = ScalarField(values=np.zeros((17, 64)), mesh=Mesh(17, 64), pair=pair)
        with pytest.raises(ValueError):
            decompose_levels(res.field, pair, 8, density=other)

    def test_gradient_ratio_density_reproduces_energy(self, solved_circles):
        # With phi = |grad u|/u the comparison functional equals the energy
        # at every level; discretely the spread stays within 2%.
        pair, res = solved_circles
        phi = nodal_gradient_ratio(res.field, pair)
        dec = decompose_levels(res.field, pair, 40, density=phi)
        h = h_function(dec, 1.0)
        energy = res.energy.total
        assert float(h.std()) <= 0.02 * energy
        assert float(np.abs(h - energy).max()) <= 0.02 * energy

    def test_large_constant_density_negative(self, solved_circles):
        pair, res = solved_circles
        phi = ScalarField(
            values=np.full_like(res.field.values, 20.0), mesh=res.field.mesh, pair=pair
        )
        dec = decompose_levels(res.field, pair, 8, density=phi)
        h = h_function(dec, 1.0)
        assert np.any(h < 0.0)


class TestDearrangement:
    def test_radial_field_reproduces_its_own_ratio(self, solved_circles):
        pair, res = solved_circles
        ref = RadialReference(2, 1.0, 2.0)
        phi = dearrangement(res.field, pair, ref)
        direct = nodal_gradient_ratio(res.field, pair)
        rel = np.abs(phi.values - direct.values) / np.maximum(direct.values, 1e-6)
        assert float(rel.max()) < 1e-2

    def test_constant_on_level_sets(self, solved_circles):
        pair, res = solved_circles
        phi = dearrangement(res.field, pair, RadialReference(2, 1.0, 2.0))
        u = res.field.values
        # The same nodal value maps to the same transplanted value.
        i, j1, j2 = 10, 3, 77
        assert u[i, j1] == u[i, j2]
        assert phi.values[i, j1] == phi.values[i, j2]

    @pytest.mark.parametrize(
        "n, beta, R, name",
        [
            (1, 1.0, 2.0, "n"),
            (2.0, 1.0, 2.0, "n"),
            (2, -1.0, 2.0, "beta"),
            (2, 0.0, 2.0, "beta"),
            (2, math.nan, 2.0, "beta"),
            (2, 1.0, 0.5, "R"),
            (2, 1.0, math.inf, "R"),
        ],
    )
    def test_reference_rejects_nonsense(self, n, beta, R, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            RadialReference(n, beta, R)

    def test_volume_matched_perturbed_pair_chain(self):
        # min_t H(t, phi) sits between the ball-pair energy (lower bound
        # from the transplant) and the pair energy (existence of a good t).
        amp = 0.1
        outer = FourierShape([2.0, 0.0, 0.0, amp, 0.0])
        outer = outer.scaled(math.sqrt(4 * math.pi / outer.area()))
        pair = StarPair(FourierShape.circle(1.0), outer)
        res = solve_state(pair, Convection(1.0), Mesh(64, 256))
        rep = h_inequality_check(res.field, pair, 1.0, 64)
        ball = convection_energy(2, 1.0, 2.0).total
        assert rep.min_H >= ball * 0.98
        assert rep.min_H <= rep.energy * 1.02


@pytest.mark.parametrize(
    "call",
    [
        lambda field, pair: decompose_levels(field, pair, 8),
        nodal_gradient_ratio,
        lambda field, pair: dearrangement(field, pair, RadialReference(2, 1.0, 3.0)),
        lambda field, pair: truncation_scan(field, pair, Convection(1.0), 8),
    ],
    ids=["decompose_levels", "nodal_gradient_ratio", "dearrangement", "truncation_scan"],
)
def test_field_of_another_pair_rejected(solved_circles, call):
    _, res = solved_circles
    with pytest.raises(MeshMismatchError):
        call(res.field, StarPair.circles(1.0, 3.0))


class TestHInequality:
    def test_circles_equality_case(self, solved_circles):
        pair, res = solved_circles
        rep = h_inequality_check(res.field, pair, 1.0, 64)
        assert rep.passes
        assert abs(rep.weighted_integral) < 0.01 * rep.energy

    def test_perturbed_pairs_pass(self):
        for beta in (0.5, 1.0, 2.0):
            pair = StarPair(
                FourierShape([1.0, 0.0, 0.0, 0.05, 0.0]),
                FourierShape([2.0, 0.0, 0.0, 0.0, 0.12]),
            )
            res = solve_state(pair, Convection(beta), Mesh(48, 192))
            assert h_inequality_check(res.field, pair, beta, 64).passes

    def test_matches_public_composition(self):
        pair = StarPair(
            FourierShape([1.0, 0.0, 0.0, 0.05, 0.0]),
            FourierShape([2.0, 0.0, 0.0, 0.0, 0.12]),
        )
        field = solve_state(pair, Convection(1.0), Mesh(17, 64)).field
        rep = h_inequality_check(field, pair, 1.0, 32)
        energy = energy_of(field, pair, Convection(1.0)).total
        ref = RadialReference(2, 1.0, math.sqrt(pair.outer.area() / math.pi))
        dec = decompose_levels(field, pair, 32, density=dearrangement(field, pair, ref))
        h_vals = h_function(dec, 1.0)
        t = dec.levels
        y = t * (h_vals - energy)
        weighted = float(np.trapezoid(y, t)) + float(y[0]) * float(t[0]) + float(y[-1]) * float(1.0 - t[-1])
        assert rep.energy == energy
        assert rep.min_H == float(np.min(h_vals))
        assert rep.weighted_integral == weighted

    def test_field_of_another_pair_rejected(self, solved_circles):
        pair, res = solved_circles
        with pytest.raises(MeshMismatchError):
            h_inequality_check(res.field, StarPair.circles(1.0, 2.5), 1.0, 64)

    def test_adversarial_constant_density(self, solved_circles):
        # The existence of a good level holds for any bounded nonnegative
        # density, not only transplants.
        pair, res = solved_circles
        adv = ScalarField(
            values=np.full_like(res.field.values, 2.0), mesh=res.field.mesh, pair=pair
        )
        rep = h_inequality_check(res.field, pair, 1.0, 64, phi=adv)
        assert rep.passes


class TestTruncationScan:
    def test_solved_field_no_improvement(self, solved_circles):
        pair, res = solved_circles
        rep = truncation_scan(res.field, pair, Convection(1.0), 64)
        assert not rep.improved
        assert rep.best_energy <= rep.reference_energy
        assert rep.best_t == 0.0

    def test_low_trace_field_improves(self):
        pair = StarPair.circles(1.0, 2.0)
        mesh = Mesh(64, 256)
        values = np.ones((64, 256))
        values[32:, :] = 1e-3
        field = ScalarField(values=values, mesh=mesh, pair=pair)
        rep = truncation_scan(field, pair, Convection(1.0), 64)
        assert rep.improved
        assert rep.best_t >= 1e-3
        assert rep.best_energy < rep.reference_energy - 1.0

    def test_zero_law_never_improves_strictly(self):
        pair = StarPair.circles(1.0, 2.0)
        mesh = Mesh(33, 128)
        rng = np.random.default_rng(5)
        values = np.clip(rng.uniform(0.3, 1.0, (33, 128)), 0, 1)
        values[0] = 1.0
        field = ScalarField(values=values, mesh=mesh, pair=pair)
        rep = truncation_scan(field, pair, ZERO_LAW, 32)
        assert rep.best_energy <= rep.reference_energy

    def test_surface_cost_crack_priced(self, solved_circles):
        pair, res = solved_circles
        rep = truncation_scan(res.field, pair, SurfaceCost(1.0, 0.0, 1.0), 32)
        assert rep.best_energy <= rep.reference_energy

    def test_no_thresholds_rejected(self, solved_circles):
        pair, res = solved_circles
        with pytest.raises(ValueError, match="n_thresholds"):
            truncation_scan(res.field, pair, Convection(1.0), 0)


class TestHighCutoff:
    def test_no_volume_excess(self):
        rep = high_cutoff_bound(Convection(1.0), 2, math.pi)
        assert rep.feasible
        assert rep.delta == pytest.approx(4095.0 / 4096.0)

    def test_small_excess(self):
        rep = high_cutoff_bound(Convection(1.0), 2, math.pi + 1e-8)
        assert rep.feasible
        # Largest root of d + 0.01/d < 1 for the quadratic law.
        exact = (1.0 + math.sqrt(1.0 - 0.04)) / 2.0
        assert rep.delta == pytest.approx(exact, abs=1e-3)
        assert rep.delta > 0.98

    def test_large_excess_infeasible(self):
        rep = high_cutoff_bound(Convection(1.0), 2, math.pi + 10.0)
        assert not rep.feasible

    def test_matches_grid_oracle(self):
        law = Convection(1.0)
        n, M, C = 2, math.pi + 0.5, 1.0
        rep = high_cutoff_bound(law, n, M, C)
        deltas = np.arange(1, 4096) / 4096
        w = unit_ball_volume(n)
        term = C * law.value(1.0) * (M - w) ** 0.25 / np.sqrt(law.value(deltas))
        ok = deltas + term < 1.0
        if np.any(ok):
            assert rep.feasible and rep.delta == pytest.approx(float(deltas[ok][-1]))
        else:
            assert not rep.feasible

    def test_monotone_in_excess(self):
        d1 = high_cutoff_bound(Convection(1.0), 2, math.pi + 1e-8).delta
        d2 = high_cutoff_bound(Convection(1.0), 2, math.pi + 1e-4).delta
        assert d1 >= d2

    def test_below_unit_volume_rejected(self):
        with pytest.raises(ValueError):
            high_cutoff_bound(Convection(1.0), 2, 1.0)

    def test_nan_budget_rejected(self):
        with pytest.raises(ValueError, match="M must be a finite real number"):
            high_cutoff_bound(Radiation(1.0), 2, math.nan)

    def test_fractional_dimension_rejected(self):
        with pytest.raises(ValueError, match="n must be an integer of at least 2"):
            high_cutoff_bound(Radiation(1.0), 2.5, 10.0)


class TestLevelsCsv:
    def test_round_trip_columns(self, solved_circles, tmp_path):
        pair, res = solved_circles
        phi = nodal_gradient_ratio(res.field, pair)
        dec = decompose_levels(res.field, pair, 8, density=phi)
        path = str(tmp_path / "levels.csv")
        levels_to_csv(dec, 1.0, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "t,interior_length,exterior_length,area,H_value"
        assert len(lines) == 9
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == pytest.approx(dec.levels[0])
        h = h_function(dec, 1.0)
        assert row[4] == pytest.approx(float(h[0]))

    def test_without_density_blank_h(self, solved_circles, tmp_path):
        pair, res = solved_circles
        dec = decompose_levels(res.field, pair, 4)
        path = str(tmp_path / "levels.csv")
        levels_to_csv(dec, 1.0, path)
        lines = open(path).read().splitlines()
        assert lines[1].endswith(",")
