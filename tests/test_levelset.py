"""Level decompositions, the comparison functional, dearrangement,
truncation scans, and the high-cutoff bound."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from thermoshield.annulus import (
    Assembly,
    FourierShape,
    Mesh,
    MeshMismatchError,
    ScalarField,
    StarPair,
    _assembly,
    energy_of,
    solve_state,
)
from thermoshield.dissipation import Convection, Power, Radiation, SurfaceCost, Tabulated, unit_ball_volume
from thermoshield.levelset import (
    DegenerateFieldError,
    _geometry,
    _Triangulation,
    dearrangement,
    decompose_levels,
    h_function,
    h_inequality_check,
    high_cutoff_bound,
    levels_to_csv,
    nodal_gradient_ratio,
    truncation_scan,
)
from thermoshield.radial import convection_energy, convection_state, gradient_ratio

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
        asm = Assembly(pair, res.field.mesh)
        u = res.field.values
        cell_mean = 0.25 * (
            u[:-1] + u[1:] + np.roll(u, -1, axis=1)[:-1] + np.roll(u, -1, axis=1)[1:]
        )
        cell_area = 0.5 * (asm.rho[:-1] + asm.rho[1:]) * np.diff(asm.rho, axis=0) * asm.dt
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
        with pytest.raises(MeshMismatchError, match=DENSITY_MISMATCH):
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

    def test_concentric_gradient_ratio_is_exact(self):
        # The concentric state is linear in s under the log-polar map, so
        # its centered differences are exact: the nodal ratio is the radial
        # one at every node.
        pair, mesh = StarPair.circles(1.0, 2.0), Mesh(17, 64)
        res = solve_state(pair, Convection(1.0), mesh, tol=1e-11)
        ratio = nodal_gradient_ratio(res.field, pair).values
        exact = gradient_ratio(2, 1.0, 2.0, Assembly(pair, mesh).rho)
        assert np.max(np.abs(ratio - exact) / exact) <= 1e-12

    def test_gradient_ratio_finite_on_a_detached_state(self):
        # The power law's cusp at 0 detaches the whole outer row, where the
        # ratio divides by a floor on u rather than by 0.
        pair = StarPair(FourierShape([1, 0, 0, 0.05, 0]), FourierShape([2, 0, 0, 0, 0.12]))
        res = solve_state(pair, Power(1.0, 0.5), Mesh(17, 64))
        assert np.all(res.field.values[-1] == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ratio = nodal_gradient_ratio(res.field, pair).values
        assert np.all(np.isfinite(ratio))


class TestDearrangement:
    def test_radial_field_reproduces_its_own_ratio(self, solved_circles):
        pair, res = solved_circles
        phi = dearrangement(res.field, pair, 1.0)
        direct = nodal_gradient_ratio(res.field, pair)
        rel = np.abs(phi.values - direct.values) / np.maximum(direct.values, 1e-6)
        assert float(rel.max()) < 1e-2

    def test_small_inner_disc_reproduces_its_own_ratio(self):
        # |K| < pi: the volume radii of the superlevel sets start at
        # sqrt(|K|/pi) = 0.7, below the unit radius.
        pair = StarPair.circles(0.7, 1.6)
        res = solve_state(pair, Convection(1.0), Mesh(48, 192))
        phi = dearrangement(res.field, pair, 1.0)
        direct = nodal_gradient_ratio(res.field, pair)
        rel = np.abs(phi.values - direct.values) / np.maximum(direct.values, 1e-6)
        assert float(rel.max()) < 1e-2

    def test_outer_disc_below_unit_radius(self):
        # |Omega| < pi: the reference radius R = 0.8 is below 1, where the
        # 2D ratio is as well defined as above it.
        pair = StarPair.circles(0.3, 0.8)
        res = solve_state(pair, Convection(1.0), Mesh(17, 64))
        phi = dearrangement(res.field, pair, 1.0)
        direct = nodal_gradient_ratio(res.field, pair)
        rel = np.abs(phi.values - direct.values) / np.maximum(direct.values, 1e-6)
        assert float(rel.max()) < 1e-2
        assert h_inequality_check(res.field, pair, 1.0).passes

    def test_constant_on_level_sets(self, solved_circles):
        pair, res = solved_circles
        phi = dearrangement(res.field, pair, 1.0)
        u = res.field.values
        # The same nodal value maps to the same transplanted value.
        i, j1, j2 = 10, 3, 77
        assert u[i, j1] == u[i, j2]
        assert phi.values[i, j1] == phi.values[i, j2]

    @pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan])
    def test_rejects_nonsense_beta(self, solved_circles, beta):
        pair, res = solved_circles
        with pytest.raises(ValueError, match="^beta must"):
            dearrangement(res.field, pair, beta)

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
        lambda field, pair: dearrangement(field, pair, 1.0),
        lambda field, pair: truncation_scan(field, pair, Convection(1.0), 8),
    ],
    ids=["decompose_levels", "nodal_gradient_ratio", "dearrangement", "truncation_scan"],
)
def test_field_of_another_pair_rejected(solved_circles, call):
    _, res = solved_circles
    with pytest.raises(MeshMismatchError):
        call(res.field, StarPair.circles(1.0, 3.0))


def _density_of_another_pair(field):
    """A density on the field's mesh, built on the circles (1, 2.5)."""
    return ScalarField(
        values=np.ones_like(field.values), mesh=field.mesh, pair=StarPair.circles(1.0, 2.5)
    )


DENSITY_MISMATCH = "^density was built on another pair or mesh than the field$"


def test_density_of_another_pair_rejected(solved_circles):
    pair, res = solved_circles
    with pytest.raises(MeshMismatchError, match=DENSITY_MISMATCH):
        decompose_levels(res.field, pair, 16, _density_of_another_pair(res.field))


@pytest.mark.parametrize(
    "call",
    [
        lambda field, pair: energy_of(field, pair, Convection(1.0)),
        nodal_gradient_ratio,
        lambda field, pair: h_inequality_check(field, pair, 1.0, 16),
        lambda field, pair: decompose_levels(field, pair, 16),
        lambda field, pair: truncation_scan(field, pair, Convection(1.0), 16),
    ],
    ids=["energy_of", "nodal_gradient_ratio", "h_inequality_check", "decompose_levels", "truncation_scan"],
)
def test_solved_field_reuses_its_assembly(monkeypatch, call):
    """Each function on a field just solved reads the assembly it was
    solved on and builds none of its own."""
    pair = StarPair(
        FourierShape([1.0, 0.0, 0.0, 0.05, 0.0]),
        FourierShape([2.0, 0.0, 0.0, 0.0, 0.12]),
    )
    field = solve_state(pair, Convection(1.0), Mesh(17, 64)).field
    built = []
    init = Assembly.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Assembly, "__init__", counted)
    call(field, pair)
    assert built == []


def _verify_h_field():
    """The `verify h` field at 17x64 (beta 1.2, amplitude 0.1) and its pair."""
    pair = StarPair(FourierShape.circle(1.0), FourierShape([2.0, 0.0, 0.0, 0.1, 0.0]))
    return pair, solve_state(pair, Convection(1.2), Mesh(17, 64)).field


@pytest.mark.parametrize(
    "call",
    [
        lambda field, pair: energy_of(field, pair, Convection(1.2)),
        lambda field, pair: decompose_levels(field, pair, 16),
        nodal_gradient_ratio,
        lambda field, pair: dearrangement(field, pair, 1.2),
        lambda field, pair: h_inequality_check(field, pair, 1.2, 16),
        lambda field, pair: truncation_scan(field, pair, Convection(1.2), 16),
    ],
    ids=["energy_of", "decompose_levels", "nodal_gradient_ratio", "dearrangement", "h_inequality_check",
         "truncation_scan"],
)
def test_non_finite_field_rejected(call):
    # Each returned NaN, or (dearrangement) raised with the whole radius
    # array as its message.
    pair, field = _verify_h_field()
    values = field.values.copy()
    values[values > 0.5] = np.nan
    with pytest.raises(ValueError, match="^field has a NaN or infinite value$"):
        call(ScalarField(values=values, mesh=field.mesh, pair=pair), pair)


@pytest.mark.parametrize("value", [-1.0, np.inf, np.nan])
def test_invalid_density_rejected(value):
    # A density of -1 passed the H check (min_H -18.37 against energy 5.67);
    # an infinite one returned NaN with a RuntimeWarning.
    pair, field = _verify_h_field()
    values = np.ones_like(field.values)
    values[3, 5] = value
    phi = ScalarField(values=values, mesh=field.mesh, pair=pair)
    with pytest.raises(ValueError, match="^density has a negative or non-finite value$"):
        decompose_levels(field, pair, 16, phi)
    with pytest.raises(ValueError, match="^density has a negative or non-finite value$"):
        h_inequality_check(field, pair, 1.2, 16, phi)


@pytest.mark.parametrize("beta", [np.nan, np.inf, 0.0, -1.0])
def test_h_function_rejects_beta(beta):
    pair, field = _verify_h_field()
    dec = decompose_levels(field, pair, 16, nodal_gradient_ratio(field, pair))
    with pytest.raises(ValueError, match="beta"):
        h_function(dec, beta)


def test_triangulations_share_one_geometry():
    pair, field = _verify_h_field()
    asm = _assembly(pair, field.mesh)
    a, b = _Triangulation(asm, field.values), _Triangulation(asm, 1.0 - field.values)
    for x, y in ((a.vx, b.vx), (a.vy, b.vy), (a.tri_area, b.tri_area)):
        assert x is y
        assert not x.flags.writeable
    # The H check's dearrangement and decomposition build it once.
    _geometry.cache_clear()
    h_inequality_check(field, pair, 1.2, 16)
    assert _geometry.cache_info().misses == 1


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
        dec = decompose_levels(field, pair, 32, density=dearrangement(field, pair, 1.0))
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

    def test_density_of_another_pair_rejected(self, solved_circles):
        pair, res = solved_circles
        with pytest.raises(MeshMismatchError, match=DENSITY_MISMATCH):
            h_inequality_check(res.field, pair, 1.0, 64, phi=_density_of_another_pair(res.field))

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

    def test_fractional_threshold_count_rejected(self, solved_circles):
        # np.arange(2.5) / 2.5 would scan 0, 0.4 and 0.8.
        pair, res = solved_circles
        with pytest.raises(ValueError, match="n_thresholds"):
            truncation_scan(res.field, pair, Convection(1.0), 2.5)


# Each count of this layer: its name and a call on a solved field that passes it.
COUNTS = {
    "decompose": ("n_levels", lambda f, p, v: decompose_levels(f, p, v)),
    # n_levels=2.5 would scan the levels 0.2, 0.6 and 1.0, where H is 0.
    "h_check": ("n_levels", lambda f, p, v: h_inequality_check(f, p, 1.0, v)),
    "truncation": ("n_thresholds", lambda f, p, v: truncation_scan(f, p, Convection(1.0), v)),
}


@pytest.mark.parametrize("bad", [2.5, True, 0])
@pytest.mark.parametrize("site", sorted(COUNTS))
def test_count_must_be_an_integer(solved_circles, site, bad):
    pair, res = solved_circles
    name, call = COUNTS[site]
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1, got {bad!r}$"):
        call(res.field, pair, bad)


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

    @pytest.mark.parametrize(
        "C_n, message",
        [
            (math.nan, "a finite real number, got nan"),
            (math.inf, "a finite real number, got inf"),
            (0.0, "positive, got 0.0"),
            (-1.0, "positive, got -1.0"),
        ],
    )
    def test_constant_must_be_finite_and_positive(self, C_n, message):
        # At this budget C_n = 1 is infeasible; C_n = -1 would report a delta
        # near 1 feasible, and nan or inf would read as infeasible.
        with pytest.raises(ValueError, match=f"^C_n must be {message}$"):
            high_cutoff_bound(Convection(1.0), 2, math.pi + 10.0, C_n)


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
