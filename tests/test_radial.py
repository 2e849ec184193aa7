"""Concentric-ball energies, regimes, thresholds, and perturbations."""

import itertools
import math

import numpy as np
import pytest

from thermoshield import radial
from thermoshield.dissipation import (
    Convection,
    Linear,
    Power,
    Radiation,
    SurfaceCost,
    Tabulated,
    unit_ball_volume,
)
from thermoshield.radial import (
    EnergyBreakdown,
    best_radius,
    classify_regime,
    convection_energy,
    convection_state,
    general_radial_energy,
    gradient_ratio,
    gradient_ratio_max,
    perturbation_expansion,
    phi,
    phi_prime,
    threshold_radius,
)

LATTICE_N = (2, 3, 4)
LATTICE_BETA = (0.25, 0.5, 1.0, 2.0, 5.0)
LATTICE_R = (1.0, 1.1, 1.5, 2.0, math.e, 5.0, 10.0)


class TestProfile:
    def test_phi_two_dim(self):
        assert phi(2, 1.0) == 0.0
        assert phi(2, math.e) == pytest.approx(1.0)

    def test_phi_three_dim(self):
        assert phi(3, 2.0) == pytest.approx(-0.5)

    def test_phi_prime_at_one(self):
        for n in (2, 3, 4, 5):
            assert phi_prime(n, 1.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            phi(2, 0.0)
        with pytest.raises(ValueError):
            phi_prime(3, -1.0)


class TestConvectionEnergy:
    def test_bare_ball(self):
        assert convection_energy(2, 1.0, 1.0).total == pytest.approx(2 * math.pi, rel=1e-12)

    def test_large_radius_limit(self):
        # (n - 2) n omega_n in the limit; R = 1e6 sits within 0.1%.
        got = convection_energy(3, 1.0, 1e6).total
        assert got == pytest.approx(4 * math.pi, rel=1e-3)

    def test_at_e(self):
        e = convection_energy(2, 1.0, math.e)
        assert e.total == pytest.approx(2 * math.pi * math.e / (1 + math.e), rel=1e-12)
        assert e.trace == pytest.approx(1.0 / (1.0 + math.e), rel=1e-12)

    def test_breakdown_sums(self):
        e = convection_energy(3, 2.0, 1.7)
        assert e.total == e.dirichlet + e.boundary + e.penalty
        assert 0.0 <= e.trace <= 1.0

    def test_bare_ball_has_no_dirichlet(self):
        e = convection_energy(4, 0.7, 1.0)
        assert e.dirichlet == 0.0
        assert e.trace == 1.0
        assert e.total == pytest.approx(0.7 * 4 * unit_ball_volume(4), rel=1e-12)


class TestConvectionState:
    def test_constant_inside(self):
        assert convection_state(2, 1.0, 2.0, 0.5) == 1.0
        assert convection_state(3, 0.4, 3.0, 1.0) == 1.0

    def test_trace_at_e(self):
        got = convection_state(2, 1.0, math.e, math.e)
        assert got == pytest.approx(1.0 / (1.0 + math.e), rel=1e-12)

    def test_strictly_decreasing_in_shell(self):
        rho = np.linspace(1.0, 2.0, 100)
        vals = convection_state(2, 1.0, 2.0, rho)
        assert np.all(np.diff(vals) < 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            convection_state(2, 1.0, 2.0, 2.5)
        with pytest.raises(ValueError):
            convection_state(2, 1.0, 2.0, -0.1)


class TestGeneralRadialEnergy:
    def test_matches_convection_on_lattice(self):
        for n in LATTICE_N:
            for beta in LATTICE_BETA:
                for R in LATTICE_R:
                    closed = convection_energy(n, beta, R)
                    scanned = general_radial_energy(n, Convection(beta), R)
                    assert scanned.total == pytest.approx(closed.total, rel=1e-8)
                    assert scanned.trace == pytest.approx(closed.trace, abs=1e-6)

    TOUCHING_LAWS = [
        Convection(1.0),
        Radiation(1.0),
        Linear(0.5),
        SurfaceCost(1.0, 0.0, 1.0),
        Power(1.0, 0.5),
        SurfaceCost(0.3, 1.0, 0.9),
        Tabulated([(0, 0), (0.4, 0.2), (1, 1.4)]),
    ]

    @pytest.mark.parametrize("law", TOUCHING_LAWS)
    def test_touching_configuration(self, law):
        # R = 1 is the trace problem at kappa = 0: exactly the bare ball, also
        # as rows of a grid with one shared law or one law per row.
        for n, lam in itertools.product([2, 3], [0.0, 0.3]):
            bare = EnergyBreakdown(0.0, n * unit_ball_volume(n) * law.value(1.0), 0.0, 1.0)
            assert general_radial_energy(n, law, 1.0, lam) == bare
            for laws in (law, [law, Radiation(1.0), law]):
                got = general_radial_energy(n, laws, [1.0, 2.0, 1.0], lam)
                assert (got[0], got[2]) == (bare, bare)

    def test_bare_ball_trace_is_one_on_both_paths(self):
        kappa = np.array([0.0, 0.5, 0.0])
        assert radial._trace_min(Convection(2.0), kappa)[[0, 2]].tolist() == [1.0, 1.0]
        for law in self.TOUCHING_LAWS[1:]:
            assert radial._trace_min(law, kappa)[[0, 2]].tolist() == [1.0, 1.0]
            assert radial._trace_min([law, Convection(1.0), law], kappa)[[0, 2]].tolist() == [1.0, 1.0]

    def test_surface_cost_branch_comparison(self):
        # The zero-trace branch costs Per(B_1)/log 2, the warm branch at
        # least Per(B_2) c1; the zero branch wins at R = 2.
        e = general_radial_energy(2, SurfaceCost(1.0, 0.0, 1.0), 2.0)
        assert e.trace == 0.0
        assert e.total == pytest.approx(2 * math.pi / math.log(2.0), rel=1e-10)
        # Brute-force trace-scan oracle.
        l = np.linspace(0.0, 1.0, 100_001)
        law = SurfaceCost(1.0, 0.0, 1.0)
        stiff = 2 * math.pi / math.log(2.0)
        vals = stiff * (1 - l) ** 2 + 4 * math.pi * np.asarray(law.value(l))
        assert e.total == pytest.approx(float(vals.min()), rel=1e-10)

    def test_never_exceeds_scanned_candidates(self):
        rng = np.random.default_rng(3)
        for law in (Radiation(0.5), SurfaceCost(0.5, 1.0, 2.0), Linear(2.0)):
            for R in (1.3, 2.0, 4.0):
                e = general_radial_energy(2, law, R)
                per_R = 2 * math.pi * R
                stiff = 2 * math.pi / math.log(R)
                for l in rng.uniform(0.0, 1.0, 64):
                    cand = stiff * (1 - l) ** 2 + per_R * law.value(float(l))
                    assert e.total <= cand + 1e-9
                assert e.total <= per_R * law.value(1.0) + 1e-9

    def test_trace_inside_the_first_grid_cell(self):
        # beta = 1e4 puts the optimal trace at 7.2e-5, inside the scan's first
        # cell: the slope at the scan's argmin 0 is negative, so the zoom
        # brackets the root from 0 upward.  A quadratic law's trace is closed
        # form, so the search runs alone.
        law, want = Convection(1e4), convection_energy(2, 1e4, 2.0).trace
        assert general_radial_energy(2, law, 2.0).trace == pytest.approx(want, rel=1e-15)
        stiff, per_R = 2 * math.pi / math.log(2.0), 4 * math.pi
        found = radial._trace_search(
            lambda l, idx: stiff * (1 - l) ** 2 + per_R * law.value(l),
            lambda l, idx: 2 * stiff * (l - 1) + per_R * law.jet(l)[1],
            1,
            law.breakpoints,
        )
        assert found[0] == pytest.approx(want, rel=1e-15)

    def test_scan_finds_the_lower_basin(self):
        # The detached basin, l = 0, is 1.8e-5 above the attached one here:
        # a scan of 65 points picked it.
        law, R = SurfaceCost(0.3, 1.0, 0.9), 1.7003998316998863
        e = general_radial_energy(2, law, R)
        assert e.trace > 0.5
        l = np.linspace(0.0, 1.0, 100_001)
        stiff, per_R = 2 * math.pi / math.log(R), 2 * math.pi * R
        assert e.total <= float(np.min(stiff * (1 - l) ** 2 + per_R * law.value(l)))

    def test_minimum_at_or_near_a_scan_point(self):
        # At the scan point 0.5 the slope is 0, which picks the cell on its
        # left, so the zoom keeps 0.5 as its upper end; so it does with the
        # midpoint of the cell's first zoom round.  A root 1e-9 to the right
        # of 0.5 ties in value with the scan point, and the zoom's end wins.
        def search(root):
            value, slope = (lambda l, idx: 1.0 + (l - root) ** 2), (lambda l, idx: 2.0 * (l - root))
            return radial._trace_search(value, slope, 1, np.array([]))[0]

        assert search(0.5) == 0.5
        assert search(127.5 / 256) == 127.5 / 256
        assert search(0.5 + 1e-9) == pytest.approx(0.5 + 1e-9, rel=1e-15, abs=0.0)

    def test_underflowing_trace_stops_at_the_floor(self, monkeypatch):
        # Power(1, 1.01)'s trace is 2.8e-107 at R = 10 and 2.2e-237 at R =
        # 100; a zoom to adjacent floats took 81 and 168 slope calls.  From
        # the scan's first cell, 2**-8 wide, the floor 2**-64 is 12 rounds
        # away and ulp(0.31) at R = 2 is 10.  Below the floor the Dirichlet
        # term is stiff (1 - l)^2 = stiff to rounding.
        calls = []
        theta = radial._theta

        def counted(law, l, idx, right_slope=False):
            calls.append(right_slope)
            return theta(law, l, idx, right_slope)

        monkeypatch.setattr(radial, "_theta", counted)
        law, slope_calls = Power(1.0, 1.01), {}
        for R in (2.0, 10.0, 100.0):
            calls.clear()
            e = general_radial_energy(2, law, R)
            slope_calls[R] = sum(calls)
            if R > 2.0:
                assert 0.0 <= e.trace <= 2.0**-64
                assert e.total == pytest.approx(2 * math.pi / math.log(R), rel=1e-15, abs=0.0)
        assert max(slope_calls[10.0], slope_calls[100.0]) <= slope_calls[2.0] + 2

    def test_search_keeps_a_lower_scan_point(self):
        # The minimum is the kink at the breakpoint 0.5, and the scan cell on
        # its left holds shallow local minima, one of which the zoom lands on.
        w = 2 * math.pi / 0.002

        def value(l, idx):
            return 10 * np.abs(l - 0.5) + 0.01 * np.where(l < 0.5, np.sin(w * (0.5 - l)), 0.0)

        def slope(l, idx):
            return np.where(l < 0.5, -10 - 0.01 * w * np.cos(w * (0.5 - l)), 10.0)

        assert radial._trace_search(value, slope, 1, np.array([0.5]))[0] == 0.5

    @pytest.mark.parametrize("n", [2, 3])
    def test_quadratic_trace_is_closed_form(self, n):
        # The trace search pinned these traces only to 2.7e-7 relative.
        for beta in np.geomspace(0.05, 20.0, 13):
            for R in (1.05, 1.5, 2.0, 4.0, 10.0):
                got = general_radial_energy(n, Convection(float(beta)), R)
                closed = convection_energy(n, float(beta), R)
                assert got.trace == pytest.approx(closed.trace, rel=1e-15, abs=0.0)
                assert got.total == pytest.approx(closed.total, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("c", [0.3, 1.0, 7.5])
    def test_power_two_is_convection(self, c):
        # Both take the closed form with beta = c and round theta as c (u u):
        # the breakdowns are bitwise equal.
        R = [1.0, 1.5, 2.0, 6.0]
        for p, q in zip(general_radial_energy(2, Power(c, 2.0), R), general_radial_energy(2, Convection(c), R)):
            assert p == q

    @pytest.mark.parametrize(
        "laws, searches",
        [
            ([Convection(b) for b in np.linspace(0.1, 5.0, 32)], 0),
            ([Radiation(g) for g in np.linspace(0.1, 5.0, 32)], 1),
            ([Convection(1.0), Radiation(1.0), Power(2.0, 2.0)], 1),
        ],
        ids=["beta-axis", "gamma-axis", "mixed"],
    )
    def test_trace_searches_per_row_list(self, monkeypatch, laws, searches):
        # Only a list whose every law is quadratic skips the search.  In a
        # mixed list the quadratic rows take the search's trace, which
        # agrees with the closed form to rounding, so only the other rows
        # are bitwise their own results.
        calls = []
        search = radial._trace_search
        monkeypatch.setattr(radial, "_trace_search", lambda *a: calls.append(a) or search(*a))
        got = general_radial_energy(2, laws, [2.0] * len(laws))
        assert len(calls) == searches
        for law, energy in zip(laws, got):
            alone = general_radial_energy(2, law, 2.0)
            if searches and law.quadratic:
                assert energy.trace == pytest.approx(alone.trace, rel=1e-15)
                assert energy.total == pytest.approx(alone.total, rel=1e-14)
            else:
                assert energy == alone

    def test_penalty_term(self):
        e = general_radial_energy(2, Convection(1.0), 2.0, lam=0.5)
        assert e.penalty == pytest.approx(0.5 * math.pi * 3.0, rel=1e-12)

    def test_invalid_radius_and_weight_rejected(self):
        with pytest.raises(ValueError):
            general_radial_energy(2, Convection(1.0), 0.5)
        with pytest.raises(ValueError):
            general_radial_energy(2, Convection(1.0), 2.0, lam=-1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("R", [1e160, 1e200])
    def test_radius_whose_power_overflows_rejected(self, R):
        """Past the largest float R**n is inf, and the unpenalized penalty
        0 * inf would be NaN."""
        with pytest.raises(ValueError, match="^R must be below"):
            general_radial_energy(2, Radiation(1.0), R)
        with pytest.raises(ValueError, match="^R_max must be below"):
            best_radius(2, Radiation(1.0), R)

    @pytest.mark.filterwarnings("error")
    def test_huge_radius_below_overflow(self):
        e = general_radial_energy(2, Radiation(1.0), 1e100)
        assert e.penalty == 0.0
        assert math.isfinite(e.total) and e.total > 0.0
        assert best_radius(2, Radiation(1.0), 1e100).energy.total == pytest.approx(e.total)
        with pytest.raises(ValueError, match="^R must be below"):
            general_radial_energy(3, Radiation(1.0), 1e103)  # R**3 overflows


    @pytest.mark.filterwarnings("error")
    def test_penalty_that_overflows_rejected(self):
        """R**2 is finite at 1e154, but lam * pi * R**2 is not."""
        with pytest.raises(ValueError, match="^lam and R must keep the penalty"):
            general_radial_energy(2, Radiation(1.0), 1e154, 1.0)
        assert math.isfinite(general_radial_energy(2, Radiation(1.0), 1e154, 1e-10).total)


class TestThresholdRadius:
    def test_two_dim_half(self):
        r = threshold_radius(2, 0.5)
        assert r == pytest.approx(4.92, abs=0.01)
        # Root property: the threshold energy returns to the bare-ball value.
        bare = 0.5 * 2 * math.pi
        assert abs(convection_energy(2, 0.5, r).total - bare) < 1e-8 * bare

    def test_none_above_one_in_two_dim(self):
        assert threshold_radius(2, 1.5) is None
        assert threshold_radius(2, 1.0) is None

    def test_none_below_n_minus_two(self):
        assert threshold_radius(3, 0.5) is None
        assert threshold_radius(3, 1.0) is None

    def test_three_dim_window(self):
        r = threshold_radius(3, 1.5)
        assert r is not None and r > 2.0 / 1.5
        bare = 1.5 * 3 * unit_ball_volume(3)
        assert abs(convection_energy(3, 1.5, r).total - bare) < 1e-8 * bare

    @pytest.mark.parametrize("n, beta", [(2, b) for b in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)] + [(3, 1.2)])
    def test_gap_vanishes_to_rounding(self, n, beta):
        # Bisection runs to adjacent floats and returns the one with the
        # smaller gap; a 1e-10 bracket left a gap of up to 4e4 eps.
        def gap(r):
            return abs(phi_prime(n, r) + beta * (phi(n, r) - phi(n, 1.0)) - 1.0)

        r = threshold_radius(n, beta)
        assert gap(r) <= 4 * np.finfo(float).eps
        assert gap(r) <= min(gap(np.nextafter(r, 0.0)), gap(np.nextafter(r, np.inf)))


class TestClassifyRegime:
    def test_regime_a(self):
        rep = classify_regime(3, 2.5, 3.0)
        assert rep.regime == "a"
        assert rep.optimal_radius == 3.0

    def test_regime_c(self):
        rep = classify_regime(3, 0.8, 5.0)
        assert rep.regime == "c"
        assert rep.optimal_radius == 1.0
        assert rep.optimal_energy == pytest.approx(0.8 * 3 * unit_ball_volume(3), rel=1e-12)

    def test_regime_b_below_threshold(self):
        rep = classify_regime(2, 0.5, 3.0)
        assert rep.regime == "b"
        assert rep.optimal_radius == 1.0
        assert rep.threshold_radius == pytest.approx(4.92, abs=0.01)

    def test_regime_b_above_threshold(self):
        rep = classify_regime(2, 0.5, 6.0)
        assert rep.optimal_radius == 6.0

    def test_tie_flag(self):
        thr = threshold_radius(2, 0.5)
        rep = classify_regime(2, 0.5, thr)
        assert rep.tie

    def test_critical_radius_clamped(self):
        assert classify_regime(2, 5.0, 2.0).critical_radius == 1.0
        assert classify_regime(2, 0.25, 2.0).critical_radius == 4.0


class TestBestRadius:
    def test_budget_boundary_optimum(self):
        assert best_radius(2, Convection(1.0), 3.0).R_star == pytest.approx(3.0)

    def test_bare_ball_optimum(self):
        assert best_radius(2, Convection(0.5), 3.0).R_star == pytest.approx(1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_unit_budget_is_the_bare_ball(self, lam):
        law = Radiation(1.0)
        br = best_radius(2, law, 1.0, lam)
        assert br.R_star == 1.0
        assert br.energy == EnergyBreakdown(0.0, 2 * math.pi * law.value(1.0), 0.0, 1.0)

    def test_one_trace_search_per_call(self, monkeypatch):
        # The breakdown is the terms the search minimized: no second search
        # through general_radial_energy, and bare-ball rows join the search.
        calls = []
        search = radial._trace_search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(radial, "_trace_search", counted)
        monkeypatch.setattr(radial, "general_radial_energy", None)
        law = Convection(1.0)
        for R_max, lam in [(3.0, 0.0), (1.0, 0.3), (math.inf, 0.1)]:
            best_radius(2, law, R_max, lam)
        assert len(calls) == 3
        # A bare ball, a budget, an unbounded penalty and a budget below it.
        grid = best_radius(2, law, [1.0, 3.0, math.inf, 2.0], [0.3, 0.0, 0.1, 0.05])
        assert len(calls) == 4
        assert [b.R_star for b in grid[:2]] == [1.0, 3.0]
        assert 1.0 < grid[2].R_star < 2.0 and grid[3].R_star == 2.0

    def test_penalized_stationarity(self):
        br = best_radius(2, Convection(1.0), math.inf, 0.1)
        R = br.R_star
        assert 1.7 <= R <= 2.0
        resid = (R - 1.0) / (R**3 * (1.0 / R + math.log(R)) ** 2) - 0.1
        assert abs(resid) < 1e-6
        # Grid-scan oracle on the closed-form penalized energy, with
        # convection_energy(2, 1, R).total = 2 pi / (1/R + log R).
        Rs = np.linspace(1.0, 4.0, 20_001)
        vals = 2.0 * math.pi / (1.0 / Rs + np.log(Rs)) + 0.1 * math.pi * (Rs**2 - 1.0)
        k = int(np.argmin(vals))
        closed = convection_energy(2, 1.0, float(Rs[k])).total + 0.1 * math.pi * (Rs[k] ** 2 - 1.0)
        assert vals[k] == pytest.approx(closed, rel=1e-14)
        assert br.energy.total <= vals[k] + 1e-9

    def test_penalized_radiation_is_jointly_stationary(self):
        # R* inside (1, inf) solves gap = D R^(n - 3/2) sqrt((n - 1) theta +
        # lam R), and the trace solves 2 gap / D = R^(n - 1) theta'(l), with
        # gap = 1 - l and D = phi(R) - phi(1).  A relative Newton stop of
        # 1e-14 left the first residual at 20 eps.
        n, lam, law = 3, 0.05, Radiation(1.0)
        best = best_radius(n, law, math.inf, lam)
        l, R = best.energy.trace, best.R_star
        gap, D = 1.0 - l, float(phi(n, R) - phi(n, 1.0))
        radius = D * R ** (n - 1.5) * math.sqrt((n - 1) * float(law.value(l)) + lam * R) / gap - 1.0
        trace = R ** (n - 1) * float(law.jet(l)[1]) * D / (2.0 * gap) - 1.0
        eps = np.finfo(float).eps
        assert abs(radius) <= 6 * eps and abs(trace) <= 6 * eps, (radius / eps, trace / eps)

    @pytest.mark.filterwarnings("error")
    def test_penalty_too_small_to_bound_the_radius(self):
        """The doubling bracket would need a radius whose square overflows."""
        with pytest.raises(ValueError, match="^lam must be large enough"):
            best_radius(2, Radiation(1.0), math.inf, 5e-324)
        assert best_radius(2, Radiation(1.0), math.inf, 1e-300).R_star < 1e151

    @pytest.mark.parametrize("beta", [1.0, 1.5, 3.0])
    def test_convection_budget_traces_are_closed_form(self, beta):
        # Regime a: the best shell is the budget, and the slope zoom pins its
        # trace to rounding (value comparisons left it 5.8e-9 to 7.8e-9 off).
        budgets = np.geomspace(1.05, 50.0, 30)
        for R_max, best in zip(budgets, best_radius(2, Convection(beta), budgets)):
            assert best.R_star == R_max
            want = convection_energy(2, beta, float(R_max)).trace
            assert best.energy.trace == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_infinite_budget_requires_penalty(self):
        with pytest.raises(ValueError):
            best_radius(2, Convection(1.0), math.inf, 0.0)

    def test_agrees_with_regime_classification(self):
        # In 3D, beta = 0.8 and 2.5 are regimes c and a, and beta = 1.2 and
        # 1.5 are all-or-nothing; beta = 1.5 ties at R_max = 2.
        cases = [(2, 0.5, 3.0), (2, 0.5, 6.0), (2, 1.0, 3.0), (2, 2.0, 5.0)] + [
            (3, beta, r_max) for beta in (0.8, 1.2, 1.5, 2.5) for r_max in (1.5, 2.0, 3.0, 6.0, 8.0)
        ]
        for n, beta, r_max in cases:
            rep = classify_regime(n, beta, r_max)
            br = best_radius(n, Convection(beta), r_max)
            assert br.energy.total == pytest.approx(rep.optimal_energy, rel=1e-8), (n, beta, r_max)


class TestPerturbationExpansion:
    def test_radiation_coefficient(self):
        pe = perturbation_expansion(2, Radiation(1.0), 1e-3)
        assert pe.first_order_coeff == pytest.approx((5.2 - 56.25) * 2 * math.pi, rel=1e-12)

    def test_convection_degenerate_boundary(self):
        # 4 beta = 4(n-1) exactly at beta = n - 1.
        pe = perturbation_expansion(2, Convection(1.0), 1e-3)
        assert pe.first_order_coeff == 0.0

    def test_flat_law_positive_coefficient(self):
        # theta'(1) = 0 leaves only the positive surface growth term.
        law = SurfaceCost(1.0, 0.0, 1.0)
        pe = perturbation_expansion(2, law, 1e-3)
        assert pe.first_order_coeff == pytest.approx(1.0 * 2 * math.pi, rel=1e-12)

    def test_first_order_convergence(self):
        law = Radiation(1.0)
        bare = law.value(1.0) * 2 * math.pi
        residuals = []
        for eps in (1e-2, 1e-3, 1e-4):
            pe = perturbation_expansion(2, law, eps)
            residuals.append(abs(pe.energy_eps - bare - pe.first_order_coeff * eps) / eps)
        assert residuals[0] > residuals[1] > residuals[2]

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            perturbation_expansion(2, Radiation(1.0), 0.6)
        # Steep laws push the trial state below 0 for large eps.
        with pytest.raises(ValueError):
            perturbation_expansion(2, Radiation(1.0), 0.3)


class TestGradientRatio:
    def test_decreasing_regimes_bounded(self):
        assert gradient_ratio_max(2, 2.0, 4.0) <= 2.0 + 1e-9
        assert gradient_ratio_max(3, 5.0, 10.0) <= 5.0 + 1e-9

    def test_increasing_regime_exceeds(self):
        # beta = 0.5 in 2D: energy increases up to radius 2, so the ratio
        # exceeds beta strictly inside.
        assert gradient_ratio_max(2, 0.5, 1.5) > 0.5

    def test_equivalence_with_energy_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            beta = float(rng.uniform(0.1, 5.0))
            R = float(rng.uniform(1.05, 8.0))
            bounded = gradient_ratio_max(n, beta, R) <= beta + 1e-9
            e_R = convection_energy(n, beta, R).total
            scan = min(
                convection_energy(n, beta, float(r)).total for r in np.linspace(1.0, R, 64)
            )
            assert bounded == (scan >= e_R - 1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            gradient_ratio_max(2, 1.0, 1.0)

    @pytest.mark.parametrize("R", [0.8, 2.0])
    def test_any_positive_outer_radius(self, R):
        # The ratio (beta/r) / (1/R + beta log(R/r)) does not depend on the
        # inner radius, so an outer radius below 1 is as valid as above it.
        r = np.linspace(0.3 * R, R, 7)
        expected = (1.5 / r) / (1.0 / R + 1.5 * np.log(R / r))
        assert np.allclose(gradient_ratio(2, 1.5, R, r), expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n, R", [(2, 0.0), (2, -2.0), (2, math.inf), (2, 1e-310), (200, 0.01)])
    def test_outer_radius_must_be_finite_and_positive(self, n, R):
        # R**(1-n) overflows for the last two, which would make the ratio nan.
        with pytest.raises(ValueError, match="^R must"):
            gradient_ratio(n, 1.0, R, 0.5 * R)


class TestEnergyMonotonicityPivot:
    def test_derivative_sign_change_at_critical_radius(self):
        # dE/dR changes sign exactly at (n-1)/beta when that exceeds 1.
        for n, beta in ((2, 0.5), (2, 0.25), (3, 1.5), (4, 2.0)):
            crit = (n - 1) / beta
            assert crit > 1.0
            h = 1e-7

            def dE(R):
                return (
                    convection_energy(n, beta, R + h).total
                    - convection_energy(n, beta, R - h).total
                ) / (2 * h)

            lo, hi = 1.0 + 1e-6, 4.0 * crit
            assert dE(lo) > 0 > dE(hi)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if dE(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            assert 0.5 * (lo + hi) == pytest.approx(crit, abs=1e-6)


CONV = Convection(1.0)
# (function, arguments, the parameter the error must name), one or more per
# caller of the shared parameter check.
REJECTED = [
    (convection_energy, (1, 1.0, 2.0), "n"),
    (convection_energy, (2, 0.0, 2.0), "beta"),
    (convection_energy, (2, 1.0, math.inf), "R"),
    (convection_state, (2, -1.0, 2.0, 1.5), "beta"),
    (convection_state, (2, 1.0, 0.5, 0.4), "R"),
    (gradient_ratio, (2, 1.0, math.nan, 1.5), "R"),
    # Beyond R the ratio's formula gave -0.0901, -2.7e15 and -0.8.
    *[(gradient_ratio, (n, 1.0, 2.0, rho), "rho") for n, rho in ((2, 10.0), (2, 2 * math.e**0.5), (3, 5.0))],
    (gradient_ratio_max, (2, -1.0, 2.0), "beta"),
    (gradient_ratio_max, (2, 1.0, 1.0), "R"),
    (general_radial_energy, (2.5, CONV, 2.0), "n"),
    (general_radial_energy, (2, CONV, 2.0, math.nan), "lam"),
    (general_radial_energy, (2, CONV, 2.0, -1.0), "lam"),
    (threshold_radius, (2, math.nan), "beta"),
    (threshold_radius, (2.0, 0.5), "n"),
    (classify_regime, (2, 1.0, math.nan), "R_max"),
    (classify_regime, (2, 1.0, 0.5), "R_max"),
    (best_radius, (2, CONV, math.nan, 0.1), "R_max"),
    (best_radius, (2, CONV, math.inf, 0.0), "R_max"),
    (best_radius, (2, CONV, 2.0, math.inf), "lam"),
    (perturbation_expansion, (1, CONV, 1e-3), "n"),
    # Each gave a number: phi(1, 2.0) 2.0 and phi(2.5, 2.0) -1.414.
    *[(f, (n, 2.0), "n") for f in (phi, phi_prime) for n in (1, 2.5, math.nan, True)],
]


@pytest.mark.parametrize(
    "func, args, name", REJECTED, ids=[f"{f.__name__}-{name}" for f, _, name in REJECTED]
)
def test_invalid_parameter_is_named(func, args, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        func(*args)
