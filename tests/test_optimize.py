"""Shape optimizer: projections, descent properties, and degeneracies.

The heavier regime-reproduction runs live in the acceptance suite; here the
runs use coarse meshes and low mode counts to pin the structural contracts.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from thermoshield import annulus, optimize
from thermoshield.annulus import GAP_MIN, FourierShape, GeometryError, Mesh, StarPair, solve_state
from thermoshield.dissipation import Convection, Radiation, Tabulated
from thermoshield.optimize import (
    OptimizeOptions,
    isoperimetric_deficit,
    optimize_constrained,
    optimize_penalized,
    trace_to_csv,
)
from thermoshield.radial import best_radius

QUICK = OptimizeOptions(fourier_order=2, mesh=Mesh(17, 64), max_outer_iters=12)


def quick_init(r_out=2.0, amp=0.08):
    return StarPair(
        FourierShape([1.0, 0.0, 0.0, amp / 2, 0.0]),
        FourierShape([r_out, 0.0, 0.0, amp, 0.0]),
    )


def _no_solve(*args, **kwargs):
    raise AssertionError("a state solve ran")


class TestAreaAndProjection:
    def test_constant_shapes(self):
        assert FourierShape.circle(1.0).area() == pytest.approx(math.pi, rel=1e-12)
        assert FourierShape.circle(2.0).area() == pytest.approx(4 * math.pi, rel=1e-12)

    def test_perturbed_circle_identity(self):
        got = FourierShape([1.0, 0.1, 0.0]).area()
        assert got == pytest.approx(math.pi * 1.005, rel=1e-12)

    def test_deficit(self):
        assert isoperimetric_deficit(StarPair.circles(1.0, 3.0)) == 0.0
        assert isoperimetric_deficit(quick_init()) == pytest.approx(0.08 / 2.0)


class TestDescentContracts:
    def test_strict_decrease_and_feasibility(self):
        res = optimize_constrained(Convection(1.0), 9 * math.pi, quick_init(2.4), QUICK)
        energies = [row.energy for row in res.trace]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        for row in res.trace:
            assert abs(row.inner_area - math.pi) < 1e-8
            assert row.outer_area <= 9 * math.pi + 1e-8
        assert res.energy.total <= energies[0]

    def test_infeasible_init_rejected(self):
        with pytest.raises(ValueError):
            optimize_constrained(Convection(1.0), 4 * math.pi, quick_init(2.4), QUICK)

    def test_budget_below_inner_area_rejected(self):
        with pytest.raises(ValueError):
            optimize_constrained(Convection(1.0), 2.0, quick_init(), QUICK)

    def test_penalized_requires_positive_weight(self):
        with pytest.raises(ValueError):
            optimize_penalized(Convection(1.0), 0.0, quick_init(), QUICK)

    @pytest.mark.parametrize("M", [math.nan, math.inf])
    def test_budget_must_be_finite_before_any_solve(self, monkeypatch, M):
        monkeypatch.setattr(optimize, "solve_state", _no_solve)
        with pytest.raises(ValueError, match="^M must"):
            optimize_constrained(Convection(1.0), M, quick_init(), QUICK)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_weight_must_be_finite_before_any_solve(self, monkeypatch, lam):
        monkeypatch.setattr(optimize, "solve_state", _no_solve)
        with pytest.raises(ValueError, match="^lam must"):
            optimize_penalized(Convection(1.0), lam, quick_init(), QUICK)

    def test_translation_gauge_zeroes_inner_first_mode(self):
        init = StarPair(
            FourierShape([1.0, 0.03, 0.0, 0.04, 0.0]),
            FourierShape([2.4, 0.0, 0.0, 0.08, 0.0]),
        )
        res = optimize_constrained(Convection(1.0), 9 * math.pi, init, QUICK)
        assert res.pair.inner.coeffs[1:3] == (0.0, 0.0)

    def test_rotational_degeneracy(self):
        init = quick_init(2.2)
        r1 = optimize_constrained(Convection(1.0), 9 * math.pi, init, QUICK)
        r2 = optimize_constrained(Convection(1.0), 9 * math.pi, init.rotated(1.1), QUICK)
        assert r1.energy.total == pytest.approx(r2.energy.total, rel=1e-6)

    def test_stationary_init_stays_put(self):
        res = optimize_constrained(
            Convection(1.0), 9 * math.pi, StarPair.circles(1.0, 3.0, order=2), QUICK
        )
        assert res.deficit == 0.0
        assert len(res.trace) == 1  # no accepted step beyond the initial row

    def test_penalized_penalty_reported(self):
        res = optimize_penalized(Convection(1.0), 0.1, quick_init(1.8), QUICK)
        pen = 0.1 * (res.trace[-1].outer_area - res.trace[-1].inner_area)
        assert res.energy.penalty == pytest.approx(pen, rel=1e-9)
        assert res.energy.total == res.energy.dirichlet + res.energy.boundary + res.energy.penalty

    def test_collapse_detection_and_flat_comparison(self):
        opts = OptimizeOptions(fourier_order=1, mesh=Mesh(17, 64), max_outer_iters=60)
        res = optimize_constrained(
            Convection(0.5),
            4 * math.pi,
            StarPair.circles(1.0, 1.6, order=1),
            opts,
        )
        assert res.collapsed
        assert res.flat_compared
        assert res.energy.total == pytest.approx(math.pi, rel=1e-9)

    def test_trace_csv(self, tmp_path):
        res = optimize_constrained(Convection(1.0), 9 * math.pi, quick_init(2.4), QUICK)
        path = str(tmp_path / "trace.csv")
        trace_to_csv(res, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "iter,energy,dirichlet,boundary,penalty,inner_area,outer_area,deficit,step"
        assert len(lines) == len(res.trace) + 1
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(res.trace[0].energy)


class TestLineSearch:
    def test_solves_per_step(self, monkeypatch):
        """The first trial is usually accepted: at most two solves per outer
        iteration, plus the initial solve and one spare."""
        solves = []

        def counted(*args, **kwargs):
            solves.append(1)
            return solve_state(*args, **kwargs)

        monkeypatch.setattr(optimize, "solve_state", counted)
        runs = (
            lambda: optimize_constrained(Convection(1.0), 9 * math.pi, quick_init(2.4), QUICK),
            lambda: optimize_penalized(Convection(1.0), 0.1, quick_init(1.8), QUICK),
        )
        for run in runs:
            solves.clear()
            res = run()
            assert res.iterations > 0
            assert len(solves) <= 2 * res.iterations + 2

    def test_pairs_dropped_when_budget_switches(self, monkeypatch):
        """The quasi-Newton pairs span one side of the outer budget: an
        iteration at which the budget turns active or inactive takes a
        steepest-descent step, and the next one sees only its pair."""
        seen = []  # per iteration: [budget active, pairs seen by the BFGS direction]
        gradient, inverse_bfgs = optimize._Descent.gradient, optimize._inverse_bfgs

        def watched_gradient(self, x, res):
            g = gradient(self, x, res)
            seen.append([self.budget_active(x, -g), 0])
            return g

        def watched_bfgs(pairs, q):
            seen[-1][1] = len(pairs)
            return inverse_bfgs(pairs, q)

        monkeypatch.setattr(optimize._Descent, "gradient", watched_gradient)
        monkeypatch.setattr(optimize, "_inverse_bfgs", watched_bfgs)
        init = StarPair(
            FourierShape([1.0, 0.0, 0.0, 0.027, 0.0]),
            FourierShape([2.5, 0.0, 0.0, 0.08, 0.0]),
        )
        res = optimize_constrained(Convection(1.0), 9 * math.pi, init, QUICK)
        active = [a for a, _ in seen]
        switches = [i for i in range(1, len(seen)) if active[i] != active[i - 1]]
        assert {active[i] for i in switches} == {True, False}  # both ways
        assert max(n for _, n in seen) >= 2  # pairs pile up between switches
        for i in switches:
            assert seen[i][1] == 0
            if i + 1 < len(seen) and active[i + 1] == active[i]:
                assert seen[i + 1][1] <= 1
        assert res.iterations == len(seen)

    def test_pairs_keep_positive_curvature(self, monkeypatch):
        """A step whose change of projected gradient y has sᵀy <= 0 adds no
        pair, which would make the inverse BFGS matrix indefinite; this
        collapsing run takes such a step."""
        rhos = []
        inverse_bfgs = optimize._inverse_bfgs

        def watched_bfgs(pairs, q):
            rhos.extend(rho for _, _, rho in pairs)
            return inverse_bfgs(pairs, q)

        monkeypatch.setattr(optimize, "_inverse_bfgs", watched_bfgs)
        init = StarPair(
            FourierShape([1.0, 0.0, 0.0, -0.002137075048358173, -0.02707343376480876]),
            FourierShape([1.896844965339445, 0.0, 0.0, -0.007427691254765481, -0.09409735393515267]),
        )
        optimize_constrained(Convection(0.5), 4 * math.pi, init, QUICK)
        assert rhos and min(rhos) > 0.0

    def test_failed_quasi_newton_search_falls_back_to_steepest_descent(self, monkeypatch):
        """A quasi-Newton step too short to pass the acceptance test ends its
        search without a solve; the pairs are dropped and a steepest-descent
        search takes the step instead."""
        calls = []

        def futile(pairs, q):
            calls.append(len(pairs))
            return 1e-20 * q

        monkeypatch.setattr(optimize, "_inverse_bfgs", futile)
        res = optimize_penalized(Convection(1.0), 0.1, quick_init(1.8), QUICK)
        assert len(res.trace) == QUICK.max_outer_iters + 1  # every iteration takes a step
        assert calls and set(calls) == {1}  # each failure drops the pairs
        energies = [row.energy for row in res.trace]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_restart_from_converged_pair_stops_early(self, monkeypatch):
        """At a converged pair no trial can lower the energy by more than
        the acceptance margin: the search stops once its predicted decrease
        is that small, within a few solves, long before the step reaches
        1e-8."""
        opts = replace(QUICK, max_outer_iters=500)
        converged = optimize_penalized(Convection(1.0), 0.1, quick_init(1.8), opts).pair
        steps = []
        objective = optimize._Descent.objective

        def watched(self, x, warm):
            steps.append(x)
            return objective(self, x, warm)

        monkeypatch.setattr(optimize._Descent, "objective", watched)
        res = optimize_penalized(Convection(1.0), 0.1, converged, opts)
        assert len(res.trace) == 1  # no step is accepted
        assert len(steps) <= 8  # the initial solve and the final search
        shortest = min(float(np.linalg.norm(x - steps[0])) for x in steps[1:])
        assert shortest > 1e-8

    def test_small_decreases_do_not_end_a_run(self):
        """A run ends on collapse, the iteration cap, the gradient tolerance
        or a failed line search, never on a run of small decreases.
        Uncapped, README's order-4 example ends on three or more steps that
        each lower E by less than 1e-10·|E|, past 14 iterations, at an
        energy below the one reached at 14."""
        init = StarPair(
            FourierShape([1.0, 0.0, 0.0, 0.05, 0.0]), FourierShape([2.5, 0.0, 0.0, 0.1, 0.0])
        )
        res = optimize_constrained(
            Convection(1.0), 28.2743338823, init, OptimizeOptions(fourier_order=4)
        )
        energies = [row.energy for row in res.trace]
        small = [a - b < 1e-10 * abs(b) for a, b in zip(energies, energies[1:])]
        assert small[-3:] == [True] * 3
        assert not res.collapsed
        assert res.iterations > 14
        assert res.energy.total <= 4.38786585932755

    def test_steps_capped_at_the_first_trial(self):
        """The first trial of a steepest-descent search, the last accepted
        decrease again at the current slope, is capped at 0.25 as the
        quasi-Newton step is; on this run the uncapped trial is 0.33 and
        is accepted."""
        init = StarPair(
            FourierShape([1.0, 0.0, 0.0, 0.0058666899565207285, -0.023823247854200317]),
            FourierShape([1.6909584487874936, 0.0, 0.0, 0.01977025617919865, -0.08028235965914396]),
        )
        res = optimize_constrained(Convection(0.5), 4 * math.pi, init, replace(QUICK, mesh=Mesh(9, 32)))
        assert max(row.step for row in res.trace) == 0.25

    def test_one_assembly_per_solve(self, monkeypatch):
        """The shape gradient reuses the assembly its state was solved on."""
        annulus._assembly.cache_clear()
        built, solves = [], []
        init = annulus.Assembly.__init__

        def counted_init(self, *args):
            built.append(1)
            init(self, *args)

        def counted_solve(*args, **kwargs):
            solves.append(1)
            return solve_state(*args, **kwargs)

        monkeypatch.setattr(annulus.Assembly, "__init__", counted_init)
        monkeypatch.setattr(optimize, "solve_state", counted_solve)
        res = optimize_penalized(Convection(1.0), 0.1, quick_init(1.8), QUICK)
        assert res.iterations > 0
        assert len(built) == len(solves)

    @pytest.mark.parametrize("lam, M, r_out", [(0.0, 9 * math.pi, 2.4), (0.1, None, 1.8)])
    def test_slope_matches_projected_differences(self, lam, M, r_out):
        """g.d is the derivative of the objective along the projected path
        x + h d, the slope the quadratic backtracking interpolates."""
        descent = optimize._Descent(Convection(1.0), quick_init(r_out), QUICK, lam=lam, M=M)
        x = descent.project_point(descent.x)
        _, res = descent.objective(x, None)
        if M is not None:
            assert res.field.pair.outer.area() < M - 1.0  # the budget is inactive
        g = descent.gradient(x, res)
        d = descent.project_direction(x, -g)
        d /= np.linalg.norm(d)
        slope = float(np.dot(g, d))
        h = 1e-3
        e_plus = descent.objective(descent.project_point(x + h * d), res.field.values)[0]
        e_minus = descent.objective(descent.project_point(x - h * d), res.field.values)[0]
        assert slope < -1e-2  # not stationary
        assert (e_plus - e_minus) / (2 * h) == pytest.approx(slope, rel=1e-5)

    def test_projection_rejects_a_degenerate_inner_shape(self):
        # The gauge zeroes the inner a1 and b1, which leaves no inner area.
        descent = optimize._Descent(Convection(1.0), quick_init(), QUICK, lam=0.1, M=None)
        x = descent.x.copy()
        x[:5] = [0.0, 0.3, -0.2, 0.0, 0.0]
        with pytest.raises(GeometryError, match="^inner shape degenerated$"):
            descent.project_point(x)

    def test_geometry_error_halves_and_descends(self, monkeypatch):
        """From a thin gap the first trial step crosses the minimum gap; the
        search halves past it and every accepted step still descends."""
        rejected = []
        objective = optimize._Descent.objective

        def watched(self, x, warm):
            try:
                return objective(self, x, warm)
            except GeometryError:
                rejected.append(x)
                raise

        monkeypatch.setattr(optimize._Descent, "objective", watched)
        init = StarPair(
            FourierShape([1.0, 0.0, 0.0, 0.004, 0.0]),
            FourierShape([1.01, 0.0, 0.0, 0.008, 0.0]),
        )
        M = 4 * math.pi
        res = optimize_constrained(Convection(1.0), M, init, QUICK)
        assert rejected
        energies = [row.energy for row in res.trace]
        assert len(energies) > 2
        assert all(b < a for a, b in zip(energies, energies[1:]))
        for row in res.trace:
            assert abs(row.inner_area - math.pi) < 1e-8
            assert row.outer_area <= M + 1e-8
        assert res.pair.gap >= GAP_MIN


class TestOptions:
    def test_order_cap(self):
        with pytest.raises(ValueError):
            OptimizeOptions(fourier_order=17)

    @pytest.mark.parametrize("bad", [2.5, True, 0])
    @pytest.mark.parametrize("name", ["fourier_order", "max_outer_iters"])
    def test_count_must_be_an_integer(self, name, bad):
        # max_outer_iters=2.5 would never meet the cap; True would run one step.
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1, got {bad!r}$"):
            OptimizeOptions(**{name: bad})


class TestDefaultMesh:
    """The default mesh is 17x64: under the log-polar map the concentric
    minimizers the optimizer is checked against are exact on every mesh, and
    a perturbed pair is within a few 1e-5 of its mesh limit."""

    def test_default_mesh(self):
        assert OptimizeOptions().mesh == Mesh(17, 64)

    @pytest.mark.parametrize(
        "law", [Convection(1.0), Radiation(1.0), Tabulated([(0, 0), (0.4, 0.2), (1, 1.4)])]
    )
    def test_default_mesh_energy_within_5e5_of_richardson(self, law):
        pair = StarPair(
            FourierShape([1.0, 0.0, 0.0, 0.05, 0.0]), FourierShape([2.0, 0.0, 0.0, 0.0, 0.12])
        )
        meshes = (Mesh(65, 256), Mesh(129, 512))
        mid, fine = (solve_state(pair, law, mesh).energy.total for mesh in meshes)
        ref = fine + (fine - mid) / 3.0
        got = solve_state(pair, law, OptimizeOptions().mesh).energy.total
        assert abs(got - ref) <= 5e-5 * ref

    def test_collapse_input_of_criterion_7(self):
        init = StarPair(
            FourierShape([1.0, 0.0, 0.0, 0.05, 0.0]), FourierShape([1.8, 0.0, 0.0, 0.08, 0.0])
        )
        opts = OptimizeOptions(fourier_order=2, max_outer_iters=200)
        res = optimize_constrained(Convection(0.5), 4 * math.pi, init, opts)
        assert abs(res.energy.total - math.pi) < 0.01 * math.pi

    def test_penalized_input_of_criterion_8(self):
        oracle = best_radius(2, Convection(1.0), math.inf, 0.1).energy.total
        init = StarPair(
            FourierShape([1.0, 0.0, 0.0, 0.05, 0.0, 0.0, 0.0]),
            FourierShape([2.2, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0]),
        )
        opts = OptimizeOptions(fourier_order=3, max_outer_iters=200)
        res = optimize_penalized(Convection(1.0), 0.1, init, opts)
        assert abs(res.energy.total - oracle) < 0.02 * oracle
