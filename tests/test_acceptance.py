"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every criterion carries its stated tolerance and wall-clock budget.  The
budgets are asserted; the measured values are printed so a run leaves a
readable record (pytest -s or the captured output on failure).
"""

import math
import time

import numpy as np

from thermoshield.annulus import FourierShape, Mesh, ScalarField, StarPair, solve_state
from thermoshield.dissipation import Convection, Radiation, flat_criterion, unit_ball_volume
from thermoshield.levelset import (
    decompose_levels,
    h_function,
    h_inequality_check,
    nodal_gradient_ratio,
    truncation_scan,
)
from thermoshield.optimize import OptimizeOptions, optimize_constrained, optimize_penalized
from thermoshield.radial import (
    best_radius,
    classify_regime,
    convection_energy,
    general_radial_energy,
    gradient_ratio_max,
    perturbation_expansion,
    threshold_radius,
)

LATTICE_N = (2, 3, 4)
LATTICE_BETA = (0.25, 0.5, 1.0, 2.0, 5.0)
LATTICE_R = (1.0, 1.1, 1.5, 2.0, math.e, 5.0, 10.0)


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_01_closed_form_consistency():
    t0 = time.time()
    worst = 0.0
    for n in LATTICE_N:
        for beta in LATTICE_BETA:
            for R in LATTICE_R:
                closed = convection_energy(n, beta, R).total
                scanned = general_radial_energy(n, Convection(beta), R).total
                worst = max(worst, abs(scanned - closed) / closed)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 1.0
    announce(1, ok, f"max relative gap {worst:.2e} over 105 lattice points in {elapsed:.2f}s")


def test_criterion_02_extremal_values():
    t0 = time.time()
    worst_bare = 0.0
    for n in LATTICE_N:
        for beta in LATTICE_BETA:
            bare = convection_energy(n, beta, 1.0).total
            worst_bare = max(worst_bare, abs(bare - beta * n * unit_ball_volume(n)) / bare)
    worst_limit = 0.0
    for n in (3, 4):
        for beta in LATTICE_BETA:
            limit = (n - 2) * n * unit_ball_volume(n)
            got = convection_energy(n, beta, 1e6).total
            worst_limit = max(worst_limit, abs(got - limit) / limit)
    elapsed = time.time() - t0
    ok = worst_bare < 1e-12 and worst_limit < 1e-3 and elapsed < 1.0
    announce(
        2,
        ok,
        f"bare-ball gap {worst_bare:.2e}, large-R gap {worst_limit:.2e} at R=1e6, {elapsed:.2f}s",
    )


def test_criterion_03_regime_table():
    t0 = time.time()
    samples = []
    for n in LATTICE_N:
        for beta in (0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 2.5, 3.1, 5.0):
            for r_max in (1.5, 3.0, 8.0):
                samples.append((n, beta, r_max))
    samples = samples[:30] if len(samples) < 30 else samples
    checked = 0
    regimes_seen = set()
    for n, beta, r_max in samples:
        rep = classify_regime(n, beta, r_max)
        regimes_seen.add(rep.regime)
        # Expected label straight from the case split.
        if beta >= n - 1:
            assert rep.regime == "a" and rep.optimal_radius == r_max
        elif beta <= n - 2:
            assert rep.regime == "c" and rep.optimal_radius == 1.0
        else:
            assert rep.regime == "b"
            thr = threshold_radius(n, beta)
            expect = 1.0 if r_max < thr else r_max
            if not rep.tie:
                assert rep.optimal_radius == expect
        # The reported optimum never loses to a radius scan.
        scan = min(
            convection_energy(n, beta, float(r)).total for r in np.linspace(1.0, r_max, 256)
        )
        assert rep.optimal_energy <= scan + 1e-9 * abs(scan)
        checked += 1
    assert regimes_seen == {"a", "b", "c"}

    thr = threshold_radius(2, 0.5)
    ok_thr = abs(thr - 4.92) <= 0.01

    # Critical radius equals the derivative sign change of R -> E(R).
    worst_crit = 0.0
    for n, beta in ((2, 0.5), (2, 0.25), (3, 1.5), (4, 2.0)):
        crit = (n - 1) / beta
        h = 1e-7

        def dE(R):
            return (
                convection_energy(n, beta, R + h).total
                - convection_energy(n, beta, R - h).total
            ) / (2 * h)

        lo, hi = 1.0 + 1e-6, 4.0 * crit
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dE(mid) > 0:
                lo = mid
            else:
                hi = mid
        worst_crit = max(worst_crit, abs(0.5 * (lo + hi) - crit))
    elapsed = time.time() - t0
    ok = ok_thr and worst_crit < 1e-6 and elapsed < 5.0 and checked >= 30
    announce(
        3,
        ok,
        f"{checked} samples across regimes {sorted(regimes_seen)}, threshold(2,0.5)={thr:.4f}, "
        f"critical-radius gap {worst_crit:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_gradient_ratio_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        beta = float(rng.uniform(0.1, 5.0))
        R = float(rng.uniform(1.05, 8.0))
        bounded = gradient_ratio_max(n, beta, R) <= beta + 1e-9
        e_R = convection_energy(n, beta, R).total
        scan_ok = (
            min(convection_energy(n, beta, float(r)).total for r in np.linspace(1.0, R, 64))
            >= e_R - 1e-9
        )
        if bounded != scan_ok:
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0
    announce(4, ok, f"{violations} violations in 50 random configurations, {elapsed:.2f}s")


def test_criterion_05_fem_accuracy():
    # Under the log-polar map the concentric state is exact, so circles must
    # match the radial closed forms to rounding.  Convergence is measured on
    # perturbed pairs against the Richardson value from the two finest meshes.
    t0 = time.time()
    laws = [Convection(0.5), Convection(1.0), Convection(2.0), Radiation(1.0)]
    meshes = [Mesh(32, 128), Mesh(64, 256), Mesh(128, 512)]
    worst_circle = 0.0
    worst_mid = 0.0
    worst_fine = 0.0
    monotone = True
    min_order = math.inf
    for law in laws:
        for R in (1.5, 2.0, math.e):
            exact = general_radial_energy(2, law, R).total
            for mesh in meshes:
                got = solve_state(StarPair.circles(1.0, R), law, mesh, tol=1e-11).energy.total
                worst_circle = max(worst_circle, abs(got - exact) / exact)
            pair = StarPair(
                FourierShape([1.0, 0.0, 0.0, 0.05, 0.0]),
                FourierShape([R, 0.0, 0.0, 0.0, 0.1 * (R - 1.0)]),
            )
            energies = [solve_state(pair, law, mesh).energy.total for mesh in meshes]
            finest = solve_state(pair, law, Mesh(256, 1024)).energy.total
            ref = finest + (finest - energies[-1]) / 3.0
            errs = [abs(e - ref) / ref for e in energies]
            worst_mid = max(worst_mid, errs[1])
            worst_fine = max(worst_fine, errs[2])
            monotone = monotone and errs[0] > errs[1] > errs[2]
            min_order = min(min_order, math.log2(errs[0] / errs[2]) / 2.0)
    elapsed = time.time() - t0
    ok = (
        worst_circle < 1e-10
        and worst_mid < 0.01
        and worst_fine < 0.003
        and monotone
        and min_order >= 1.0
        and elapsed < 120.0
    )
    announce(
        5,
        ok,
        f"36 circle solves: worst error {worst_circle:.2e}; 12 perturbed pairs against "
        f"Richardson: worst 64x256 error {worst_mid:.2e}, worst 128x512 error "
        f"{worst_fine:.2e}, monotone={monotone}, empirical order >= {min_order:.2f}, "
        f"{elapsed:.1f}s",
    )


def _criterion6_inits():
    rng = np.random.default_rng(2026)
    inits = []
    for _ in range(5):
        mode = int(rng.integers(1, 5))
        amp_out = float(rng.uniform(0.05, 0.15))
        amp_in = float(rng.uniform(0.0, 0.05))
        r_out = float(rng.uniform(2.0, 2.8))
        use_sin = bool(rng.integers(0, 2))
        inner = [1.0] + [0.0] * 8
        outer = [r_out] + [0.0] * 8
        idx = 2 * mode if use_sin else 2 * mode - 1
        inner[idx] = amp_in
        outer[idx] = amp_out
        inits.append(StarPair(FourierShape(inner), FourierShape(outer)))
    return inits


def test_criterion_06_ball_optimality_constrained():
    t0 = time.time()
    oracle = convection_energy(2, 1.0, 3.0).total
    opts = OptimizeOptions(fourier_order=4, mesh=Mesh(33, 128), max_outer_iters=200)
    worst_rel = 0.0
    worst_deficit = 0.0
    for init in _criterion6_inits():
        res = optimize_constrained(Convection(1.0), 9 * math.pi, init, opts)
        worst_rel = max(worst_rel, abs(res.energy.total - oracle) / oracle)
        worst_deficit = max(worst_deficit, res.deficit)
    elapsed = time.time() - t0
    ok = worst_rel < 0.01 and worst_deficit < 1e-2 and elapsed < 600.0
    announce(
        6,
        ok,
        f"5 initializations: worst energy gap {worst_rel:.2e} vs radial optimum at R=3, "
        f"worst deficit {worst_deficit:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_insulation_collapse():
    t0 = time.time()
    opts = OptimizeOptions(fourier_order=2, mesh=Mesh(33, 128), max_outer_iters=200)
    init = StarPair(
        FourierShape([1.0, 0.0, 0.0, 0.05, 0.0]),
        FourierShape([1.8, 0.0, 0.0, 0.08, 0.0]),
    )
    res = optimize_constrained(Convection(0.5), 4 * math.pi, init, opts)
    rel = abs(res.energy.total - math.pi) / math.pi
    elapsed = time.time() - t0
    ok = rel < 0.01 and elapsed < 600.0
    announce(
        7,
        ok,
        f"final energy {res.energy.total:.6f} vs pi (bare ball), gap {rel:.2e}, "
        f"collapsed={res.collapsed}, {elapsed:.1f}s",
    )


def test_criterion_08_penalized_ball_optimality():
    t0 = time.time()
    oracle = best_radius(2, Convection(1.0), math.inf, 0.1).energy.total
    opts = OptimizeOptions(fourier_order=3, mesh=Mesh(33, 128), max_outer_iters=200)
    init = StarPair(
        FourierShape([1.0, 0.0, 0.0, 0.05, 0.0, 0.0, 0.0]),
        FourierShape([2.2, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0]),
    )
    res = optimize_penalized(Convection(1.0), 0.1, init, opts)
    rel = abs(res.energy.total - oracle) / oracle
    elapsed = time.time() - t0
    ok = rel < 0.02 and elapsed < 600.0
    announce(
        8,
        ok,
        f"penalized optimum {res.energy.total:.6f} vs 1D oracle {oracle:.6f}, gap {rel:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_h_function_identity_and_inequality():
    t0 = time.time()
    pair = StarPair.circles(1.0, 2.0)
    res = solve_state(pair, Convection(1.0), Mesh(64, 256))
    phi = nodal_gradient_ratio(res.field, pair)
    dec = decompose_levels(res.field, pair, 40, density=phi)
    h_vals = h_function(dec, 1.0)
    energy = res.energy.total
    spread = float(h_vals.std()) / energy

    rng = np.random.default_rng(11)
    passes = 0
    for k in range(20):
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        mode = int(rng.integers(1, 5))
        amp_out = float(rng.uniform(0.03, 0.15))
        amp_in = float(rng.uniform(0.0, 0.04))
        inner = [1.0] + [0.0] * 8
        outer = [2.0] + [0.0] * 8
        idx = 2 * mode - 1 if k % 2 == 0 else 2 * mode
        inner[idx] = amp_in
        outer[idx] = amp_out
        p = StarPair(FourierShape(inner), FourierShape(outer))
        solved = solve_state(p, Convection(beta), Mesh(48, 192))
        if h_inequality_check(solved.field, p, beta, 64).passes:
            passes += 1
    elapsed = time.time() - t0
    ok = spread <= 0.02 and passes == 20 and elapsed < 300.0
    announce(
        9,
        ok,
        f"H spread {spread:.2e} of energy on circles, inequality passed {passes}/20 "
        f"randomized pairs, {elapsed:.1f}s",
    )


def test_criterion_10_perturbation_criterion():
    t0 = time.time()
    law = Radiation(1.0)
    eps = 1e-3
    pe = perturbation_expansion(2, law, eps)
    numeric = (pe.energy_eps - 2 * math.pi * law.value(1.0)) / eps
    rel = abs(numeric - (-320.75)) / 320.75

    conv = perturbation_expansion(2, Convection(1.0), eps)
    elapsed = time.time() - t0
    ok = rel < 0.05 and abs(conv.first_order_coeff) < 1e-6 * 2 * math.pi and elapsed < 1.0
    announce(
        10,
        ok,
        f"radiation slope {numeric:.2f} vs -320.75 (gap {rel:.1%}), convection coefficient "
        f"{conv.first_order_coeff:.1e}, {elapsed:.2f}s",
    )


def test_criterion_11_flatness_consistency():
    t0 = time.time()
    mismatches = 0
    for n in LATTICE_N:
        for beta in np.linspace(0.05, 5.0, 50):
            fc = flat_criterion(Convection(float(beta)), n)
            if fc.flat_optimal_for_small_M != (beta < n - 1):
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 1.0
    announce(11, ok, f"{mismatches} mismatches over 150 (beta, n) pairs, {elapsed:.2f}s")


def test_criterion_12_truncation_mechanism():
    t0 = time.time()
    pair = StarPair.circles(1.0, 2.0)
    mesh = Mesh(64, 256)
    values = np.ones((64, 256))
    values[32:, :] = 1e-3
    manual = ScalarField(values=values, mesh=mesh, pair=pair)
    rep = truncation_scan(manual, pair, Convection(1.0), 64)
    improved = rep.improved and rep.best_t >= 1e-3

    rng = np.random.default_rng(17)
    never_increase = True
    for k in range(20):
        beta = float(rng.uniform(0.3, 3.0))
        mode = int(rng.integers(1, 5))
        amp = float(rng.uniform(0.0, 0.12))
        outer = [2.0] + [0.0] * 8
        outer[2 * mode - 1] = amp
        p = StarPair(FourierShape.circle(1.0, order=4), FourierShape(outer))
        law = Convection(beta) if k % 2 == 0 else Radiation(1.0)
        solved = solve_state(p, law, Mesh(33, 128))
        scan = truncation_scan(solved.field, p, law, 64)
        if scan.best_energy > scan.reference_energy + 1e-12:
            never_increase = False
    elapsed = time.time() - t0
    ok = improved and never_increase and elapsed < 120.0
    announce(
        12,
        ok,
        f"low-trace field improved by {rep.reference_energy - rep.best_energy:.1f} at "
        f"t={rep.best_t:.3f}; no increase on 20 solved fields, {elapsed:.1f}s",
    )
