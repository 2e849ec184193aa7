"""Property tests of the radial trace search, the per-trace radius solve,
the best-radius search and their batched forms.

Laws are drawn from the families whose trace energy is nonsmooth or
nonconvex: radiation, the surface-cost jump at zero, power laws with
alpha < 1, and tabulated laws with a convex kink, a nonconvex profile or
a jump.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermoshield.dissipation import (
    Convection,
    Power,
    Radiation,
    SurfaceCost,
    Tabulated,
    unit_ball_volume,
)
from thermoshield.radial import (
    _best_shells,
    _trace_search,
    best_radius,
    general_radial_energy,
    gradient_ratio,
    gradient_ratio_max,
)

SCAN = np.linspace(0.0, 1.0, 100_001)
REL = 1e-9


def _pos(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def convex_kinked(draw):
    kink = draw(_pos(0.1, 0.9))
    s1 = draw(_pos(0.05, 2.0))
    s2 = s1 + draw(_pos(0.1, 4.0))
    return Tabulated([(0.0, 0.0), (kink, s1 * kink), (1.0, s1 * kink + s2 * (1.0 - kink))])


@st.composite
def nonconvex_tabulated(draw):
    # Steep, then nearly flat, then steep again.
    a = draw(_pos(0.05, 0.45))
    b = a + draw(_pos(0.1, 0.45))
    v1 = draw(_pos(0.2, 2.0))
    v2 = v1 + draw(_pos(0.0, 0.05))
    v3 = v2 + draw(_pos(0.2, 3.0))
    return Tabulated([(0.0, 0.0), (a, v1), (b, v2), (1.0, v3)])


@st.composite
def jump_tabulated(draw):
    # A jump at a knot inside (0, 1): the trace energy is discontinuous there.
    a = draw(_pos(0.05, 0.95))
    v = draw(_pos(0.0, 2.0))
    j = draw(_pos(0.05, 2.0))
    w = v + j + draw(_pos(0.0, 2.0))
    return Tabulated([(0.0, 0.0), (a, v), (a, v + j), (1.0, w)])


LAWS = st.one_of(
    st.builds(Radiation, _pos(0.1, 3.0)),
    st.builds(SurfaceCost, _pos(0.05, 2.0), _pos(0.0, 2.0), _pos(0.5, 3.0)),
    st.builds(Power, _pos(0.1, 3.0), _pos(0.2, 0.95)),
    convex_kinked(),
    nonconvex_tabulated(),
    jump_tabulated(),
)


def _coeffs(n, R):
    """(stiff, Per(B_R)) of the trace energy, from the explicit profiles."""
    per1 = n * unit_ball_volume(n)
    drop = math.log(R) if n == 2 else (1.0 - R ** (2 - n)) / (n - 2)
    return per1 / drop, per1 * R ** (n - 1)


@given(n=st.sampled_from((2, 3)), R=st.floats(1.0, 6.0, exclude_min=True), law=LAWS)
def test_trace_search_beats_dense_scan(n, R, law):
    e = general_radial_energy(n, law, R)
    stiff, per_R = _coeffs(n, R)
    scan = float(np.min(stiff * (1.0 - SCAN) ** 2 + per_R * law.value(SCAN)))
    assert e.total <= scan + REL * abs(scan)


@given(n=st.sampled_from((2, 3)), R=st.floats(1.0, 6.0, exclude_min=True), law=LAWS)
def test_breakdown_matches_reported_trace(n, R, law):
    e = general_radial_energy(n, law, R)
    stiff, per_R = _coeffs(n, R)
    assert 0.0 <= e.trace <= 1.0
    recomputed = stiff * (1.0 - e.trace) ** 2 + per_R * law.value(e.trace)
    assert math.isclose(e.dirichlet + e.boundary, recomputed, rel_tol=1e-12)


@given(
    n=st.sampled_from((2, 3)),
    R_max=st.floats(1.0, 6.0, exclude_min=True),
    law=LAWS,
    lam=st.one_of(st.just(0.0), _pos(0.05, 2.0)),
    fracs=st.lists(_pos(0.0, 1.0), min_size=32, max_size=32),
)
def test_best_radius_beats_drawn_radii(n, R_max, law, lam, fracs):
    # A penalty moves the optimum inside (1, R_max).  Half of the radii are
    # drawn close to the reported optimum, where the refinement over R acts.
    best = best_radius(n, law, R_max, lam)
    near = best.R_star + 0.05 * (R_max - 1.0) * (2.0 * np.array(fracs[16:]) - 1.0)
    radii = np.concatenate([1.0 + np.array(fracs[:16]) * (R_max - 1.0), near])
    for R in np.clip(radii, 1.0, R_max):
        total = general_radial_energy(n, law, float(R), lam).total
        assert best.energy.total <= total + REL * abs(total), (R, total, best)


@given(
    n=st.sampled_from((2, 3)),
    R_max=st.floats(1.0, 6.0, exclude_min=True),
    law=LAWS,
    lam=st.one_of(st.just(0.0), _pos(0.0, 2.0)),
    l=_pos(0.0, 1.0),
)
def test_radius_solve_beats_dense_scan(n, R_max, law, lam, l):
    # The second trace is l = 1, whose best radius is the bare ball.
    traces = np.array([l, 1.0])
    t, *terms = _best_shells(n, law.value(traces), traces, lam, math.log(R_max))
    energy = sum(terms)
    assert t[1] == 0.0
    assert 0.0 <= t[0] <= math.log(R_max)
    w = unit_ball_volume(n)
    R = np.linspace(1.0, R_max, 20_001)
    R = R[R > 1.0]
    drop = np.log(R) if n == 2 else (1.0 - R ** (2 - n)) / (n - 2)
    scan = n * w * ((1.0 - l) ** 2 / drop + R ** (n - 1) * law.value(l)) + lam * w * (R**n - 1.0)
    best = float(np.min(scan))
    assert energy[0] <= best + 1e-12 * abs(best)


def _bits(energy):
    return [x.hex() for x in astuple(energy)]


RADII = st.one_of(st.just(1.0), st.floats(1.0, 6.0))
LAMS = st.one_of(st.just(0.0), _pos(0.0, 2.0))


@given(
    n=st.sampled_from((2, 3)),
    axis=st.sampled_from(("beta", "gamma", "R", "mixed")),
    shared=LAWS,
    params=st.lists(_pos(0.1, 5.0), min_size=1, max_size=12),
    radii=st.lists(RADII, min_size=12, max_size=12),
    lam=LAMS,
)
def test_batched_shell_energies_are_one_row_results(n, axis, shared, params, radii, lam):
    # The beta and gamma axes give a law per row at one radius, the R axis
    # one law at a radius per row; mixed rows draw both, with a
    # nonsmooth law in every third row.
    rows = len(params)
    if axis == "R":
        laws, R = shared, radii[:rows]
    elif axis == "mixed":
        laws = [shared if k % 3 == 0 else Radiation(p) for k, p in enumerate(params)]
        R = radii[:rows]
    else:
        laws = [(Convection if axis == "beta" else Radiation)(p) for p in params]
        R = [radii[0]] * rows
    batched = general_radial_energy(n, laws, R, [lam] * rows)
    for k, energy in enumerate(batched):
        law = laws if axis == "R" else laws[k]
        assert _bits(energy) == _bits(general_radial_energy(n, law, R[k], lam))


@given(
    n=st.sampled_from((2, 3)),
    law=LAWS,
    rows=st.lists(
        st.one_of(st.tuples(RADII, LAMS), st.tuples(st.just(math.inf), _pos(0.05, 2.0))),
        min_size=1,
        max_size=10,
    ),
)
def test_batched_best_radius_rows_are_one_row_results(n, law, rows):
    # The lambda axis is an unbounded budget with a penalty per row, the M
    # axis a budget per row; the rows mix both.
    R_max, lam = zip(*rows)
    for (r, m), best in zip(rows, best_radius(n, law, R_max, lam)):
        one = best_radius(n, law, r, m)
        assert best.R_star.hex() == one.R_star.hex()
        assert _bits(best.energy) == _bits(one.energy)


@given(
    n=st.sampled_from((2, 3)),
    shared=LAWS,
    gammas=st.lists(_pos(0.1, 5.0), min_size=1, max_size=8),
    R_max=st.one_of(st.just(math.inf), st.floats(1.0, 6.0)),
    lam=_pos(0.05, 2.0),
)
def test_grid_best_radius_takes_a_law_per_row_and_one_lam(n, shared, gammas, R_max, lam):
    # A number lam serves every row, and the laws mix a nonsmooth one with
    # radiation.
    laws = [shared if k % 2 == 0 else Radiation(g) for k, g in enumerate(gammas)]
    grid = best_radius(n, laws, [R_max] * len(laws), lam)
    for law, best in zip(laws, grid):
        one = best_radius(n, law, R_max, lam)
        assert best.R_star.hex() == one.R_star.hex()
        assert _bits(best.energy) == _bits(one.energy)


@pytest.mark.parametrize(
    "call, names",
    [
        (lambda: general_radial_energy(2, Radiation(1.0), [1.5, 2.0], [0.1]), "R, lam"),
        (lambda: general_radial_energy(2, [Radiation(1.0)], [1.5, 2.0]), "R, lam, law"),
        (lambda: best_radius(2, Radiation(1.0), [2.0], [0.1, 0.2]), "R_max, lam"),
        (lambda: best_radius(2, [Radiation(1.0)] * 3, [2.0, 3.0], 0.1), "R_max, lam, law"),
        # A number R or R_max is one row, so it takes one law and one lam.
        pytest.param(lambda: general_radial_energy(2, [Radiation(1.0)] * 2, 2.0), "R, lam, law",
                     id="number-R-law-list"),
        pytest.param(lambda: general_radial_energy(2, Radiation(1.0), 2.0, [0.1, 0.2]), "R, lam",
                     id="number-R-lam-list"),
        pytest.param(lambda: best_radius(2, [Radiation(1.0)] * 2, 3.0), "R_max, lam, law",
                     id="number-R_max-law-list"),
    ],
)
def test_grid_of_unequal_lengths_names_them(call, names):
    with pytest.raises(ValueError, match=f"^{names} must have one entry per row"):
        call()


def test_scalar_and_empty_grids():
    # A number R gives one breakdown, a sequence a list, even of one or no rows.
    law = Radiation(1.0)
    one = general_radial_energy(2, law, 2.0)
    assert general_radial_energy(2, law, [2.0]) == [one]
    assert general_radial_energy(2, law, np.array([2.0])) == [one]
    assert general_radial_energy(2, law, []) == []
    assert best_radius(2, law, [2.0, 1.0], 0.0) == [best_radius(2, law, 2.0), best_radius(2, law, 1.0)]
    assert best_radius(2, law, []) == []


def test_multi_row_trace_search_is_each_rows_search():
    # Kinked functions |l - c| a + (l - d)^2 whose cells close in different
    # rounds; 11 rows span two blocks of the value scan.
    rng = np.random.default_rng(3)
    a, c, d = rng.uniform(0.0, 2.0, 11), rng.uniform(0.0, 1.0, 11), rng.uniform(-0.5, 1.5, 11)
    a[:3] = 0.0
    c[3] = d[3] = 0.3  # a kink at the minimum, inside a scan cell
    calls = np.zeros(11, dtype=int)

    def functions(rows):
        def value(l, idx):
            calls[rows[idx]] += 1
            return a[rows[idx], None] * np.abs(l - c[rows[idx], None]) + (l - d[rows[idx], None]) ** 2

        def slope(l, idx):
            calls[rows[idx]] += 1
            return a[rows[idx], None] * np.where(l < c[rows[idx], None], -1.0, 1.0) + 2.0 * (l - d[rows[idx], None])

        return value, slope

    together = _trace_search(*functions(np.arange(11)), 11, np.array([]))
    calls_together = calls.copy()
    calls[:] = 0
    for k in range(11):
        alone = _trace_search(*functions(np.array([k])), 1, np.array([]))
        assert alone[0].hex() == together[k].hex()
    # A frozen row is evaluated no more than it is alone.
    assert np.array_equal(calls, calls_together)
    assert len(set(calls_together)) > 1
    # Kinks inside a scan cell, smooth minima and the ends are pinned to
    # rounding: the slopes cancel terms up to 2, so to about eps absolute.
    want = np.clip(np.where(d < c - a / 2, d + a / 2, np.where(d > c + a / 2, d - a / 2, c)), 0.0, 1.0)
    assert np.allclose(together, want, rtol=0.0, atol=1e-15)


@given(n=st.integers(2, 5), beta=_pos(0.01, 50.0), R=_pos(1.0001, 20.0))
def test_gradient_ratio_max_is_the_dense_maximum(n, beta, R):
    """The ratio has no interior maximum on [1, R], so its value at the
    two ends is the maximum of a dense scan, which holds both ends."""
    dense = float(np.max(gradient_ratio(n, beta, R, np.linspace(1.0, R, 100_001))))
    assert gradient_ratio_max(n, beta, R) == pytest.approx(dense, rel=1e-13)
