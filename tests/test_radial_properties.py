"""Property tests of the radial trace search, the per-trace radius solve,
the best-radius search and their batched forms.

Laws are drawn from the families whose trace energy is nonsmooth or
nonconvex: radiation, the surface-cost jump at zero, power laws with
alpha < 1, and tabulated laws with a convex kink or a nonconvex profile.
"""

import math
from dataclasses import astuple

import numpy as np
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
    _best_radii,
    _best_shells,
    _radial_energies,
    _trace_search,
    best_radius,
    general_radial_energy,
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


LAWS = st.one_of(
    st.builds(Radiation, _pos(0.1, 3.0)),
    st.builds(SurfaceCost, _pos(0.05, 2.0), _pos(0.0, 2.0), _pos(0.5, 3.0)),
    st.builds(Power, _pos(0.1, 3.0), _pos(0.2, 0.95)),
    convex_kinked(),
    nonconvex_tabulated(),
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
    t, energy = _best_shells(n, law, np.array([l, 1.0]), lam, math.log(R_max))
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
    batched = _radial_energies(n, laws, R, [lam] * rows)
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
def test_batched_best_radii_are_one_row_results(n, law, rows):
    # The lambda axis is an unbounded budget with a penalty per row, the M
    # axis a budget per row; the rows mix both.
    R_max, lam = zip(*rows)
    for (r, m), best in zip(rows, _best_radii(n, law, R_max, lam)):
        one = best_radius(n, law, r, m)
        assert best.R_star.hex() == one.R_star.hex()
        assert _bits(best.energy) == _bits(one.energy)


def test_multi_row_trace_search_is_each_rows_search():
    # Kinked energies |l - c| a + (l - d)^2 whose brackets close in
    # different rounds; 11 rows span two blocks of the grid scan.
    rng = np.random.default_rng(3)
    a, c, d = rng.uniform(0.0, 2.0, 11), rng.uniform(0.0, 1.0, 11), rng.uniform(-0.5, 1.5, 11)
    a[:3] = 0.0
    c[3] = d[3] = 0.25  # a kink at the minimum, inside a grid cell
    calls = np.zeros(11, dtype=int)

    def energy(rows):
        def f(l, idx):
            calls[rows[idx]] += 1
            return a[rows[idx], None] * np.abs(l - c[rows[idx], None]) + (l - d[rows[idx], None]) ** 2

        return f

    together = _trace_search(energy(np.arange(11)), 11)
    calls_together = calls.copy()
    calls[:] = 0
    for k in range(11):
        alone = _trace_search(energy(np.array([k])), 1)
        assert alone[0].hex() == together[k].hex()
    # A frozen row is evaluated no more than it is alone.
    assert np.array_equal(calls, calls_together)
    assert len(set(calls_together)) > 1
