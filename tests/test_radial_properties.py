"""Property tests of the radial trace search, the per-trace radius solve
and the best-radius search.

Laws are drawn from the families whose trace energy is nonsmooth or
nonconvex: radiation, the surface-cost jump at zero, power laws with
alpha < 1, and tabulated laws with a convex kink or a nonconvex profile.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from thermoshield.dissipation import (
    Power,
    Radiation,
    SurfaceCost,
    Tabulated,
    unit_ball_volume,
)
from thermoshield.radial import _best_shells, best_radius, general_radial_energy

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
