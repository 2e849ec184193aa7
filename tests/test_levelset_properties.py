"""Property tests of the all-levels triangle-clipping kernel, the exact
superlevel area function and the truncation scan of `thermoshield.levelset`,
the kernel's memory bound on a noise field, and the H identity and the
dearrangement on concentric convection states.

Fields are drawn on meshes from 3x8 to 12x48 with the inner row at 1:
uniform-random values, values quantized to quarters (exact ties), values
clamped to 0/1 plateaus, and near-ties (quarters plus 0, 1 or 2 times a
drawn gap from 1e-14 to 1e-4).  Concentric states are drawn on meshes from
33x128 to 48x192 with beta in [0.3, 3] and outer radius R in [1.3, 3].
"""

import tracemalloc

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from thermoshield.annulus import Assembly, FourierShape, Mesh, ScalarField, StarPair, _assembly, energy_of
from thermoshield.dissipation import Convection, Tabulated
from thermoshield.levelset import (
    _JUMP_WIDTH,
    _Triangulation,
    dearrangement,
    decompose_levels,
    h_function,
    nodal_gradient_ratio,
    truncation_scan,
)

PAIR = StarPair(FourierShape([1.0, 0.0, 0.0, 0.05, 0.0]), FourierShape([2.0, 0.0, 0.0, 0.0, 0.12]))
REL = 1e-9


@st.composite
def fields(draw):
    shape = (draw(st.integers(3, 12)), draw(st.integers(8, 48)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(0.0, 1.0, shape)
    kind = draw(st.sampled_from(("uniform", "quarters", "plateaus", "near-ties")))
    if kind == "quarters":
        u = np.round(4.0 * u) / 4.0
    elif kind == "plateaus":
        u = np.clip(2.0 * u - 0.5, 0.0, 1.0)
    elif kind == "near-ties":
        gap = 10.0 ** draw(st.floats(-14.0, -4.0))
        u = np.round(4.0 * u) / 4.0 + gap * rng.integers(0, 3, shape)
    u[0] = 1.0
    return u


def _triangulation(u):
    return _Triangulation(Assembly(PAIR, Mesh(*u.shape)), u)


def _jump_allowance(tri, t):
    """Largest change the jump rule may make at level t: a piece narrower
    than the jump width that holds t strictly inside adds at most
    T min(1, width / (c - a)) on its triangle."""
    v = np.sort(tri.vu, axis=1)
    a, b, c = v.T
    width = _JUMP_WIDTH * float(c.max() - a.min())
    inside = ((a < t) & (t < b) & (b - a <= width)) | ((b < t) & (t < c) & (c - b <= width))
    return float(np.sum(tri.tri_area[inside] * np.minimum(1.0, width / (c - a)[inside])))


@given(u=fields(), drawn=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=8))
def test_areas_match_per_level_clipping(u, drawn):
    tri = _triangulation(u)
    full = float(np.sum(tri.tri_area))
    ts = np.sort(np.concatenate([np.unique(u), drawn]))
    areas = tri.superlevel_areas(ts)
    for t, area, clipped in zip(ts, areas, tri.superlevels(ts)[:, 0]):
        assert abs(area - clipped) <= REL * full + _jump_allowance(tri, t)
    # Nonincreasing in t, within the same rounding allowance, and nothing
    # lies above the maximum.
    assert np.all(np.diff(areas) <= REL * full)
    assert np.all(areas[ts >= u.max()] == 0.0)


def test_areas_exact_when_every_piece_is_just_wider_than_a_jump():
    # Quarters plus 0, 1 or 2 times 1.2e-7: every piece is 1.2 jump widths
    # wide, so its curvature is about 1e7 times the others'.  Summed as they
    # are, without the split into multiples of one power of two, those
    # curvatures leave a residue of 1e-5 to 2e-4 of the full area behind the
    # pieces.
    rng = np.random.default_rng(0)
    u = np.round(4.0 * rng.uniform(0.0, 1.0, (12, 48))) / 4.0 + 1.2e-7 * rng.integers(0, 3, (12, 48))
    u[0] = 1.0
    tri = _triangulation(u)
    ts = np.unique(u)
    full = float(np.sum(tri.tri_area))
    assert np.max(np.abs(tri.superlevel_areas(ts) - tri.superlevels(ts)[:, 0])) <= REL * full


@given(u=fields(), s=st.floats(0.0, 1.0))
def test_clip_symmetric_under_negation(u, s):
    t = float(u.min() + s * (u.max() - u.min()))
    assume(not np.any(u == t))
    tri = _triangulation(u)
    area, line = tri.superlevels(np.array([t]))[0, :2]
    neg_area, neg_line = _triangulation(-u).superlevels(np.array([-t]))[0, :2]
    full = float(np.sum(tri.tri_area))
    assert neg_line == line
    assert abs(area + neg_area - full) <= 1e-12 * full


def _corners(u, *more):
    """Corner values (three flat arrays, one entry per triangle) of u, of the
    node coordinates x and y, and of each further nodal array: triangles
    (00, 10, 11) and (00, 11, 01) of every cell."""
    asm = Assembly(PAIR, Mesh(*u.shape))
    corners = []
    for f in (u, asm.rho * np.cos(asm.theta), asm.rho * np.sin(asm.theta), *more):
        g = np.roll(f, -1, axis=1)
        corners.append([np.concatenate([f[:-1], f[:-1]]).ravel(),
                        np.concatenate([f[1:], g[1:]]).ravel(),
                        np.concatenate([g[1:], g[:-1]]).ravel()])
    return corners


def _clipped_dirichlet(u, levels):
    """Dirichlet energy of the linear interpolant of u over {u > t}, per
    level t.  Per triangle with edges e1, e2 from its first vertex and value
    differences du1, du2 along them, the energy is
    |du1 e2 - du2 e1|^2 / (2 |e1 x e2|), and the share of the triangle above
    t, with sorted vertex values a <= b <= c, is 1 below a,
    1 - (t - a)^2 / ((b - a)(c - a)) on [a, b), (c - t)^2 / ((c - a)(c - b))
    on [b, c) and 0 from c on."""
    (u0, u1, u2), (x0, x1, x2), (y0, y1, y2) = _corners(u)
    du1, du2 = u1 - u0, u2 - u0
    rx = du1 * (x2 - x0) - du2 * (x1 - x0)
    ry = du1 * (y2 - y0) - du2 * (y1 - y0)
    cross = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    each = (rx * rx + ry * ry) / (2.0 * np.abs(cross))
    a, b, c = np.sort(np.stack([u0, u1, u2]), axis=0)
    energy = []
    for t in levels:
        with np.errstate(divide="ignore", invalid="ignore"):
            above = np.where(
                t < a,
                1.0,
                np.where(
                    t < b,
                    1.0 - (t - a) ** 2 / ((b - a) * (c - a)),
                    np.where(t < c, (c - t) ** 2 / ((c - a) * (c - b)), 0.0),
                ),
            )
        energy.append(float(np.sum(each * above)))
    return np.array(energy), float(np.sum(each))


@given(u=fields(), n=st.integers(1, 24))
def test_truncation_energies_match_clipped_dirichlet(u, n):
    # Under the zero law the crack and the boundary cost nothing, so the
    # energy at each threshold is the clipped Dirichlet energy.
    field = ScalarField(values=u, mesh=Mesh(*u.shape), pair=PAIR)
    rep = truncation_scan(field, PAIR, Tabulated([(0, 0), (1, 0)]), n)
    energy, total = _clipped_dirichlet(u, np.arange(n) / n)
    assert abs(rep.reference_energy - energy[0]) <= 1e-9 * total
    assert abs(rep.best_energy - energy.min()) <= 1e-9 * total


def _edge_crossings(u, phi, levels):
    """Contour length, phi line integral and phi^2 area integral of {u > t}
    per level t, from the points where the contour crosses triangle edges.

    Edge e runs from vertex e to vertex e + 1 (mod 3); if t lies between its
    end values, the contour crosses it at the share (t - u_e) / (u_e+1 - u_e)
    of its length.  A cut triangle has one vertex whose two edges are both
    crossed; the chord joins those two points.  The part above t is the
    corner triangle at that vertex if the vertex is above t, else the whole
    triangle less that corner, and phi^2 is averaged over the part's
    corners: its vertices above t and the two crossing points."""
    U, X, Y, F = (np.array(c) for c in _corners(u, phi))
    whole = 0.5 * np.abs((X[1] - X[0]) * (Y[2] - Y[0]) - (X[2] - X[0]) * (Y[1] - Y[0]))
    f_sq = np.sum(F * F, axis=0)
    nxt, prev, cols = [1, 2, 0], [2, 0, 1], np.arange(U.shape[1])
    rows = []
    for t in levels:
        up = U > t
        crossed = up != up[nxt]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(crossed, (t - U) / (U[nxt] - U), 0.0)
        px, py, pf = (V + s * (V[nxt] - V) for V in (X, Y, F))
        lone = crossed & crossed[prev]
        cut = lone.any(axis=0)
        k = np.argmax(lone, axis=0)
        j = (k + 2) % 3  # the edge that ends at the lone vertex
        ax, ay, fa = X[k, cols], Y[k, cols], F[k, cols]
        bx, by, fb = px[k, cols], py[k, cols], pf[k, cols]
        cx, cy, fc = px[j, cols], py[j, cols], pf[j, cols]
        chord = np.hypot(bx - cx, by - cy)
        corner = 0.5 * np.abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))
        above = up[k, cols]
        part = np.where(above, corner, whole - corner)
        sq = np.where(
            above,
            (fa * fa + fb * fb + fc * fc) / 3.0,
            (f_sq - fa * fa + fb * fb + fc * fc) / 4.0,
        )
        full = up.all(axis=0)
        rows.append([
            np.sum(chord[cut]),
            np.sum((chord * 0.5 * (fb + fc))[cut]),
            np.sum((part * sq)[cut]) + np.sum((whole * f_sq / 3.0)[full]),
        ])
    return np.array(rows), float(np.sum(whole)), float(np.sum(np.hypot(X - X[nxt], Y - Y[nxt])))


@given(
    u=fields(),
    seed=st.integers(0, 2**32 - 1),
    drawn=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_contour_integrals_match_edge_crossings(u, seed, drawn):
    levels = np.sort(drawn)
    levels = levels[~np.isin(levels, u)]
    assume(len(levels) > 0)
    phi = np.random.default_rng(seed).uniform(0.0, 2.0, u.shape)
    tri = _triangulation(u)
    rows = tri.superlevels(levels, tri.attach(phi))
    ref, area, edges = _edge_crossings(u, phi, levels)
    top = float(np.max(phi))
    assert np.all(np.abs(rows[:, 1] - ref[:, 0]) <= REL * edges)
    assert np.all(np.abs(rows[:, 2] - ref[:, 1]) <= REL * edges * top)
    assert np.all(np.abs(rows[:, 3] - ref[:, 2]) <= REL * area * top * top)


@given(u=fields(), drawn=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=8))
def test_outer_sums_match_masked_sums(u, drawn):
    # Node values among the levels: the outer row counts where u > t strictly.
    tri = _triangulation(u)
    levels = np.sort(np.concatenate([np.unique(u[-1]), drawn]))
    sums = tri.outer_sums(levels, tri.bw)
    masked = [np.sum(tri.bw[u[-1] > t]) for t in levels]
    np.testing.assert_allclose(sums, masked, rtol=1e-12, atol=1e-12 * np.sum(tri.bw))


def test_noise_scan_memory_and_level_rows():
    # Uniform noise cuts each triangle at half the levels on average: the
    # scan's 64 thresholds make about a million cut pairs, which the kernel
    # clips a block at a time.
    u = np.random.default_rng(7).uniform(0.0, 1.0, (64, 256))
    u[0] = 1.0
    field = ScalarField(values=u, mesh=Mesh(*u.shape), pair=PAIR)
    tracemalloc.start()
    try:
        truncation_scan(field, PAIR, Tabulated([(0, 0), (0.4, 0.2), (1, 1.4)]), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    # A single level and repeated levels give the rows of separate calls.
    tri = _triangulation(u)
    dens = tri.attach(1.0 + u)
    levels = np.array([0.2, 0.5, 0.5, 0.5, 0.75])
    rows = tri.superlevels(levels, dens)
    single = np.concatenate([tri.superlevels(levels[k : k + 1], dens) for k in range(len(levels))])
    np.testing.assert_allclose(rows, single, rtol=1e-12)


@st.composite
def concentric(draw, inner):
    """The 2D convection state of the circles (a, R), a drawn from `inner`,
    at the nodes of a drawn mesh: u = h(rho) / h(a) with
    h(r) = 1/R + beta log(R/r), and the drawn beta."""
    a, R, beta = draw(inner), draw(st.floats(1.3, 3.0)), draw(st.floats(0.3, 3.0))
    pair, mesh = StarPair.circles(a, R), Mesh(draw(st.integers(33, 48)), draw(st.integers(128, 192)))

    def h(r):
        return 1.0 / R + beta * np.log(R / r)

    values = h(_assembly(pair, mesh).rho) / h(a)
    return ScalarField(values=values, mesh=mesh, pair=pair), beta


@given(drawn=concentric(st.just(1.0)))
def test_h_identity_on_concentric_states(drawn):
    # With phi = |grad u|/u, H(t, phi) is the flux of u through the inner
    # boundary, the energy, at every level above the trace.
    field, beta = drawn
    pair = field.pair
    dec = decompose_levels(field, pair, 16, density=nodal_gradient_ratio(field, pair))
    energy = energy_of(field, pair, Convection(beta)).total
    above = dec.levels > float(field.values[-1].max()) + 1.0 / 16
    assert np.all(np.abs(h_function(dec, beta)[above] - energy) <= 0.02 * energy)


@given(drawn=concentric(st.floats(0.6, 1.0)))
def test_dearrangement_of_concentric_state_is_its_ratio(drawn):
    field, beta = drawn
    phi = dearrangement(field, field.pair, beta).values
    direct = nodal_gradient_ratio(field, field.pair).values
    assert float(np.max(np.abs(phi - direct) / direct)) <= 1e-2
