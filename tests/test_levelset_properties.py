"""Property tests of the triangle-clipping kernel, the exact superlevel
area function and the truncation scan of `thermoshield.levelset`.

Fields are drawn on meshes from 3x8 to 12x48 with the inner row at 1:
uniform-random values, values quantized to quarters (exact ties), values
clamped to 0/1 plateaus, and near-ties (quarters plus 0, 1 or 2 times a
drawn gap from 1e-14 to 1e-4).
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from thermoshield.annulus import Assembly, FourierShape, Mesh, ScalarField, StarPair
from thermoshield.dissipation import Tabulated
from thermoshield.levelset import _JUMP_WIDTH, _Triangulation, truncation_scan

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
    for t, area in zip(ts, areas):
        clipped = tri.superlevel(float(t))[0]
        assert abs(area - clipped) <= REL * full + _jump_allowance(tri, t)
    # Nonincreasing in t, within the same rounding allowance.
    assert np.all(np.diff(areas) <= REL * full)


@given(u=fields(), s=st.floats(0.0, 1.0))
def test_clip_symmetric_under_negation(u, s):
    t = float(u.min() + s * (u.max() - u.min()))
    assume(not np.any(u == t))
    tri = _triangulation(u)
    area, line = tri.superlevel(t)[:2]
    neg_area, neg_line = _triangulation(-u).superlevel(-t)[:2]
    full = float(np.sum(tri.tri_area))
    assert neg_line == line
    assert abs(area + neg_area - full) <= 1e-12 * full


def _clipped_dirichlet(u, levels):
    """Dirichlet energy of the linear interpolant of u over {u > t}, per
    level t.  Per triangle with edges e1, e2 from its first vertex and value
    differences du1, du2 along them, the energy is
    |du1 e2 - du2 e1|^2 / (2 |e1 x e2|), and the share of the triangle above
    t, with sorted vertex values a <= b <= c, is 1 below a,
    1 - (t - a)^2 / ((b - a)(c - a)) on [a, b), (c - t)^2 / ((c - a)(c - b))
    on [b, c) and 0 from c on."""
    asm = Assembly(PAIR, Mesh(*u.shape))
    x = asm.rho * np.cos(asm.theta)
    y = asm.rho * np.sin(asm.theta)
    corners = []
    for f in (u, x, y):
        g = np.roll(f, -1, axis=1)
        # Triangles (00, 10, 11) and (00, 11, 01) of every cell.
        corners.append([np.concatenate([f[:-1], f[:-1]]).ravel(),
                        np.concatenate([f[1:], g[1:]]).ravel(),
                        np.concatenate([g[1:], g[:-1]]).ravel()])
    (u0, u1, u2), (x0, x1, x2), (y0, y1, y2) = corners
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
