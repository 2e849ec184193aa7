"""Level-set machinery over solved temperature fields.

Decomposes the level boundaries of a field into their interior part (the
contour inside the annulus) and exterior part (the portion of the outer
boundary above the level), measures superlevel areas, evaluates the
comparison functional

    H(t, phi) = beta * len(exterior) + int_{interior} phi - int_{u > t} phi^2,

transplants the radial gradient ratio onto the level sets of a general
field by area matching, scans truncation thresholds of the relaxed
crack-admitting energy, and evaluates the high-cutoff feasibility bound.

All lengths and areas come from splitting each mesh cell into two triangles
with linear interpolation: contours are chords, partial areas are exact for
the linear interpolant, consistent first order with the bilinear field.  One
clipping kernel gives the lengths, areas, density integrals and truncated
Dirichlet energies of all levels in one pass: with each triangle's vertex
values sorted, the levels that cut it form one range, the triangles wholly
above a level are a suffix sum, and only the cut (triangle, level) pairs
are clipped, in blocks of a fixed number of pairs.  The superlevel-area
function used for area matching is exact for the linear interpolant at all
node values at once (it is piecewise quadratic in the level), so it needs
no level count.  The triangles' vertex coordinates and areas depend only on
the assembly: they are built once per assembly and shared, read-only, by the
triangulations of every field on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .annulus import (
    Assembly, MeshMismatchError, ScalarField, StarPair, _assembly, _next, _prev, _require_same_pair,
    _write_csv, energy_of,
)
from .dissipation import (
    Convection,
    DissipationLaw,
    _check_params,
    _require_count,
    _require_finite,
    unit_ball_volume,
)
from .radial import gradient_ratio

__all__ = [
    "LevelDecomposition",
    "HInequalityReport",
    "TruncationReport",
    "HighCutoffReport",
    "DegenerateFieldError",
    "decompose_levels",
    "h_function",
    "nodal_gradient_ratio",
    "dearrangement",
    "h_inequality_check",
    "truncation_scan",
    "high_cutoff_bound",
    "levels_to_csv",
]


class DegenerateFieldError(ValueError):
    """The field is constant; its level structure is empty."""


@dataclass(frozen=True)
class LevelDecomposition:
    """Per-level geometry of a field: t values, contour length inside the
    annulus, outer-boundary length above the level, superlevel area within
    the annulus, and (optionally) the line and squared-area integrals of a
    supplied density."""

    levels: np.ndarray
    interior_length: np.ndarray
    exterior_length: np.ndarray
    area: np.ndarray
    density_line: Optional[np.ndarray] = None
    density_sq_area: Optional[np.ndarray] = None


@dataclass(frozen=True)
class HInequalityReport:
    min_H: float
    weighted_integral: float
    energy: float
    passes: bool


@dataclass(frozen=True)
class TruncationReport:
    best_t: float
    best_energy: float
    reference_energy: float
    improved: bool


@dataclass(frozen=True)
class HighCutoffReport:
    delta: float
    feasible: bool


# Share of the value range below which `superlevel_areas` takes a piece as
# a jump: its curvature would swamp the running sums.
_JUMP_WIDTH = 1e-7

# Cut (triangle, level) pairs that `_Triangulation.superlevels` clips at
# once: its temporaries stay this size even when every triangle crosses
# every level.
_PAIR_BLOCK = 4096


class _Triangulation:
    """Triangle split of the annulus mesh with per-triangle vertex data of
    the nodal field `values`, the assembly's triangle geometry (`_geometry`)
    and the outer boundary weights `bw`."""

    def __init__(self, asm: Assembly, values: np.ndarray):
        self.values = values
        self.bw = asm.bw
        self.vx, self.vy, self.tri_area = _geometry(asm)
        self.vu = self.attach(values)

    @staticmethod
    def attach(nodal: np.ndarray) -> np.ndarray:
        """Per-triangle vertex values of a nodal array: triangles
        (00, 10, 11) and (00, 11, 01) per cell, flattened."""
        a00 = nodal[:-1]
        a10 = nodal[1:]
        nxt = _next(nodal)
        a01 = nxt[:-1]
        a11 = nxt[1:]
        return np.concatenate(
            [np.stack([a00, a10, a11], -1), np.stack([a00, a11, a01], -1)]
        ).reshape(-1, 3)

    def gradient_sq(self) -> np.ndarray:
        """Squared gradient of the linear interpolant, one value per triangle."""
        ux1 = self.vx[:, 1] - self.vx[:, 0]
        uy1 = self.vy[:, 1] - self.vy[:, 0]
        ux2 = self.vx[:, 2] - self.vx[:, 0]
        uy2 = self.vy[:, 2] - self.vy[:, 0]
        du1 = self.vu[:, 1] - self.vu[:, 0]
        du2 = self.vu[:, 2] - self.vu[:, 0]
        det = ux1 * uy2 - ux2 * uy1
        det = np.where(np.abs(det) < 1e-300, 1e-300, det)
        gx = (du1 * uy2 - du2 * uy1) / det
        gy = (ux1 * du2 - ux2 * du1) / det
        return gx * gx + gy * gy

    def superlevels(
        self, levels: np.ndarray, density: Optional[np.ndarray] = None, weights: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Rows (weighted area, contour length, density line integral,
        density^2 weighted-area integral) of {u > t} for the linear
        interpolant, one per entry t of the sorted array `levels`.

        Each triangle counts with its weight (by default its area) times the
        share of its area above t, which is exact.  Density integrals use
        vertex-mean values over the clipped polygon and the chord endpoints;
        `density` holds per-triangle vertex values, as `attach` gives them.

        With sorted vertex values a <= b <= c, t cuts a triangle iff
        a <= t < c, so the levels that cut it are one contiguous range; the
        lone vertex on its side of t is c, above t, when b <= t, and a
        otherwise.  Below that range the triangle counts whole: those sums
        are suffix sums over each triangle's first cut level.  Only the cut
        (triangle, level) pairs are clipped, `_PAIR_BLOCK` at a time.
        """
        n = len(levels)
        w = self.tri_area if weights is None else weights
        u, x, y = self.vu.ravel(), self.vx.ravel(), self.vy.ravel()
        # Flat indices of each triangle's lowest vertex (the first of equal
        # lowest ones), its middle one and its highest (the last of equal
        # highest ones): a stable sort keeps equal values in vertex order.
        order = np.argsort(self.vu, axis=1, kind="stable")
        order += 3 * np.arange(len(order))[:, None]
        low, mid, high = order.T
        first = np.searchsorted(levels, u[low], side="left")
        stop = np.searchsorted(levels, u[high], side="left")
        whole = [w]
        if density is not None:
            fa, fb, fc = density.T
            whole.append(w * ((fa * fa + fb * fb + fc * fc) / 3.0))
        rows = np.zeros((n, 4))
        for col, each in zip((0, 3), whole):
            rows[:, col] = np.cumsum(np.bincount(first, weights=each, minlength=n + 1)[::-1])[-2::-1]
        cut = np.flatnonzero(stop > first)
        count = (stop - first)[cut]
        end = np.cumsum(count)
        total = int(end[-1]) if len(cut) else 0
        # Pair p is level offset + p of the cut triangle whose pair range
        # holds p.
        offset = first[cut] - (end - count)
        for p0 in range(0, total, _PAIR_BLOCK):
            p = np.arange(p0, min(p0 + _PAIR_BLOCK, total))
            i = np.searchsorted(end, p, side="right")
            tri = cut[i]
            k = offset[i] + p
            t = levels[k]
            lo, hi, m = low[tri], high[tri], mid[tri]
            above = u[m] <= t
            # The lone vertex, the middle one and the other end; swapping
            # the last two would only negate the chord.
            corners = (np.where(above, hi, lo), m, np.where(above, lo, hi))
            da, db, dc = (u[c] - t for c in corners)
            tau_b = da / (da - db)
            tau_c = da / (da - dc)
            ax, bx, cx = (x[c] for c in corners)
            ay, by, cy = (y[c] for c in corners)
            seg = np.hypot(tau_b * (bx - ax) - tau_c * (cx - ax), tau_b * (by - ay) - tau_c * (cy - ay))
            corner = tau_b * tau_c
            part = w[tri] * np.where(above, corner, 1.0 - corner)
            rows[:, 0] += np.bincount(k, weights=part, minlength=n)
            rows[:, 1] += np.bincount(k, weights=seg, minlength=n)
            if density is None:
                continue
            fa, fb, fc = (density.ravel()[c] for c in corners)
            fpb = fa + tau_b * (fb - fa)
            fpc = fa + tau_c * (fc - fa)
            rows[:, 2] += np.bincount(k, weights=seg * 0.5 * (fpb + fpc), minlength=n)
            # The part above t is the corner at the lone vertex or the
            # quadrilateral opposite it.
            mean_sq = np.where(
                above,
                (fa * fa + fpb * fpb + fpc * fpc) / 3.0,
                (fb * fb + fc * fc + fpb * fpb + fpc * fpc) / 4.0,
            )
            rows[:, 3] += np.bincount(k, weights=part * mean_sq, minlength=n)
        return rows

    def outer_sums(self, levels: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Sum of the outer-row nodal weights where u > t, at each level t."""
        order = np.argsort(self.values[-1])
        above = np.append(np.cumsum(weights[order][::-1])[::-1], 0.0)
        return above[np.searchsorted(self.values[-1][order], levels, side="right")]

    def superlevel_areas(self, t: np.ndarray) -> np.ndarray:
        """Area of {u > t} for the linear interpolant, at every entry of t.

        On a triangle of area T with sorted vertex values a <= b <= c it is
        T - T (t - a)^2 / ((b - a)(c - a)) on [a, b) and
        T (c - t)^2 / ((c - a)(c - b)) on [b, c).  The total is piecewise
        quadratic in t; its value, slope and curvature after each sorted
        break are running sums, and a query takes a Taylor step from the
        last break at or below it (side="right" keeps u > t strict).  A
        piece narrower than `_JUMP_WIDTH` times the value range is a jump,
        which changes the area only for t strictly inside that piece.
        """
        # The ranks of the node values among the distinct values x, sorted
        # per triangle, are the break indices of the sorted vertex values.
        x, rank = np.unique(self.values, return_inverse=True)
        iv = np.sort(self.attach(rank.reshape(self.values.shape)), axis=1)
        ia, ib, ic = iv.T
        a, b, c = x[iv].T
        T = self.tri_area
        full = float(np.sum(T))
        jump = _JUMP_WIDTH * float(c.max() - a.min())
        wide1, wide2 = b - a > jump, c - b > jump

        def at(i, w):
            return np.bincount(i, weights=w, minlength=len(x))

        with np.errstate(divide="ignore", invalid="ignore"):
            k1 = np.where(wide1, T / ((b - a) * (c - a)), 0.0)
            k2 = np.where(wide2, T / ((c - b) * (c - a)), 0.0)
            kink = np.where(wide1 != wide2, 2.0 * T / (c - a), 0.0)
            at_b = np.where(c > a, T * (c - b) / (c - a), 0.0)
        del rank, a, b, c  # the sums below need only the break indices
        # Curvature -k1 on [a, b) and k2 on [b, c), split into multiples of
        # one power of two q, whose sums stay below 2**53 q and so are exact,
        # and remainders below q/2: a narrow piece's huge curvature then
        # leaves no rounding residue behind it.
        q = math.ldexp(1.0, math.frexp(2.0 * float(np.sum(k1 + k2)))[1] - 50)
        curv = np.zeros(len(x))
        for k, start, end in ((-k1, ia, ib), (k2, ib, ic)):
            hi = np.round(k / q) * q
            for w in (hi, k - hi):
                curv += np.cumsum(at(start, w) - at(end, w))
        gap = np.diff(x)
        slope = at(ib, np.where(wide1, kink, -kink))
        slope[1:] += 2.0 * curv[:-1] * gap
        slope = np.cumsum(slope)
        # A narrow piece keeps the value at its start and drops at its end.
        value = at(ib, np.where(wide1, 0.0, at_b - T)) + at(ic, np.where(wide2, 0.0, -at_b))
        value[1:] += (slope[:-1] + curv[:-1] * gap) * gap
        value = full + np.cumsum(value)
        value[-1] = slope[-1] = curv[-1] = 0.0  # nothing lies above the maximum
        j = np.searchsorted(x, t, side="right") - 1
        h = t - x[j]
        return np.where(j < 0, full, value[j] + (slope[j] + curv[j] * h) * h)


@functools.lru_cache(maxsize=1)
def _geometry(asm: Assembly) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triangle vertex coordinates vx, vy and triangle areas of the
    assembly's mesh, kept for the next call on it as `annulus._assembly`
    keeps the assembly; read-only, as every triangulation on it shares them."""
    vx = _Triangulation.attach(asm.rho * np.cos(asm.theta)[None, :])
    vy = _Triangulation.attach(asm.rho * np.sin(asm.theta)[None, :])
    cross = (vx[:, 1] - vx[:, 0]) * (vy[:, 2] - vy[:, 0]) - (vx[:, 2] - vx[:, 0]) * (vy[:, 1] - vy[:, 0])
    geometry = (vx, vy, 0.5 * np.abs(cross))
    for a in geometry:
        a.setflags(write=False)
    return geometry


def _check_not_constant(u: np.ndarray) -> None:
    if float(np.max(u) - np.min(u)) < 1e-14:
        raise DegenerateFieldError("field is constant; no level structure")


def _triangulate(field: ScalarField, pair: StarPair) -> _Triangulation:
    """The triangulation of the field over the assembly of `pair` on its
    mesh.  A field of another pair raises `MeshMismatchError`."""
    _require_same_pair(field, pair)
    return _Triangulation(_assembly(pair, field.mesh), field.values)


def decompose_levels(
    field: ScalarField,
    pair: StarPair,
    n_levels: int,
    density: Optional[ScalarField] = None,
) -> LevelDecomposition:
    """Level decomposition of a field at uniform levels in (0, 1).

    When a density field phi is supplied, its line integral over each
    interior contour and the integral of phi^2 over each superlevel set are
    accumulated alongside the geometry.  A field of another pair, or a
    density of another pair or mesh than the field, raises
    `MeshMismatchError`; a field with a non-finite value, or a density with
    a negative or non-finite one, raises `ValueError`.
    """
    _require_count("n_levels", n_levels, 1)
    _check_not_constant(field.values)
    tri = _triangulate(field, pair)
    levels = (np.arange(n_levels) + 0.5) / n_levels
    dens = None
    if density is not None:
        if (density.pair, density.mesh) != (field.pair, field.mesh):
            raise MeshMismatchError("density was built on another pair or mesh than the field")
        if not np.all(np.isfinite(density.values) & (density.values >= 0.0)):
            raise ValueError("density has a negative or non-finite value")
        dens = tri.attach(density.values)
    area, interior, dline, darea = tri.superlevels(levels, dens).T
    return LevelDecomposition(
        levels=levels,
        interior_length=interior,
        exterior_length=tri.outer_sums(levels, tri.bw),
        area=area,
        density_line=dline if dens is not None else None,
        density_sq_area=darea if dens is not None else None,
    )


def h_function(dec: LevelDecomposition, beta: float) -> np.ndarray:
    """H(t, phi) per level from a decomposition carrying density integrals;
    beta must be finite and positive."""
    _check_params(2, beta)
    if dec.density_line is None or dec.density_sq_area is None:
        raise ValueError("decomposition carries no density integrals")
    return beta * dec.exterior_length + dec.density_line - dec.density_sq_area


def nodal_gradient_ratio(field: ScalarField, pair: StarPair) -> ScalarField:
    """|grad u| / u at the mesh nodes.

    Radial differences are centered in the interior and one-sided
    second-order at the two boundary rows; angular differences are centered
    everywhere.  The result feeds the comparison functional as the density
    whose H value reproduces the energy.
    """
    _require_same_pair(field, pair)
    asm = _assembly(pair, field.mesh)
    u = field.values
    ds, dt = asm.ds, asm.dt
    us = np.empty_like(u)
    us[1:-1] = (u[2:] - u[:-2]) / (2 * ds)
    us[0] = (-1.5 * u[0] + 2.0 * u[1] - 0.5 * u[2]) / ds
    us[-1] = (1.5 * u[-1] - 2.0 * u[-2] + 0.5 * u[-3]) / ds
    ut = (_next(u) - _prev(u)) / (2 * dt)
    # Log-polar partials: u_s / L along log rho, u_theta - a u_s / L across.
    u_log = us / asm.L
    grad = np.hypot(u_log, ut - asm._slope() * u_log) / asm.rho
    ratio = grad / np.maximum(u, 1e-12)
    return ScalarField(values=ratio, mesh=field.mesh, pair=pair)


def dearrangement(field: ScalarField, pair: StarPair, beta: float) -> ScalarField:
    """Transplant the radial gradient ratio onto the level sets of a field.

    The reference is the 2D convection state on the discs of the pair's
    areas, radii a = sqrt(|K|/pi) and R = sqrt(|Omega|/pi).  Each node is
    assigned the radius r in [a, R] of the disc with the area of the node's
    superlevel set (annulus part plus the inner body), and receives the
    reference ratio |grad u*|/u* = (beta/r) / (1/R + beta log(R/r)) there,
    which does not depend on a.  The superlevel areas are exact for the
    linear interpolant, evaluated at the node values in one pass with no
    level grid.  The output is constant on discrete level sets of the field
    by construction.
    """
    _check_not_constant(field.values)
    node_area = _triangulate(field, pair).superlevel_areas(field.values)
    K, R = pair.inner.area(), math.sqrt(pair.outer.area() / math.pi)
    r = np.clip(np.sqrt((node_area + K) / math.pi), math.sqrt(K / math.pi), R)
    ratio = gradient_ratio(2, beta, R, r)
    return ScalarField(values=ratio, mesh=field.mesh, pair=pair)


def h_inequality_check(
    field: ScalarField,
    pair: StarPair,
    beta: float,
    n_levels: int = 64,
    phi: Optional[ScalarField] = None,
) -> HInequalityReport:
    """Check that some level satisfies H(t, phi) <= E and that the
    t-weighted average of H - E is nonpositive, within 2% of E.

    By default phi is the dearrangement of the reference solution on the
    volume-matched ball pair; any nonnegative bounded density is accepted.
    The check is `energy_of`, `dearrangement`, `decompose_levels` and
    `h_function` composed, on the one assembly of the field's pair and mesh.
    """
    energy = energy_of(field, pair, Convection(beta)).total
    if phi is None:
        phi = dearrangement(field, pair, beta)
    dec = decompose_levels(field, pair, n_levels, phi)
    h_vals = h_function(dec, beta)
    t = dec.levels
    y = t * (h_vals - energy)
    weighted = float(np.trapezoid(y, t))
    weighted += float(y[0]) * float(t[0] - 0.0)
    weighted += float(y[-1]) * float(1.0 - t[-1])
    tol = 0.02 * abs(energy)
    min_h = float(np.min(h_vals))
    passes = (weighted <= tol) and (min_h <= energy + tol)
    return HInequalityReport(
        min_H=min_h, weighted_integral=weighted, energy=energy, passes=passes
    )


def truncation_scan(
    field: ScalarField, pair: StarPair, law: DissipationLaw, n_thresholds: int = 64
) -> TruncationReport:
    """Scan thresholds t and evaluate the relaxed energy of u 1_{u > t}.

    Cutting at t removes the Dirichlet energy and the boundary dissipation
    of the region below the threshold, at the price of a crack along the
    contour {u = t} with density theta(t) per unit length (the far side of
    the jump sits at 0 and theta(0) = 0).  The zero threshold reproduces
    the input energy, so the best scanned energy never exceeds it.  All
    terms use the triangle quadrature so the comparison is exact.
    """
    _require_count("n_thresholds", n_thresholds, 1)
    tri = _triangulate(field, pair)
    dirich_each = tri.gradient_sq() * tri.tri_area
    boundary_each = tri.bw * np.asarray(law.value(np.clip(field.values[-1], 0.0, 1.0)))
    thresholds = np.arange(n_thresholds) / n_thresholds
    dirich, line = tri.superlevels(thresholds, weights=dirich_each)[:, :2].T
    energies = dirich + law.value(thresholds) * line + tri.outer_sums(thresholds, boundary_each)
    reference = float(energies[0])
    k_best = int(np.argmin(energies))
    best = float(energies[k_best])
    return TruncationReport(
        best_t=float(thresholds[k_best]),
        best_energy=best,
        reference_energy=reference,
        improved=best < reference - 1e-12,
    )


def high_cutoff_bound(law: DissipationLaw, n: int, M: float, C_n: float = 1.0) -> HighCutoffReport:
    """Largest delta = k/4096 with delta + C_n theta(1)/sqrt(theta(delta)) (M - omega_n)^(1/2n) < 1.

    Feasibility of a delta close to 1 certifies that states may be truncated
    just below their maximum without raising the relaxed energy; it requires
    the volume excess M - omega_n to be small.  C_n is caller-supplied,
    finite and positive.
    """
    _check_params(n)
    w = unit_ball_volume(n)
    if _require_finite("M", M) < w:
        raise ValueError("M must be at least the unit ball volume")
    if not _require_finite("C_n", C_n) > 0.0:
        raise ValueError(f"C_n must be positive, got {C_n!r}")
    deltas = np.arange(1, 4096) / 4096
    theta1 = law.value(1.0)
    excess = (M - w) ** (1.0 / (2 * n)) if M > w else 0.0
    theta_d = np.asarray(law.value(deltas))
    with np.errstate(divide="ignore"):
        term = np.where(
            excess == 0.0,
            0.0,
            C_n * theta1 * excess / np.sqrt(np.where(theta_d > 0, theta_d, np.inf)),
        )
    ok = deltas + term < 1.0
    if not np.any(ok):
        return HighCutoffReport(delta=0.0, feasible=False)
    return HighCutoffReport(delta=float(deltas[np.where(ok)[0][-1]]), feasible=True)


def levels_to_csv(dec: LevelDecomposition, beta: float, path: str) -> None:
    """Write the per-level decomposition as CSV: t, interior_length,
    exterior_length, area, H_value (H only when density integrals exist)."""
    have_h = dec.density_line is not None and dec.density_sq_area is not None
    h_vals = h_function(dec, beta) if have_h else [None] * len(dec.levels)
    header = ("t", "interior_length", "exterior_length", "area", "H_value")
    columns = (dec.levels, dec.interior_length, dec.exterior_length, dec.area, h_vals)
    _write_csv(path, [header, *zip(*columns)])
