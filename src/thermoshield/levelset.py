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
clipping kernel gives the per-level lengths, areas, density integrals and
truncated Dirichlet energies.  The superlevel-area function used for area
matching is exact for the linear interpolant at all node values at once (it
is piecewise quadratic in the level), so it needs no level count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .annulus import Assembly, ScalarField, StarPair, energy_of
from .dissipation import Convection, DissipationLaw, unit_ball_volume
from .radial import gradient_ratio

__all__ = [
    "LevelDecomposition",
    "RadialReference",
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
class RadialReference:
    """Concentric-ball comparison solution (dimension, beta, outer radius)."""

    n: int
    beta: float
    R: float


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


class _Clip(NamedTuple):
    """Triangles against one level t.  `full` marks those wholly above t.
    For the triangles t cuts (`cut`), `corners` lists the vertex columns
    from the vertex alone on its side of t (`above` if that side is above t)
    on in cyclic order; `tau_b` and `tau_c` place the chord on the two edges
    from that vertex, `frac` is the area fraction above t, `seg` the chord."""

    full: np.ndarray
    cut: np.ndarray
    corners: np.ndarray
    above: np.ndarray
    tau_b: np.ndarray
    tau_c: np.ndarray
    frac: np.ndarray
    seg: np.ndarray


class _Triangulation:
    """Triangle split of the annulus mesh with per-triangle vertex data."""

    def __init__(self, asm: Assembly, values: np.ndarray):
        self.vx = self.attach(asm.rho * np.cos(asm.theta)[None, :])
        self.vy = self.attach(asm.rho * np.sin(asm.theta)[None, :])
        self.vu = self.attach(values)
        cross = (self.vx[:, 1] - self.vx[:, 0]) * (self.vy[:, 2] - self.vy[:, 0]) - (
            self.vx[:, 2] - self.vx[:, 0]
        ) * (self.vy[:, 1] - self.vy[:, 0])
        self.tri_area = 0.5 * np.abs(cross)

    @staticmethod
    def attach(nodal: np.ndarray) -> np.ndarray:
        """Per-triangle vertex values of a nodal array: triangles
        (00, 10, 11) and (00, 11, 01) per cell, flattened."""
        a00 = nodal[:-1]
        a10 = nodal[1:]
        a01 = np.roll(nodal, -1, axis=1)[:-1]
        a11 = np.roll(nodal, -1, axis=1)[1:]
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

    def clip(self, t: float) -> _Clip:
        """Clip every triangle against the level t of the linear interpolant."""
        d = self.vu - t
        pos = d > 0.0
        npos = pos.sum(axis=1)
        cut = np.flatnonzero((npos == 1) | (npos == 2))
        above = npos[cut] == 1
        lone = np.argmax(pos[cut] == above[:, None], axis=1)
        corners = (lone[:, None] + np.arange(3)) % 3
        rows = cut[:, None]
        da, db, dc = d[rows, corners].T
        tau_b = da / (da - db)
        tau_c = da / (da - dc)
        ax, bx, cx = self.vx[rows, corners].T
        ay, by, cy = self.vy[rows, corners].T
        seg = np.hypot(tau_b * (bx - ax) - tau_c * (cx - ax), tau_b * (by - ay) - tau_c * (cy - ay))
        corner = tau_b * tau_c
        frac = np.where(above, corner, 1.0 - corner)
        return _Clip(npos == 3, cut, corners, above, tau_b, tau_c, frac, seg)

    def superlevel(self, t: float, density: Optional[np.ndarray] = None):
        """(area, contour length, density line integral, density^2 area
        integral) of {u > t} for the linear interpolant.

        Partial triangle areas are exact; density integrals use vertex-mean
        values over the clipped polygon and the chord endpoints.
        """
        c = self.clip(t)
        part = self.tri_area[c.cut] * c.frac
        area = float(np.sum(self.tri_area[c.full])) + float(np.sum(part))
        line = float(np.sum(c.seg))
        if density is None:
            return area, line, 0.0, 0.0
        full_sq = np.mean(density[c.full] ** 2, axis=1)
        phi_area = float(np.sum(self.tri_area[c.full] * full_sq))
        fa, fb, fc = density[c.cut[:, None], c.corners].T
        fpb = fa + c.tau_b * (fb - fa)
        fpc = fa + c.tau_c * (fc - fa)
        phi_line = float(np.sum(c.seg * 0.5 * (fpb + fpc)))
        # The part above t is the corner at the lone vertex or the
        # quadrilateral opposite it.
        mean_sq = np.where(
            c.above,
            (fa * fa + fpb * fpb + fpc * fpc) / 3.0,
            (fb * fb + fc * fc + fpb * fpb + fpc * fpc) / 4.0,
        )
        phi_area += float(np.sum(part * mean_sq))
        return area, line, phi_line, phi_area

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
        v = np.sort(self.vu, axis=1)
        a, b, c = v.T
        T = self.tri_area
        full = float(np.sum(T))
        jump = _JUMP_WIDTH * float(c.max() - a.min())
        wide1, wide2 = b - a > jump, c - b > jump
        x = np.unique(v)
        ia, ib, ic = (np.searchsorted(x, col) for col in (a, b, c))

        def at(i, w):
            return np.bincount(i, weights=w, minlength=len(x))

        with np.errstate(divide="ignore", invalid="ignore"):
            k1 = np.where(wide1, T / ((b - a) * (c - a)), 0.0)
            k2 = np.where(wide2, T / ((c - b) * (c - a)), 0.0)
            kink = np.where(wide1 != wide2, 2.0 * T / (c - a), 0.0)
            at_b = np.where(c > a, T * (c - b) / (c - a), 0.0)
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


def decompose_levels(
    field: ScalarField,
    pair: StarPair,
    n_levels: int,
    density: Optional[ScalarField] = None,
    levels: Optional[np.ndarray] = None,
) -> LevelDecomposition:
    """Level decomposition of a field at uniform levels in (0, 1).

    When a density field phi is supplied, its line integral over each
    interior contour and the integral of phi^2 over each superlevel set are
    accumulated alongside the geometry.
    """
    if levels is None and n_levels < 1:
        raise ValueError("n_levels must be positive")
    u = field.values
    if float(np.max(u) - np.min(u)) < 1e-14:
        raise DegenerateFieldError("field is constant; no level structure")
    if density is not None and density.values.shape != u.shape:
        raise ValueError("density grid does not match the field grid")
    if levels is None:
        levels = (np.arange(n_levels) + 0.5) / n_levels
    levels = np.asarray(levels, dtype=float)
    asm = Assembly(pair, field.mesh)
    tri = _Triangulation(asm, u)
    dens = tri.attach(density.values) if density is not None else None
    per_level = np.array([tri.superlevel(float(t), dens) for t in levels]).reshape(-1, 4)
    area, interior, dline, darea = per_level.T
    return LevelDecomposition(
        levels=levels,
        interior_length=interior,
        exterior_length=np.array([np.sum(asm.bw[u[-1] > t]) for t in levels]),
        area=area,
        density_line=dline if dens is not None else None,
        density_sq_area=darea if dens is not None else None,
    )


def h_function(dec: LevelDecomposition, beta: float) -> np.ndarray:
    """H(t, phi) per level from a decomposition carrying density integrals."""
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
    asm = Assembly(pair, field.mesh)
    u = field.values
    ds, dt = asm.ds, asm.dt
    us = np.empty_like(u)
    us[1:-1] = (u[2:] - u[:-2]) / (2 * ds)
    us[0] = (-1.5 * u[0] + 2.0 * u[1] - 0.5 * u[2]) / ds
    us[-1] = (1.5 * u[-1] - 2.0 * u[-2] + 0.5 * u[-3]) / ds
    ut = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2 * dt)
    g = asm.g[None, :]
    rkp = asm._rkp
    q = (rkp[None, :] + asm.s[:, None] * (asm._rop - rkp)[None, :]) / g
    u_rho = us / g
    u_ang = (ut - q * us) / asm.rho
    grad = np.hypot(u_rho, u_ang)
    ratio = grad / np.maximum(u, 1e-12)
    return ScalarField(values=ratio, mesh=field.mesh, pair=pair)


def dearrangement(field: ScalarField, pair: StarPair, reference: RadialReference) -> ScalarField:
    """Transplant the radial gradient ratio onto the level sets of a field.

    Each node is assigned the radius whose concentric ball has the same
    volume as the node's superlevel set (annulus part plus the inner body),
    and receives the reference ratio |grad u*|/u* at that radius.  The
    superlevel areas are exact for the linear interpolant, evaluated at the
    node values in one pass with no level grid.  The output is constant on
    discrete level sets of the field by construction.
    """
    u = field.values
    if float(np.max(u) - np.min(u)) < 1e-14:
        raise DegenerateFieldError("field is constant; no level structure")
    tri = _Triangulation(Assembly(pair, field.mesh), u)
    node_area = tri.superlevel_areas(u)
    r = np.sqrt((node_area + pair.inner.area()) / math.pi)
    r = np.clip(r, 1.0, reference.R)
    phi = gradient_ratio(reference.n, reference.beta, reference.R, r)
    return ScalarField(values=phi, mesh=field.mesh, pair=pair)


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
    """
    energy = energy_of(field, pair, Convection(beta)).total
    if phi is None:
        R_ref = math.sqrt(pair.outer.area() / math.pi)
        phi = dearrangement(field, pair, RadialReference(2, beta, R_ref))
    dec = decompose_levels(field, pair, n_levels, density=phi)
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
    if n_thresholds < 1:
        raise ValueError("n_thresholds must be positive")
    u = field.values
    asm = Assembly(pair, field.mesh)
    tri = _Triangulation(asm, u)
    dirich_each = tri.gradient_sq() * tri.tri_area
    boundary_each = asm.bw * np.asarray(law.value(np.clip(u[-1], 0.0, 1.0)))
    thresholds = np.arange(n_thresholds) / n_thresholds
    energies = np.empty(n_thresholds)
    for k, t in enumerate(thresholds):
        c = tri.clip(float(t))
        dirich = float(np.sum(dirich_each[c.full]))
        dirich += float(np.sum(dirich_each[c.cut] * c.frac))
        crack = float(law.value(float(t))) * float(np.sum(c.seg))
        boundary = float(np.sum(boundary_each[u[-1] > t]))
        energies[k] = dirich + crack + boundary
    reference = float(energies[0])
    k_best = int(np.argmin(energies))
    best = float(energies[k_best])
    return TruncationReport(
        best_t=float(thresholds[k_best]),
        best_energy=best,
        reference_energy=reference,
        improved=best < reference - 1e-12,
    )


def high_cutoff_bound(
    law: DissipationLaw, n: int, M: float, C_n: float = 1.0, grid: int = 4096
) -> HighCutoffReport:
    """Largest delta with delta + C_n theta(1)/sqrt(theta(delta)) (M - omega_n)^(1/2n) < 1.

    Feasibility of a delta close to 1 certifies that states may be truncated
    just below their maximum without raising the relaxed energy; it requires
    the volume excess M - omega_n to be small.  C_n is caller-supplied.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    w = unit_ball_volume(n)
    if M < w:
        raise ValueError("M must be at least the unit ball volume")
    deltas = np.arange(1, grid) / grid
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
    h_vals = h_function(dec, beta) if have_h else None
    lines = ["t,interior_length,exterior_length,area,H_value"]
    for k in range(len(dec.levels)):
        h_txt = repr(float(h_vals[k])) if have_h else ""
        lines.append(
            ",".join(
                [
                    repr(float(dec.levels[k])),
                    repr(float(dec.interior_length[k])),
                    repr(float(dec.exterior_length[k])),
                    repr(float(dec.area[k])),
                    h_txt,
                ]
            )
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
