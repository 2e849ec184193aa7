"""Shape optimization over nested star-shaped pairs.

Minimizes the solved annulus energy over the Fourier coefficients of both
boundaries, for the volume-constrained problem (inner area fixed, outer
area capped) and the penalized problem (inner area fixed, a volume penalty
added).  Gradients are exact and cost no extra solve: the solved energy is
a minimum over nodal values whose admissible set does not depend on the
shape, so by the envelope theorem (Danskin) its gradient is the partial
shape derivative of the discrete energy at the solved field.  Each step is
projected back onto the constraints by exact coefficient scaling, and the
line-search solves start warm from the current field.  Descent is monotone
by backtracking.

When the outer boundary collapses onto the inner one the parametric solver
bottoms out at the minimum gap; the touching configuration is then scored
analytically (boundary dissipation of the unit ball at full temperature)
and the smaller energy is reported with the collapse flag set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple

import numpy as np

from .annulus import (
    GAP_MIN,
    Assembly,
    FourierShape,
    GeometryError,
    Mesh,
    ScalarField,
    SolveResult,
    StarPair,
    _area_from_coeffs,
    solve_state,
)
from .dissipation import DissipationLaw
from .radial import EnergyBreakdown

__all__ = [
    "OptimizeOptions",
    "OptimizeResult",
    "TraceRow",
    "area",
    "project_inner_volume",
    "isoperimetric_deficit",
    "optimize_constrained",
    "optimize_penalized",
    "trace_to_csv",
]

TRACE_COLUMNS = (
    "iter",
    "energy",
    "dirichlet",
    "boundary",
    "penalty",
    "inner_area",
    "outer_area",
    "deficit",
    "step",
)

_COLLAPSE_GAP = 2.0 * GAP_MIN
_STALL_DECREASE = 1e-10
_STALL_LIMIT = 3


@dataclass(frozen=True)
class OptimizeOptions:
    """Knobs of the outer descent.

    fourier_order caps the boundary modes (at most 16).  The step rule is
    backtracking with factor 0.5 from step_init down to step_min along the
    normalized projected gradient.  The mesh is deliberately coarser than
    the solver default: every line-search trial is a full state solve.
    """

    fourier_order: int = 4
    step_init: float = 0.25
    backtrack: float = 0.5
    step_min: float = 1e-10
    max_outer_iters: int = 500
    volume_tolerance: float = 1e-8
    grad_tol: float = 1e-6
    mesh: Mesh = dc_field(default_factory=lambda: Mesh(33, 128))
    solver_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 0 < self.fourier_order <= 16:
            raise ValueError("fourier_order must lie in 1..16")
        if min(self.step_init, self.backtrack, self.step_min) <= 0:
            raise ValueError("step rule parameters must be positive")
        if self.max_outer_iters < 1 or self.volume_tolerance <= 0:
            raise ValueError("invalid iteration or tolerance settings")


@dataclass(frozen=True)
class TraceRow:
    iter: int
    energy: float
    dirichlet: float
    boundary: float
    penalty: float
    inner_area: float
    outer_area: float
    deficit: float
    step: float


@dataclass(frozen=True)
class OptimizeResult:
    pair: StarPair
    energy: EnergyBreakdown
    deficit: float
    collapsed: bool
    flat_compared: bool
    iterations: int
    trace: Tuple[TraceRow, ...]
    field: Optional[ScalarField]


def area(shape: FourierShape) -> float:
    """Enclosed area, in closed form from the Fourier coefficients."""
    return shape.area()


def project_inner_volume(shape: FourierShape) -> FourierShape:
    """Scale all coefficients so the enclosed area is exactly pi."""
    a = area(shape)
    if a <= 0:
        raise GeometryError("shape has nonpositive area")
    return shape.scaled(math.sqrt(math.pi / a))


def isoperimetric_deficit(pair: StarPair) -> float:
    """Largest nonzero-frequency coefficient magnitude relative to the mean
    radius, over both boundaries; zero exactly for concentric circles."""
    worst = 0.0
    for shape in (pair.inner, pair.outer):
        a0 = abs(shape.coeffs[0])
        if len(shape.coeffs) > 1:
            worst = max(worst, max(abs(c) for c in shape.coeffs[1:]) / a0)
    return worst


def _area_grad(c: np.ndarray) -> np.ndarray:
    g = math.pi * c.copy()
    g[0] *= 2.0
    return g


_CENTROID_THETA = np.arange(4096) * (2.0 * math.pi / 4096)
_CENTROID_COS = np.cos(_CENTROID_THETA)
_CENTROID_SIN = np.sin(_CENTROID_THETA)


def _centroid(shape: FourierShape) -> Tuple[float, float]:
    r3 = shape.radius(_CENTROID_THETA) ** 3 / 3.0
    a = shape.area()
    cx = float(np.mean(r3 * _CENTROID_COS)) * 2.0 * math.pi / a
    cy = float(np.mean(r3 * _CENTROID_SIN)) * 2.0 * math.pi / a
    return cx, cy


class _Descent:
    """Shared state of one optimization run."""

    def __init__(
        self,
        law: DissipationLaw,
        init: StarPair,
        opts: OptimizeOptions,
        lam: float,
        M: Optional[float],
    ):
        self.law = law
        self.opts = opts
        self.lam = lam
        self.M = M
        m = opts.fourier_order
        self.ncoef = 2 * m + 1
        inner = project_inner_volume(init.inner.with_order(m))
        outer = init.outer.with_order(m)
        if M is not None and area(outer) > M * (1.0 + 1e-12):
            raise ValueError(
                f"infeasible initialization: outer area {area(outer):.6f} exceeds budget {M:.6f}"
            )
        self.x = np.concatenate([np.array(inner.coeffs), np.array(outer.coeffs)])

    def _pair(self, x: np.ndarray) -> StarPair:
        n = self.ncoef
        return StarPair(FourierShape(x[:n]), FourierShape(x[n:]))

    def penalty(self, x: np.ndarray) -> float:
        if self.lam == 0.0:
            return 0.0
        n = self.ncoef
        return self.lam * (_area_from_coeffs(x[n:]) - _area_from_coeffs(x[:n]))

    def objective(self, x: np.ndarray, warm: Optional[np.ndarray]) -> Tuple[float, SolveResult]:
        pair = self._pair(x)
        res = solve_state(pair, self.law, self.opts.mesh, self.opts.solver_tol, u0=warm)
        return res.energy.total + self.penalty(x), res

    def gradient(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Gradient of the objective at x, given the field solved there."""
        n = self.ncoef
        g_in, g_out = Assembly(self._pair(x), self.opts.mesh).shape_gradient(u, self.law)
        g = np.concatenate([g_in, g_out])
        if self.lam != 0.0:
            g[:n] -= self.lam * _area_grad(x[:n])
            g[n:] += self.lam * _area_grad(x[n:])
        return g

    def project_direction(self, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Remove the direction components that violate the volume
        constraints to first order."""
        n = self.ncoef
        out = d.copy()
        gin = _area_grad(x[:n])
        nin = gin / np.linalg.norm(gin)
        out[:n] -= np.dot(out[:n], nin) * nin
        if self.M is not None:
            aout = _area_from_coeffs(x[n:])
            gout = _area_grad(x[n:])
            nout = gout / np.linalg.norm(gout)
            push = np.dot(out[n:], nout)
            if aout >= self.M - self.opts.volume_tolerance and push > 0.0:
                out[n:] -= push * nout
        return out

    def project_point(self, x: np.ndarray) -> np.ndarray:
        """Gauge and volume projection.

        Joint translations of both boundaries are energy-neutral, so the
        common center is fixed by shifting the pair until the inner body's
        centroid sits at the origin (first-order shift on the k = 1
        coefficients, iterated).  Then the inner area is scaled to pi
        exactly and the outer area clipped to the budget; scaling about the
        origin preserves the centering.
        """
        n = self.ncoef
        out = x.copy()
        if n >= 3:
            for _ in range(3):
                cx, cy = _centroid(FourierShape(out[:n]))
                if abs(cx) + abs(cy) < 1e-14:
                    break
                for block in (out[:n], out[n:]):
                    block[1] -= cx
                    block[2] -= cy
        ain = _area_from_coeffs(out[:n])
        if ain <= 0:
            raise GeometryError("inner shape degenerated")
        out[:n] *= math.sqrt(math.pi / ain)
        if self.M is not None:
            aout = _area_from_coeffs(out[n:])
            if aout > self.M:
                out[n:] *= math.sqrt(self.M / aout)
        return out


def _run(descent: _Descent) -> OptimizeResult:
    opts = descent.opts
    x = descent.project_point(descent.x)
    energy, res = descent.objective(x, None)
    trace: List[TraceRow] = []

    def record(it: int, e: float, res: SolveResult, x: np.ndarray, step: float) -> None:
        pair = descent._pair(x)
        trace.append(
            TraceRow(
                iter=it,
                energy=e,
                dirichlet=res.energy.dirichlet,
                boundary=res.energy.boundary,
                penalty=descent.penalty(x),
                inner_area=area(pair.inner),
                outer_area=area(pair.outer),
                deficit=isoperimetric_deficit(pair),
                step=step,
            )
        )

    record(0, energy, res, x, 0.0)
    alpha_prev = opts.step_init
    collapsed = descent._pair(x).gap <= _COLLAPSE_GAP
    stall = 0
    iterations = 0
    for it in range(1, opts.max_outer_iters + 1):
        if collapsed:
            break
        iterations = it
        g = descent.gradient(x, res.field.values)
        d = descent.project_direction(x, -g)
        norm = float(np.linalg.norm(d))
        if norm < opts.grad_tol:
            break
        d /= norm
        alpha = min(opts.step_init, 4.0 * alpha_prev)
        accepted = False
        while alpha >= opts.step_min:
            try:
                x_new = descent.project_point(x + alpha * d)
                e_new, res_new = descent.objective(x_new, res.field.values)
            except GeometryError:
                alpha *= opts.backtrack
                continue
            if e_new < energy - 1e-12 * max(1.0, abs(energy)):
                accepted = True
                break
            alpha *= opts.backtrack
        if not accepted:
            break
        decrease = energy - e_new
        x, energy, res = x_new, e_new, res_new
        alpha_prev = alpha
        record(it, energy, res, x, alpha)
        if descent._pair(x).gap <= _COLLAPSE_GAP:
            collapsed = True
        if decrease < _STALL_DECREASE * max(1.0, abs(energy)):
            stall += 1
            if stall >= _STALL_LIMIT:
                break
        else:
            stall = 0

    pair = descent._pair(x)
    breakdown = EnergyBreakdown(
        dirichlet=res.energy.dirichlet,
        boundary=res.energy.boundary,
        penalty=descent.penalty(x),
        trace=res.energy.trace,
    )
    flat_compared = False
    solved_field: Optional[ScalarField] = res.field
    if collapsed:
        # Touching configuration scored analytically: the unit-area ball at
        # full temperature, no shell, no penalty.
        flat_total = descent.law.value(1.0) * 2.0 * math.pi
        if flat_total < breakdown.total:
            breakdown = EnergyBreakdown(
                dirichlet=0.0, boundary=flat_total, penalty=0.0, trace=1.0
            )
            flat_compared = True
            solved_field = None
    return OptimizeResult(
        pair=pair,
        energy=breakdown,
        deficit=isoperimetric_deficit(pair),
        collapsed=collapsed,
        flat_compared=flat_compared,
        iterations=iterations,
        trace=tuple(trace),
        field=solved_field,
    )


def optimize_constrained(
    law: DissipationLaw, M: float, init: StarPair, opts: Optional[OptimizeOptions] = None
) -> OptimizeResult:
    """Minimize the insulation energy with inner area pi and outer area <= M.

    Projected gradient descent on the Fourier coefficients of both
    boundaries: the inner volume constraint is an exact scaling projection,
    the outer budget is enforced by scaling back whenever a step exceeds it,
    and every accepted step strictly decreases the solved energy.
    """
    if M <= math.pi:
        raise ValueError("outer budget M must exceed the inner area pi")
    opts = opts or OptimizeOptions()
    return _run(_Descent(law, init, opts, lam=0.0, M=M))


def optimize_penalized(
    law: DissipationLaw, lam: float, init: StarPair, opts: Optional[OptimizeOptions] = None
) -> OptimizeResult:
    """Minimize solved energy plus lam * (insulation area), inner area pi."""
    if lam <= 0.0:
        raise ValueError("penalization weight must be positive")
    opts = opts or OptimizeOptions()
    return _run(_Descent(law, init, opts, lam=lam, M=None))


def trace_to_csv(result: OptimizeResult, path: str) -> None:
    """Write the per-iteration optimization trace as CSV."""
    lines = [",".join(TRACE_COLUMNS)]
    for row in result.trace:
        lines.append(
            ",".join(
                [str(row.iter)]
                + [
                    repr(float(v))
                    for v in (
                        row.energy,
                        row.dirichlet,
                        row.boundary,
                        row.penalty,
                        row.inner_area,
                        row.outer_area,
                        row.deficit,
                        row.step,
                    )
                ]
            )
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
