"""Shape optimization over nested star-shaped pairs.

Minimizes the solved annulus energy over the Fourier coefficients of both
boundaries, for the volume-constrained problem (inner area fixed, outer
area capped) and the penalized problem (inner area fixed, a volume penalty
added).  Gradients are exact and cost no extra solve: the solved energy is
a minimum over nodal values whose admissible set does not depend on the
shape, so by the envelope theorem (Danskin) its gradient is the partial
shape derivative of the discrete energy at the solved field.  Each step is
projected back onto the constraints by exact coefficient scaling, and the
line-search solves start warm from the current field.  Descent is monotone:
the first trial step expects the last accepted decrease again at the
current slope (the exact gradient along the step), and a rejected step
backtracks to the minimizer of the quadratic through the two energies and
that slope.  The energy does not change when both boundaries are
translated together; that gauge is fixed linearly, by keeping the inner
boundary's first Fourier mode at zero.

When the outer boundary collapses onto the inner one the parametric solver
bottoms out at the minimum gap; the touching configuration is then scored
as the radial energy of the bare unit ball (`general_radial_energy` at
R = 1) and the smaller energy is reported with the collapse flag set.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field as dc_field, fields, replace
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
    _write_csv,
    solve_state,
)
from .dissipation import DissipationLaw, _require_finite
from .radial import EnergyBreakdown, general_radial_energy

__all__ = [
    "OptimizeOptions",
    "OptimizeResult",
    "TraceRow",
    "project_inner_volume",
    "isoperimetric_deficit",
    "optimize_constrained",
    "optimize_penalized",
    "trace_to_csv",
]

_COLLAPSE_GAP = 2.0 * GAP_MIN
_STALL_DECREASE = 1e-10
_STALL_LIMIT = 3
# Line search (Nocedal & Wright, Numerical Optimization, 3.5).  The first
# trial expects the last accepted decrease again, at the current slope, and
# is capped at _STEP_INIT.  An energy rejection backtracks to the quadratic
# interpolant's minimizer, kept within [_BACKTRACK_MIN, _BACKTRACK] times
# the rejected step; a GeometryError halves it.  Steps below _STEP_MIN end
# the descent.
_STEP_INIT = 0.25
_STEP_FROM_DECREASE = 2.02
_BACKTRACK_MIN = 0.1
_BACKTRACK = 0.5
_STEP_MIN = 1e-10
_VOLUME_TOL = 1e-8
_GRAD_TOL = 1e-6


@dataclass(frozen=True)
class OptimizeOptions:
    """Settings of the outer descent.

    fourier_order caps the boundary modes (at most 16) and max_outer_iters
    the accepted steps.  The mesh is deliberately coarser than the solver
    default: every line-search trial is a full state solve.  The step rule
    (along the normalized projected gradient, a first trial from the last
    accepted decrease capped at 0.25, quadratic backtracking on the exact
    slope, down to 1e-10) and the tolerances are fixed.
    """

    fourier_order: int = 4
    max_outer_iters: int = 500
    mesh: Mesh = dc_field(default_factory=lambda: Mesh(33, 128))

    def __post_init__(self) -> None:
        if not 0 < self.fourier_order <= 16:
            raise ValueError("fourier_order must lie in 1..16")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")


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


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


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


def project_inner_volume(shape: FourierShape) -> FourierShape:
    """Scale all coefficients so the enclosed area is exactly pi."""
    a = shape.area()
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
        inner = init.inner.with_order(m)
        outer = init.outer.with_order(m)
        if M is not None and outer.area() > M * (1.0 + 1e-12):
            raise ValueError(
                f"infeasible initialization: outer area {outer.area():.6f} exceeds budget {M:.6f}"
            )
        self.x = np.concatenate([np.array(inner.coeffs), np.array(outer.coeffs)])

    def penalty(self, x: np.ndarray) -> float:
        n = self.ncoef
        return self.lam * (_area_from_coeffs(x[n:]) - _area_from_coeffs(x[:n]))

    def objective(self, x: np.ndarray, warm: Optional[np.ndarray]) -> Tuple[float, SolveResult]:
        n = self.ncoef
        pair = StarPair(FourierShape(x[:n]), FourierShape(x[n:]))
        res = solve_state(pair, self.law, self.opts.mesh, u0=warm)
        return res.energy.total + self.penalty(x), res

    def gradient(self, x: np.ndarray, res: SolveResult) -> np.ndarray:
        """Gradient of the objective at x, given the state solved there.  The
        penalty's inner-area term is left out: it lies along the inner
        area's gradient, which `project_direction` removes."""
        solved = res.field
        g_in, g_out = Assembly(solved.pair, solved.mesh).shape_gradient(solved.values, self.law)
        return np.concatenate([g_in, g_out + self.lam * _area_grad(x[self.ncoef :])])

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
            if aout >= self.M - _VOLUME_TOL and push > 0.0:
                out[n:] -= push * nout
        return out

    def project_point(self, x: np.ndarray) -> np.ndarray:
        """Gauge and volume projection.

        Joint translations of both boundaries are energy-neutral.  To first
        order a translation by (a, b) adds a cos + b sin to both radius
        functions, so the gauge is fixed linearly: the inner shape's
        (a1, b1) is subtracted from the k = 1 coefficients of both shapes,
        which leaves the inner a1 = b1 = 0 exactly.  Then the inner area is
        scaled to pi exactly and the outer area clipped to the budget;
        scaling keeps the inner a1 = b1 = 0.
        """
        n = self.ncoef
        out = x.copy()
        out[n + 1 : n + 3] -= out[1:3]
        out[1:3] = 0.0
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
        pair = res.field.pair
        trace.append(
            TraceRow(
                iter=it,
                energy=e,
                dirichlet=res.energy.dirichlet,
                boundary=res.energy.boundary,
                penalty=descent.penalty(x),
                inner_area=pair.inner.area(),
                outer_area=pair.outer.area(),
                deficit=isoperimetric_deficit(pair),
                step=step,
            )
        )

    record(0, energy, res, x, 0.0)
    decrease = math.inf  # no step yet: the first trial is _STEP_INIT
    stall = 0
    iterations = 0
    while True:
        # The one collapse test: every exit further down leaves res as it is here.
        collapsed = res.field.pair.gap <= _COLLAPSE_GAP
        if collapsed or stall >= _STALL_LIMIT or iterations == opts.max_outer_iters:
            break
        iterations += 1
        g = descent.gradient(x, res)
        d = descent.project_direction(x, -g)
        norm = float(np.linalg.norm(d))
        if norm < _GRAD_TOL:
            break
        d /= norm
        slope = float(np.dot(g, d))
        if slope >= 0.0:
            slope = -norm
        alpha = min(_STEP_INIT, _STEP_FROM_DECREASE * decrease / -slope)
        accepted = False
        while alpha >= _STEP_MIN:
            try:
                x_new = descent.project_point(x + alpha * d)
                e_new, res_new = descent.objective(x_new, res.field.values)
            except GeometryError:
                alpha *= _BACKTRACK
                continue
            if e_new < energy - 1e-12 * max(1.0, abs(energy)):
                accepted = True
                break
            # Minimizer of the quadratic through E0, the slope and E(alpha).
            above_tangent = e_new - energy - slope * alpha
            trial = -slope * alpha * alpha / (2.0 * above_tangent) if above_tangent > 0.0 else alpha
            alpha = min(max(trial, _BACKTRACK_MIN * alpha), _BACKTRACK * alpha)
        if not accepted:
            break
        decrease = energy - e_new
        x, energy, res = x_new, e_new, res_new
        record(iterations, energy, res, x, alpha)
        stall = stall + 1 if decrease < _STALL_DECREASE * max(1.0, abs(energy)) else 0

    pair = res.field.pair
    breakdown = replace(res.energy, penalty=descent.penalty(x))
    flat_compared = False
    solved_field: Optional[ScalarField] = res.field
    if collapsed:
        # Touching configuration: the bare unit-area ball, no shell, no penalty.
        flat = general_radial_energy(2, descent.law, 1.0)
        if flat.total < breakdown.total:
            breakdown, flat_compared, solved_field = flat, True, None
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
    if _require_finite("M", M) <= math.pi:
        raise ValueError("outer budget M must exceed the inner area pi")
    opts = opts or OptimizeOptions()
    return _run(_Descent(law, init, opts, lam=0.0, M=M))


def optimize_penalized(
    law: DissipationLaw, lam: float, init: StarPair, opts: Optional[OptimizeOptions] = None
) -> OptimizeResult:
    """Minimize solved energy plus lam * (insulation area), inner area pi."""
    if _require_finite("lam", lam) <= 0.0:
        raise ValueError("penalization weight must be positive")
    opts = opts or OptimizeOptions()
    return _run(_Descent(law, init, opts, lam=lam, M=None))


def trace_to_csv(result: OptimizeResult, path: str) -> None:
    """Write the per-iteration optimization trace as CSV, one column per
    `TraceRow` field."""
    _write_csv(path, [TRACE_COLUMNS, *map(astuple, result.trace)])
