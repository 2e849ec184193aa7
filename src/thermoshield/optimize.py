"""Shape optimization over nested star-shaped pairs.

Minimizes the solved annulus energy over the Fourier coefficients of both
boundaries, for the volume-constrained problem (inner area fixed, outer
area capped) and the penalized problem (inner area fixed, a volume penalty
added).  Gradients are exact and cost no extra solve: the solved energy is
a minimum over nodal values whose admissible set does not depend on the
shape, so by the envelope theorem (Danskin) its gradient is the partial
shape derivative of the discrete energy at the solved field.  Each step is
projected back onto the constraints by exact coefficient scaling, and the
line-search solves start warm from the current field.

The Fourier coordinates are scaled differently from mode to mode, so the
direction is quasi-Newton: inverse BFGS on the projected gradient, from
the accepted projected steps and the changes of the projected gradient.
The pairs are dropped when the outer budget becomes active or inactive; the
step is then steepest descent.  A quasi-Newton line search that fails is
retried once along steepest descent, with the pairs dropped; a direction
that does not descend yields no trial, so its search fails.  Descent is
monotone: a rejected step backtracks to the minimizer of the quadratic
through the two energies and the current slope (the exact gradient along
the step), and a search ends without a step once its predicted decrease is
below the acceptance margin.  The energy does not change when both
boundaries are translated together; that gauge is fixed linearly, by
keeping the inner boundary's first Fourier mode at zero.

A run stops on one of four tests: collapse (the gap at most twice the
minimum gap), the iteration cap, a projected-gradient norm below
_GRAD_TOL, or a line search (with its steepest-descent retry) that ends
without a step.  Small decreases alone do not stop it.

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
    FourierShape,
    GeometryError,
    Mesh,
    ScalarField,
    SolveResult,
    StarPair,
    _area_from_coeffs,
    _assembly,
    _write_csv,
    solve_state,
)
from .dissipation import DissipationLaw, _require_count, _require_finite
from .radial import EnergyBreakdown, general_radial_energy

__all__ = [
    "OptimizeOptions",
    "OptimizeResult",
    "TraceRow",
    "isoperimetric_deficit",
    "optimize_constrained",
    "optimize_penalized",
    "trace_to_csv",
]

_COLLAPSE_GAP = 2.0 * GAP_MIN
# Line search (Nocedal & Wright, Numerical Optimization, 3.5).  The first
# trial is the quasi-Newton step, or on a steepest-descent step the last
# accepted decrease again at the current slope, capped at _STEP_INIT either
# way.  An energy rejection backtracks to the quadratic interpolant's
# minimizer, kept within [_BACKTRACK_MIN, _BACKTRACK] times the rejected
# step; a GeometryError halves it.  A trial is accepted when it lowers the
# energy by more than _ACCEPT_MARGIN * max(1, |E|), so the search ends once
# the predicted decrease -slope * step is that small.
_STEP_INIT = 0.25
_STEP_FROM_DECREASE = 2.02
_BACKTRACK_MIN = 0.1
_BACKTRACK = 0.5
_ACCEPT_MARGIN = 1e-12
_VOLUME_TOL = 1e-8
_GRAD_TOL = 1e-6


@dataclass(frozen=True)
class OptimizeOptions:
    """Settings of the outer descent.

    fourier_order caps the boundary modes (at most 16) and max_outer_iters
    the accepted steps.  The mesh defaults to 17x64, coarser than the
    solver default, since every line-search trial is a full state solve:
    concentric pairs are exact on every mesh, and a perturbed pair such as
    ([1,0,0,0.05,0], [2,0,0,0,0.12]) is within 1.6e-5 of its mesh limit
    under convection, radiation and a kinked tabulated law.  The step rule
    (a BFGS direction on the projected gradient, its first trial capped at
    0.25, quadratic backtracking on the exact slope until the predicted
    decrease is below the 1e-12 relative acceptance margin) and the
    tolerances are fixed.
    """

    fourier_order: int = 4
    max_outer_iters: int = 500
    mesh: Mesh = dc_field(default_factory=lambda: Mesh(17, 64))

    def __post_init__(self) -> None:
        _require_count("fourier_order", self.fourier_order, 1)
        if self.fourier_order > 16:
            raise ValueError(f"fourier_order must be at most 16, got {self.fourier_order!r}")
        _require_count("max_outer_iters", self.max_outer_iters, 1)


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
        """The objective at x and the state solved there."""
        n = self.ncoef
        pair = StarPair(FourierShape(x[:n]), FourierShape(x[n:]))
        res = solve_state(pair, self.law, self.opts.mesh, u0=warm)
        return res.energy.total + self.penalty(x), res

    def gradient(self, x: np.ndarray, res: SolveResult) -> np.ndarray:
        """Gradient of the objective at x, given the state solved there, on
        the assembly it was solved on.  The penalty's inner-area term is left
        out: it lies along the inner area's gradient, which
        `project_direction` removes."""
        asm = _assembly(res.field.pair, res.field.mesh)
        g_in, g_out = asm.shape_gradient(res.field.values, self.law)
        return np.concatenate([g_in, g_out + self.lam * _area_grad(x[self.ncoef :])])

    def budget_active(self, x: np.ndarray, d: np.ndarray) -> bool:
        """Whether x sits on the outer budget and d would raise the outer
        area: `project_direction` then removes d's outward component."""
        n = self.ncoef
        return bool(
            self.M is not None
            and _area_from_coeffs(x[n:]) >= self.M - _VOLUME_TOL
            and np.dot(d[n:], _area_grad(x[n:])) > 0.0
        )

    def project_direction(self, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Remove the direction components that violate the volume
        constraints to first order."""
        n = self.ncoef
        out = d.copy()
        gin = _area_grad(x[:n])
        nin = gin / np.linalg.norm(gin)
        out[:n] -= np.dot(out[:n], nin) * nin
        if self.budget_active(x, out):
            gout = _area_grad(x[n:])
            nout = gout / np.linalg.norm(gout)
            out[n:] -= np.dot(out[n:], nout) * nout
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


def _inverse_bfgs(pairs: List[Tuple[np.ndarray, np.ndarray, float]], q: np.ndarray) -> np.ndarray:
    """H q for the inverse BFGS matrix H of the (s, y, 1/sᵀy) pairs, oldest
    first, by the two-loop recursion (Nocedal & Wright, Algorithm 7.4), with
    1-D reductions only.  H0 is the identity scaled by sᵀy/yᵀy of the newest
    pair (7.20); every pair since the last reset is kept."""
    q = q.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        q -= a * y
        alphas.append(a)
    _, y_new, rho_new = pairs[-1]
    q /= rho_new * float(np.dot(y_new, y_new))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(np.dot(y, q))) * s
    return q


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

    def search(d: np.ndarray, slope: float, alpha: float):
        """Backtrack along the unit direction d from the first trial alpha;
        the accepted (alpha, x, energy, solve), or None once the predicted
        decrease -slope * alpha cannot pass the acceptance test."""
        margin = _ACCEPT_MARGIN * max(1.0, abs(energy))
        while -slope * alpha > margin:
            try:
                x_new = descent.project_point(x + alpha * d)
                e_new, res_new = descent.objective(x_new, res.field.values)
            except GeometryError:
                alpha *= _BACKTRACK
                continue
            if e_new < energy - margin:
                return alpha, x_new, e_new, res_new
            # Minimizer of the quadratic through E0, the slope and E(alpha).
            above_tangent = e_new - energy - slope * alpha
            trial = -slope * alpha * alpha / (2.0 * above_tangent) if above_tangent > 0.0 else alpha
            alpha = min(max(trial, _BACKTRACK_MIN * alpha), _BACKTRACK * alpha)
        return None

    record(0, energy, res, x, 0.0)
    decrease = math.inf  # no step yet: the first trial is _STEP_INIT
    iterations = 0
    pairs: List[Tuple[np.ndarray, np.ndarray, float]] = []
    s = q_prev = active_prev = None
    while True:
        # The one collapse test: every exit further down leaves res as it is here.
        collapsed = res.field.pair.gap <= _COLLAPSE_GAP
        if collapsed or iterations == opts.max_outer_iters:
            break
        iterations += 1
        g = descent.gradient(x, res)
        q = -descent.project_direction(x, -g)  # the projected gradient
        norm = float(np.linalg.norm(q))
        if norm < _GRAD_TOL:
            break
        active = descent.budget_active(x, -g)
        if active != active_prev:  # also before the first step
            pairs.clear()
        else:
            y = q - q_prev
            sy = float(np.dot(s, y))
            if sy > 0.0:
                pairs.append((s, y, 1.0 / sy))
        while True:  # the quasi-Newton search, then steepest descent if it fails
            if pairs:
                d = descent.project_direction(x, -_inverse_bfgs(pairs, q))
                length = float(np.linalg.norm(d))
                d /= length
                slope = float(np.dot(g, d))
                alpha = min(_STEP_INIT, length)
            else:
                d = -q / norm
                slope = float(np.dot(g, d))
                alpha = min(_STEP_INIT, _STEP_FROM_DECREASE * decrease / -slope)
            step = search(d, slope, alpha)
            if step is not None or not pairs:
                break
            pairs.clear()
        if step is None:
            break
        alpha, x_new, e_new, res = step
        s, q_prev, active_prev = x_new - x, q, active
        decrease = energy - e_new
        x, energy = x_new, e_new
        record(iterations, energy, res, x, alpha)

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

    Projected quasi-Newton descent on the Fourier coefficients of both
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
