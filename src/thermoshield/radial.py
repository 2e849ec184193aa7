"""Closed-form and one-dimensional energies of concentric-ball configurations.

For a unit hot ball surrounded by a spherical insulation shell of outer
radius R in dimension n >= 2, the temperature is an explicit radial harmonic
profile and the insulation energy reduces to scalar formulas in R.  This
module evaluates those formulas for the convection law, minimizes the
general-law energy over the outer boundary temperature, classifies the
convection regimes (spread the budget / all-or-nothing / no insulation),
locates threshold radii, optimizes the penalized problem over R, and
evaluates the thin-shell perturbation expansion and the gradient-ratio
monotonicity test.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .dissipation import DissipationLaw, _check_params, unit_ball_volume

__all__ = [
    "EnergyBreakdown",
    "RegimeReport",
    "BestRadius",
    "PerturbationExpansion",
    "phi",
    "phi_prime",
    "convection_energy",
    "convection_state",
    "gradient_ratio",
    "general_radial_energy",
    "threshold_radius",
    "classify_regime",
    "best_radius",
    "perturbation_expansion",
    "gradient_ratio_max",
]

# Trace grid of the global scan and its Dirichlet factor (1 - l)^2.
_TRACE_GRID = np.linspace(0.0, 1.0, 4096)
_TRACE_GAP2 = (1.0 - _TRACE_GRID) ** 2
# Radii per block of the grid scan.  Its two (block, grid) arrays take 0.5 MB
# and are allocated once per scan: the C allocator may map arrays this large
# afresh on every allocation, and per-block page faults would cost about a
# fifth of the scan.
_BLOCK = 8
# Relative positions of the points of one zoom round, and a cap on rounds.
_ZOOM = np.linspace(0.0, 1.0, 33)
_ZOOM_MAX_ROUNDS = 64


@dataclass(frozen=True)
class EnergyBreakdown:
    """Insulation energy split into its three contributions.

    dirichlet : integral of |grad u|^2 over the shell
    boundary  : integral of theta(u) over the outer boundary
    penalty   : lambda * (insulation volume), zero for constrained problems
    trace     : outer boundary temperature (a single value for radial states,
                the arclength-weighted mean for discrete fields)
    """

    dirichlet: float
    boundary: float
    penalty: float
    trace: float

    @property
    def total(self) -> float:
        return self.dirichlet + self.boundary + self.penalty

    def as_dict(self) -> dict:
        return {"total": self.total, **asdict(self)}


@dataclass(frozen=True)
class RegimeReport:
    """Classification of the convection problem at volume budget R_max.

    regime 'a': energy decreasing in R, insulation spread to the budget.
    regime 'b': all-or-nothing against a threshold radius.
    regime 'c': no insulation, the bare ball is optimal (empty in 2D).
    """

    regime: str
    critical_radius: float
    threshold_radius: Optional[float]
    optimal_radius: float
    optimal_energy: float
    tie: bool

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BestRadius:
    R_star: float
    energy: EnergyBreakdown


@dataclass(frozen=True)
class PerturbationExpansion:
    """Thin-shell trial energy and its first-order coefficient in the
    shell thickness."""

    energy_eps: float
    first_order_coeff: float


def phi(n: int, rho: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Increasing radial harmonic profile: log rho in 2D, -rho^(2-n)/(n-2) else."""
    r = np.asarray(rho, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("phi requires rho > 0")
    if n == 2:
        out = np.log(r)
    else:
        out = -1.0 / ((n - 2) * r ** (n - 2))
    return float(out) if np.ndim(rho) == 0 else out


def phi_prime(n: int, rho: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Derivative rho^(1-n) of the radial profile, any n >= 2."""
    r = np.asarray(rho, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("phi_prime requires rho > 0")
    out = r ** (1 - n)
    return float(out) if np.ndim(rho) == 0 else out


def convection_energy(n: int, beta: float, R: float) -> EnergyBreakdown:
    """Energy of the ball pair (unit ball, ball of radius R) for theta = beta u^2."""
    _check_params(n, beta, R=R)
    per1 = n * unit_ball_volume(n)
    denom = phi_prime(n, R) + beta * (phi(n, R) - phi(n, 1.0))
    trace = phi_prime(n, R) / denom
    dirichlet = per1 * beta**2 * (phi(n, R) - phi(n, 1.0)) / denom**2
    boundary = per1 * beta * phi_prime(n, R) / denom**2
    return EnergyBreakdown(dirichlet=dirichlet, boundary=boundary, penalty=0.0, trace=trace)


def convection_state(
    n: int, beta: float, R: float, rho: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """Radial temperature of the convection ball pair at radius rho in [0, R]."""
    _check_params(n, beta, R=R)
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0.0) or np.any(r > R * (1.0 + 1e-12)):
        raise ValueError("rho must lie in [0, R]")
    denom = phi_prime(n, R) + beta * (phi(n, R) - phi(n, 1.0))
    drop = phi(n, np.maximum(r, 1.0)) - phi(n, 1.0)
    out = 1.0 - beta * drop / denom
    return float(out) if np.ndim(rho) == 0 else out


def gradient_ratio(
    n: int, beta: float, R: float, rho: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """|grad u|/u of the convection state at radius rho in [1, R]."""
    _check_params(n, beta, R=R)
    r = np.asarray(rho, dtype=float)
    numer = beta * phi_prime(n, r)
    denom = phi_prime(n, R) + beta * (phi(n, R) - phi(n, r))
    out = numer / denom
    return float(out) if np.ndim(rho) == 0 else out


def gradient_ratio_max(n: int, beta: float, R: float) -> float:
    """Maximum of |grad u|/u over the shell, on a uniform radial grid of
    4096 points.

    The maximum is at most beta exactly when no smaller outer ball has
    lower energy, which makes this a cheap monotonicity certificate.
    """
    _check_params(n, beta, R=R)
    if R == 1.0:
        raise ValueError("R must exceed 1")
    rho = np.linspace(1.0, R, 4096)
    return float(np.max(gradient_ratio(n, beta, R, rho)))


def _zoom_min(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Refine one bracket per row at once; returns (argmin, min) per row.

    Each round evaluates f on a (rows, 33) array of equispaced points, one
    row per bracket, and keeps the two cells around each row's argmin, so
    every bracket shrinks sixteenfold until its width is at most
    tol * (1 + |lo| + |hi|).
    """
    rows = np.arange(lo.size)
    last = _ZOOM.size - 1
    for _ in range(_ZOOM_MAX_ROUNDS):
        pts = lo[:, None] + (hi - lo)[:, None] * _ZOOM
        vals = f(pts)
        j = np.argmin(vals, axis=1)
        if np.all(hi - lo <= tol * (1.0 + np.abs(lo) + np.abs(hi))):
            break
        lo = pts[rows, np.maximum(j - 1, 0)]
        hi = pts[rows, np.minimum(j + 1, last)]
    return pts[rows, j], vals[rows, j]


def _refine(
    f: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
    k: np.ndarray,
    e_grid: np.ndarray,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Refine the two cells of `grid` around each row's grid argmin k with
    `_zoom_min`; returns (argmin, min) per row.  The grid point, of value
    e_grid, is kept only where it is strictly lower, so ties go to the zoom.
    """
    lo = grid[np.maximum(k - 1, 0)]
    hi = grid[np.minimum(k + 1, grid.size - 1)]
    x, e = _zoom_min(f, lo, hi, tol)
    keep = e_grid < e
    return np.where(keep, grid[k], x), np.where(keep, e_grid, e)


def _trace_min(law: DissipationLaw, stiff: np.ndarray, per_R: np.ndarray) -> np.ndarray:
    """Minimize stiff (1 - l)^2 + per_R theta(l) over l in [0, 1], per row.

    theta is evaluated once on the trace grid and shared by every row; the
    grid scan runs _BLOCK rows at a time in two reused buffers.  The grid
    holds both ends, l = 0 (where theta may jump) and l = 1, so no end
    needs a candidate of its own; `_refine` finishes all rows at once.
    Returns the minimizing trace per row.
    """
    theta = np.asarray(law.value(_TRACE_GRID))
    k = np.empty(stiff.size, dtype=np.intp)
    e_grid = np.empty(stiff.size)
    buf = np.empty((2, min(_BLOCK, stiff.size), _TRACE_GRID.size))
    for start in range(0, stiff.size, _BLOCK):
        blk = slice(start, start + _BLOCK)
        vals, tmp = buf[:, : stiff[blk].size]
        np.multiply.outer(stiff[blk], _TRACE_GAP2, out=vals)
        vals += np.multiply.outer(per_R[blk], theta, out=tmp)
        k[blk] = np.argmin(vals, axis=1)
        e_grid[blk] = vals[np.arange(vals.shape[0]), k[blk]]

    def energy(l: np.ndarray) -> np.ndarray:
        return stiff[:, None] * (1.0 - l) ** 2 + per_R[:, None] * law.value(l)

    return _refine(energy, _TRACE_GRID, k, e_grid, 1e-12)[0]


def _shell_energy(n: int, law: DissipationLaw, R: np.ndarray, lam: float) -> Tuple:
    """(dirichlet, boundary, penalty, trace) arrays of the minimal shell
    energy at each outer radius in R (all at least 1); rows at R = 1 are
    the bare ball."""
    w = unit_ball_volume(n)
    per1 = n * w
    dirichlet = np.zeros(R.shape)
    boundary = np.full(R.shape, per1 * law.value(1.0))
    trace = np.ones(R.shape)
    shell = R > 1.0
    if np.any(shell):
        stiff = per1 / (phi(n, R[shell]) - phi(n, 1.0))
        per_R = per1 * R[shell] ** (n - 1)
        trace[shell] = l = _trace_min(law, stiff, per_R)
        dirichlet[shell] = stiff * (1.0 - l) ** 2
        boundary[shell] = per_R * law.value(l)
    return dirichlet, boundary, lam * w * (R**n - 1.0), trace


def _radial_totals(n: int, law: DissipationLaw, R: np.ndarray, lam: float) -> np.ndarray:
    """Total shell energy at each outer radius in the array R (all at least 1)."""
    dirichlet, boundary, penalty, _ = _shell_energy(n, law, R, lam)
    return dirichlet + boundary + penalty


def general_radial_energy(
    n: int, law: DissipationLaw, R: float, lam: float = 0.0
) -> EnergyBreakdown:
    """Minimal shell energy for a general law at fixed outer radius R.

    The harmonic profile is determined by its outer trace l, so the energy
    is a scalar function of l: a Dirichlet term quadratic in (1 - l) plus
    the boundary term Per(B_R) theta(l).  The trace is found by a global
    scan of a 4096-point grid, then the bracket around the grid minimum is
    refined by 33-point zoom grids to 1e-12 relative width.  The global
    scan comes first because theta may be discontinuous or nonconvex; the
    grid holds l = 0, where theta may jump, and l = 1, so neither end is a
    separate candidate.  R = 1 gives the bare ball.
    """
    _check_params(n, lam=lam, R=R)
    parts = _shell_energy(n, law, np.array([R], dtype=float), lam)
    return EnergyBreakdown(*(float(x[0]) for x in parts))


def threshold_radius(n: int, beta: float) -> Optional[float]:
    """Radius above the critical one at which the shell energy returns to the
    bare-ball value; exists only in the all-or-nothing regime.

    In 2D that regime is 0 < beta < 1; for n >= 3 it is n-2 < beta < n-1.
    Outside it, None is returned.
    """
    _check_params(n, beta)
    if n == 2:
        if not beta < 1.0:
            return None
    elif not (n - 2 < beta < n - 1):
        return None
    crit = (n - 1) / beta

    def gap(R: float) -> float:
        return phi_prime(n, R) + beta * (phi(n, R) - phi(n, 1.0)) - 1.0

    lo = crit
    hi = 2.0 * crit
    while gap(hi) <= 0.0:
        hi *= 2.0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def classify_regime(n: int, beta: float, R_max: float) -> RegimeReport:
    """Pick the optimal outer ball radius in [1, R_max] for the convection law.

    Regime 'a' (beta >= n-1): the energy decreases in R, use the full budget.
    Regime 'c' (beta <= n-2): the bare ball wins outright.
    Regime 'b' (between): compare the budget to the threshold radius; at a
    tie (within 1e-9) both radii are optimal and the bare ball is reported
    with the tie flag set.
    """
    _check_params(n, beta, R_max=R_max)
    crit = max(1.0, (n - 1) / beta)
    threshold = None
    tie = False
    if beta >= n - 1:
        regime = "a"
        r_opt = R_max
    elif beta <= n - 2:
        regime = "c"
        r_opt = 1.0
    else:
        regime = "b"
        threshold = threshold_radius(n, beta)
        if abs(R_max - threshold) < 1e-9:
            tie = True
            r_opt = 1.0
        else:
            r_opt = 1.0 if R_max < threshold else R_max
    energy = convection_energy(n, beta, r_opt)
    return RegimeReport(
        regime=regime,
        critical_radius=crit,
        threshold_radius=threshold,
        optimal_radius=r_opt,
        optimal_energy=energy.total,
        tie=tie,
    )


def best_radius(
    n: int, law: DissipationLaw, R_max: float = math.inf, lam: float = 0.0
) -> BestRadius:
    """Globally minimize the (optionally penalized) shell energy over R.

    For lam > 0 the search bracket may be unbounded: it grows until the
    penalty term alone exceeds the bare-ball energy, which caps the volume
    any minimizer can afford.  The scan is log-spaced in R - 1 with the
    bare ball included and evaluates all 512 radii in one batched pass;
    the bracket around its minimum is refined by 33-radius zoom rounds to
    1e-13 relative width, each round one batch.  The scan holds the bare
    ball and R_max, so neither is a separate candidate.  This reports the
    best concentric pair; for general laws no claim is made against
    non-spherical competitors.
    """
    _check_params(n, lam=lam)
    if R_max == math.inf and lam > 0.0:
        bare = _shell_energy(n, law, np.ones(1), 0.0)[1][0]
        w = unit_ball_volume(n)
        hi = 2.0
        while lam * w * (hi**n - 1.0) <= bare:
            hi *= 2.0
        R_max = hi
    _check_params(n, R_max=R_max)
    if R_max == 1.0:
        return BestRadius(1.0, general_radial_energy(n, law, 1.0, lam))
    radii = np.concatenate(
        [[1.0], 1.0 + np.geomspace((R_max - 1.0) * 1e-6, R_max - 1.0, 511)]
    )
    vals = _radial_totals(n, law, radii, lam)
    k = np.argmin(vals, keepdims=True)
    R_ref, _ = _refine(lambda R: _radial_totals(n, law, R, lam), radii, k, vals[k], 1e-13)
    R_star = float(R_ref[0])
    return BestRadius(R_star, general_radial_energy(n, law, R_star, lam))


def perturbation_expansion(n: int, law: DissipationLaw, eps: float) -> PerturbationExpansion:
    """Energy of the thin-shell trial state of thickness eps and the exact
    first-order coefficient of its expansion around the bare ball.

    The trial state drops linearly with slope theta'(1)/2 across the shell;
    its energy is evaluated in closed form.  The first-order coefficient
    ((n-1) theta(1) - theta'(1)^2/4) Per(B_1) is negative exactly when the
    flatness criterion fails, in which case a thin shell beats no shell.
    """
    _check_params(n)
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    d1 = float(law.jet(1.0)[0])
    t1 = law.value(1.0)
    arg = 1.0 - 0.5 * d1 * eps
    if arg < 0.0:
        raise ValueError("eps too large: trial state leaves [0, 1]")
    w = unit_ball_volume(n)
    per1 = n * w
    energy_eps = per1 * (1.0 + eps) ** (n - 1) * law.value(arg) + w * (
        (1.0 + eps) ** n - 1.0
    ) * d1**2 / 4.0
    coeff = ((n - 1) * t1 - d1**2 / 4.0) * per1
    return PerturbationExpansion(energy_eps=energy_eps, first_order_coeff=coeff)
