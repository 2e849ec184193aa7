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
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dissipation import ArrayLike, DissipationLaw, _check_params, unit_ball_volume

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

# Trace grid of the global scan.
_TRACE_GRID = np.linspace(0.0, 1.0, 4096)
# Rows per block of the grid scan, which bounds its temporaries.
_SCAN_ROWS = 8
# Relative positions of the points of one zoom round, and a cap on rounds.
_ZOOM = np.linspace(0.0, 1.0, 33)
_ZOOM_MAX_ROUNDS = 64
# Cap on the Newton steps of the radius solve, which takes about ten.  Only
# radii far beyond 1e6 can reach it; a capped solve stops above the root, at
# a radius whose energy is still that of a real shell.
_NEWTON_MAX_STEPS = 64

# One law shared by every row of a batched search, or one law per row.
_Laws = Union[DissipationLaw, Sequence[DissipationLaw]]


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


def _trace_search(energy: Callable[[np.ndarray, np.ndarray], np.ndarray], rows: int) -> np.ndarray:
    """Minimize energy(l) over the trace l in [0, 1] for each of `rows`
    rows; returns the argmin per row.

    `energy(l, idx)` maps a (len(idx), m) array of traces of the rows idx,
    or one (1, m) row shared by them, to their (len(idx), m) energies.  A
    global scan of the 4096-point trace grid comes first, `_SCAN_ROWS` rows
    at a time, because theta may be discontinuous or nonconvex; the grid
    holds l = 0 (where theta may jump) and l = 1, so no end needs a
    candidate of its own.  Zoom rounds then refine the two grid cells
    around each row's argmin: each evaluates 33 equispaced points per row
    and keeps the two cells around their argmin, until the row's bracket
    [lo, hi] is at most 1e-12 (1 + |lo| + |hi|) wide.  A row whose bracket
    has converged is frozen: later rounds evaluate only the open rows, so
    each row ends bitwise where a search of that row alone ends.  The grid
    point is kept only where it is strictly lower, so ties go to the zoom.
    The rounds compare energy values, which are flat to rounding within
    about sqrt(eps) of a smooth minimum, so they pin its argmin only to
    about 1e-8.
    """
    k = np.empty(rows, dtype=int)
    e_grid = np.empty(rows)
    for start in range(0, rows, _SCAN_ROWS):
        idx = np.arange(start, min(start + _SCAN_ROWS, rows))
        vals = energy(_TRACE_GRID[None, :], idx)
        k[idx] = np.argmin(vals, axis=1)
        e_grid[idx] = vals[np.arange(idx.size), k[idx]]
    trace = _TRACE_GRID[k]
    lo = _TRACE_GRID[np.maximum(k - 1, 0)]
    hi = _TRACE_GRID[np.minimum(k + 1, _TRACE_GRID.size - 1)]
    idx = np.arange(rows)
    last = _ZOOM.size - 1
    for _ in range(_ZOOM_MAX_ROUNDS):
        if not idx.size:
            break
        pts = lo[:, None] + (hi - lo)[:, None] * _ZOOM
        vals = energy(pts, idx)
        at = np.arange(idx.size)
        j = np.argmin(vals, axis=1)
        trace[idx] = np.where(e_grid[idx] < vals[at, j], _TRACE_GRID[k[idx]], pts[at, j])
        live = ~(hi - lo <= 1e-12 * (1.0 + np.abs(lo) + np.abs(hi)))
        idx = idx[live]
        lo = pts[at, np.maximum(j - 1, 0)][live]
        hi = pts[at, np.minimum(j + 1, last)][live]
    return trace


def _theta(law: _Laws, l: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """theta(l) on the rows idx: `law` is one law shared by every row, with
    one call for all of them, or a sequence of one law per row; l is
    (len(idx), m), or one (1, m) row shared by them."""
    if isinstance(law, DissipationLaw):
        return law.value(l)
    rows = np.broadcast_to(l, (idx.size, l.shape[1]))
    return np.array([law[i].value(row) for i, row in zip(idx, rows)]).reshape(rows.shape)


def _trace_min(law: _Laws, stiff: np.ndarray, per_R: np.ndarray) -> np.ndarray:
    """Minimize stiff (1 - l)^2 + per_R theta(l) over l in [0, 1], per row,
    by `_trace_search`; returns the minimizing trace per row, to about 1e-8.
    `law` is one law for every row or one law per row (see `_theta`).
    """

    def energy(l: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return stiff[idx, None] * (1.0 - l) ** 2 + per_R[idx, None] * _theta(law, l, idx)

    return _trace_search(energy, stiff.size)


def _best_shells(
    n: int, law: DissipationLaw, l: np.ndarray, lam: ArrayLike, t_max: ArrayLike
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize the shell energy over the outer radius R in [1, e^t_max] at
    each trace in the array l; returns (log R*, minimal energy) per trace.
    lam and t_max are numbers or arrays that broadcast against l.

    With R = e^t, gap = 1 - l and D = phi(R) - phi(1), the energy
    per1 (gap^2 / D + R^(n-1) theta(l)) + lam w (R^n - 1) is convex in R and
    stationary where gap = A(t) B(t), with A = D R^(n-3/2) and
    B = sqrt((n-1) theta(l) + lam R).  A and B are nonnegative,
    nondecreasing and convex in t, so their product is too, and Newton's
    method from above the root falls monotonically onto it.  It starts at
    gap / B(0), which lies above the root because A >= t, or at t_max if
    that is lower; a trace whose product at t_max is still below gap keeps
    t_max, the budget, and l = 1 gets t = 0, the bare ball.  A converged
    trace takes zero steps while the others go on.
    """
    theta = law.value(l)
    gap = np.maximum(1.0 - l, 0.0)
    b0 = np.sqrt((n - 1) * theta + lam)
    t = np.minimum(np.divide(gap, b0, out=np.full(b0.shape, t_max), where=b0 > 0.0), t_max)
    step = np.zeros_like(t)
    for _ in range(_NEWTON_MAX_STEPS):
        t = t - step
        R = np.exp(t)
        drop = t if n == 2 else -np.expm1((2 - n) * t) / (n - 2)
        a = drop * R ** (n - 1.5)
        b2 = (n - 1) * theta + lam * R
        excess = a * np.sqrt(b2) - gap
        high = excess > 1e-14 * gap
        if not np.any(high):
            break
        # (A B)' B = A' B^2 + A lam R / 2, with A' = sqrt(R) + (n - 3/2) A.
        slope_b = (np.sqrt(R) + (n - 1.5) * a) * b2 + 0.5 * lam * R * a
        step = np.divide(excess * np.sqrt(b2), slope_b, out=np.zeros_like(t), where=high)
    dirichlet = np.divide(gap**2, drop, out=np.zeros_like(t), where=gap > 0.0)
    w = unit_ball_volume(n)
    return t, n * w * (dirichlet + R ** (n - 1) * theta) + lam * w * (R**n - 1.0)


def _radial_energies(
    n: int, law: _Laws, R: Sequence[float], lam: Sequence[float]
) -> List[EnergyBreakdown]:
    """`general_radial_energy` of every row (law, R[i], lam[i]), with one
    trace search for all rows; `law` is one law for every row or one law
    per row."""
    for R_i, lam_i in zip(R, lam):
        _check_params(n, lam=lam_i, R=R_i)
    w = unit_ball_volume(n)
    per1 = n * w
    r = np.array(R, dtype=float)
    lams = np.array(lam, dtype=float)
    with np.errstate(over="ignore"):
        penalty = lams * w * (r**n - 1.0)
    for i in np.flatnonzero(~np.isfinite(penalty))[:1]:
        raise ValueError(f"lam and R must keep the penalty lam * omega_n * (R**{n} - 1) finite, "
                         f"got lam={float(lams[i])!r}, R={float(r[i])!r}")
    shell = r != 1.0
    per_R = per1 * r ** (n - 1)
    stiff = per1 / (phi(n, r[shell]) - phi(n, 1.0))
    l = np.ones(r.size)
    rows = law if isinstance(law, DissipationLaw) else [law[i] for i in np.flatnonzero(shell)]
    l[shell] = _trace_min(rows, stiff, per_R[shell])
    dirichlet = np.zeros(r.size)
    dirichlet[shell] = stiff * (1.0 - l[shell]) ** 2
    boundary = per_R * _theta(law, l[:, None], np.arange(r.size))[:, 0]
    return [EnergyBreakdown(*map(float, e)) for e in zip(dirichlet, boundary, penalty, l)]


def general_radial_energy(
    n: int, law: DissipationLaw, R: float, lam: float = 0.0
) -> EnergyBreakdown:
    """Minimal shell energy for a general law at fixed outer radius R.

    The harmonic profile is determined by its outer trace l, so the energy
    is a scalar function of l: a Dirichlet term quadratic in (1 - l) plus
    the boundary term Per(B_R) theta(l).  `_trace_search` minimizes it over
    l by a global grid scan and zoom rounds.  They compare energy values, so
    they pin a smooth law's trace only to about 1e-8, while the energy is
    minimal to rounding.  R = 1 gives the bare ball, and a penalty that
    overflows is rejected.  This is a one-row `_radial_energies`.
    """
    return _radial_energies(n, law, [R], [lam])[0]


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


def _best_radii(
    n: int, law: DissipationLaw, R_max: Sequence[float], lam: Sequence[float]
) -> List[BestRadius]:
    """`best_radius` of every row (R_max[i], lam[i]) under one law, with one
    trace search for all rows."""
    bounds = list(R_max)
    for i, m in enumerate(lam):
        _check_params(n, lam=m)
        if bounds[i] == math.inf and m > 0.0:
            w = unit_ball_volume(n)
            bare, hi = n * w * law.value(1.0), 2.0
            try:
                while m * w * (hi**n - 1.0) <= bare:
                    hi *= 2.0
            except OverflowError:
                raise ValueError(
                    f"lam must be large enough to bound R below overflow, got {m!r}") from None
            bounds[i] = hi
        _check_params(n, R_max=bounds[i])
    bounds = np.array(bounds, dtype=float)
    search = bounds != 1.0
    t_max = np.array([math.log(r) for r in bounds[search]])
    lam_s = np.array(lam, dtype=float)[search]

    def energy(l: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return _best_shells(n, law, l, lam_s[idx, None], t_max[idx, None])[1]

    t = _best_shells(n, law, _trace_search(energy, t_max.size), lam_s, t_max)[0]
    R_star = bounds.copy()
    R_star[search] = [R if a == b else math.exp(a) for R, a, b in zip(bounds[search], t, t_max)]
    energies = _radial_energies(n, law, R_star.tolist(), lam)
    return [BestRadius(R, e) for R, e in zip(R_star.tolist(), energies)]


def best_radius(
    n: int, law: DissipationLaw, R_max: float = math.inf, lam: float = 0.0
) -> BestRadius:
    """Globally minimize the (optionally penalized) shell energy over R.

    For lam > 0 the search bracket may be unbounded: it grows until the
    penalty term alone exceeds the bare-ball energy, which caps the volume
    any minimizer can afford; a lam too small to cap it before R**n
    overflows is rejected.  At a fixed trace l the energy is convex in R,
    so `_best_shells` solves for its minimizing radius R*(l) in [1, R_max],
    for every trace at once; l = 1 gives the bare ball.  `_trace_search`
    then minimizes the energy at R*(l) over l, and R_star is R* at that
    trace.  The search compares energy values, so it pins the trace, and
    with it an R_star inside (1, R_max), only to about 1e-8; an optimum at
    the bare ball or the budget is exact.  This reports the best concentric
    pair; for general laws no claim is made against non-spherical
    competitors.  This is a one-row `_best_radii`.
    """
    return _best_radii(n, law, [R_max], [lam])[0]


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
