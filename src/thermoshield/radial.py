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

from .dissipation import ArrayLike, DissipationLaw, _check_params, _require_finite, unit_ball_volume

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

# The trace search's value scan; 65 points miss a basin of SurfaceCost(0.3, 1, 0.9).
_SCAN = np.linspace(0.0, 1.0, 257)
# Rows per block of the value scan, which bounds its temporaries.
_SCAN_ROWS = 8
# Relative positions of the points of one zoom round.
_ZOOM = np.linspace(0.0, 1.0, 33)
# A zoom cell whose upper end is below this closes; a root that underflows
# toward 0 would otherwise cost a round per factor of 32.  Both callers'
# values obey value(l) >= (1 - l)^2 value(0), so the final pick's scan
# argmin is then within 2**-63 relative of the cell's minimum.
_ZOOM_FLOOR = 2.0**-64
# Cap on the Newton steps of the radius solve, which takes about ten.  Only
# radii far beyond 1e6 can reach it; a capped solve stops above the root, at
# a radius whose energy is still that of a real shell.
_NEWTON_MAX_STEPS = 64

# One law shared by every row of a batched search, or one law per row; one
# radius or lam, or one per row.
_Laws = Union[DissipationLaw, Sequence[DissipationLaw]]
_Grid = Union[float, Sequence[float]]


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
    _check_params(n)
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
    _check_params(n)
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
    """|grad u|/u of the convection state at radius rho in (0, R], which
    does not depend on the inner radius: so every R > 0 whose R**(1-n) is
    finite is accepted."""
    _check_params(n, beta)
    if not _require_finite("R", R) > 0.0:
        raise ValueError(f"R must be positive, got {R!r}")
    try:
        float(R) ** (1 - n)  # a float power raises OverflowError where numpy's gives inf
    except OverflowError:
        raise ValueError(f"R must be larger, as R**{1 - n} overflows, got {R!r}") from None
    r = np.asarray(rho, dtype=float)
    if not np.all((r > 0.0) & (r <= R * (1.0 + 1e-12))):
        raise ValueError(f"rho must lie in (0, R], got {rho!r} with R = {R!r}")
    numer = beta * phi_prime(n, r)
    denom = phi_prime(n, R) + beta * (phi(n, R) - phi(n, r))
    out = numer / denom
    return float(out) if np.ndim(rho) == 0 else out


def gradient_ratio_max(n: int, beta: float, R: float) -> float:
    """Maximum of |grad u|/u over the shell, at r = 1 or r = R: the ratio
    is beta/h(r) with h > 0 and no interior minimum, as h(r) = r (1/R +
    beta log(R/r)) is concave in 2D, and for n >= 3 h(r) = c r^(n-1) +
    beta r/(n-2), c constant, is increasing (c >= 0) or concave (c < 0).

    The maximum is at most beta exactly when no smaller outer ball has
    lower energy, which makes this a cheap monotonicity certificate.
    """
    _check_params(n, beta, R=R)
    if R == 1.0:
        raise ValueError("R must exceed 1")
    return float(np.max(gradient_ratio(n, beta, R, np.array([1.0, R]))))


def _trace_search(value: Callable, slope: Callable, rows: int, breakpoints: np.ndarray) -> np.ndarray:
    """Minimize a function of l over [0, 1] for each of `rows` rows, which
    may jump or kink only at `breakpoints`; returns the argmin per row.

    `value(l, idx)` and `slope(l, idx)` map a (len(idx), m) array of l on
    the rows idx, or one (1, m) row shared by them, to values and right
    slopes.  A value scan of 257 points joined with the breakpoints, in
    blocks of `_SCAN_ROWS` rows, picks each row's basin; the slope at its
    argmin picks the scan cell on the right if negative, else on the left
    (an end beyond 0 or 1).  Zoom rounds split the cell into 32 and keep
    the one ending at the first point of nonnegative slope, or the last,
    until its ends are adjacent floats or its upper end is below
    `_ZOOM_FLOOR`; they compare no values, so a smooth minimum is pinned to
    rounding and a kink at a scan point exactly.  Closed rows are frozen,
    so each ends bitwise as it would alone.  The result is the cell's upper
    end, or the scan's argmin where that is lower."""
    # A merge sort: numpy's default sort maps about 1 MiB more on first use.
    scan = np.sort(np.concatenate([_SCAN, breakpoints]), kind="stable")
    scan = scan[np.append(True, scan[1:] != scan[:-1])]
    # Point k of the scan is padded[k + 1], between its neighbours.
    padded = np.concatenate([[0.0], scan, [1.0]])
    k = np.empty(rows, dtype=int)
    for start in range(0, rows, _SCAN_ROWS):
        idx = np.arange(start, min(start + _SCAN_ROWS, rows))
        k[idx] = np.argmin(value(scan[None, :], idx), axis=1)
    c = k + (slope(scan[k][:, None], np.arange(rows))[:, 0] < 0.0)
    lo, hi = padded[c], padded[c + 1]
    idx = np.arange(rows)
    while True:
        mid = 0.5 * (lo[idx] + hi[idx])
        idx = idx[(lo[idx] < mid) & (mid < hi[idx]) & (hi[idx] > _ZOOM_FLOOR)]
        if not idx.size:
            break
        pts = lo[idx, None] + (hi[idx] - lo[idx])[:, None] * _ZOOM
        j = np.argmax(np.column_stack([slope(pts[:, 1:-1], idx) >= 0.0, np.ones(idx.size, bool)]), axis=1)
        lo[idx], hi[idx] = pts[np.arange(idx.size), j], pts[np.arange(idx.size), j + 1]
    # A cell with several turns of the slope may zoom onto a higher minimum.
    e = value(np.column_stack([hi, scan[k]]), np.arange(rows))
    return np.where(e[:, 1] < e[:, 0], scan[k], hi)


def _theta(law: _Laws, l: np.ndarray, idx: np.ndarray, right_slope: bool = False) -> np.ndarray:
    """theta(l), or theta'(l+) if right_slope, on the rows idx: `law` is one
    law shared by every row, with one call for all, or one law per row; l
    is (len(idx), m), or one (1, m) row shared by them."""
    f = (lambda x, u: x.jet(u)[1]) if right_slope else (lambda x, u: x.value(u))
    if isinstance(law, DissipationLaw):
        return f(law, l)
    rows = np.broadcast_to(l, (idx.size, l.shape[1]))
    return np.array([f(law[i], row) for i, row in zip(idx, rows)]).reshape(rows.shape)


def _trace_min(law: _Laws, kappa: np.ndarray) -> np.ndarray:
    """Minimize (1 - l)^2 + kappa theta(l) over l in [0, 1] for each row's
    kappa >= 0; `law` is one law or one per row (see `_theta`).  If every
    law is quadratic, theta(l) = theta(1) l^2, the trace is 1 / (1 + kappa
    theta(1)); else `_trace_search` takes every row, on the slope 2 (l - 1)
    + kappa theta'(l+).  Both are exact to rounding, and 1 at kappa = 0."""
    laws = [law] if isinstance(law, DissipationLaw) else law
    if all(x.quadratic for x in laws):
        return 1.0 / (1.0 + kappa * np.array([x.value(1.0) for x in laws]))

    def value(l: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return (1.0 - l) ** 2 + kappa[idx, None] * _theta(law, l, idx)

    def slope(l: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return 2.0 * (l - 1.0) + kappa[idx, None] * _theta(law, l, idx, right_slope=True)

    return _trace_search(value, slope, kappa.size, np.concatenate([x.breakpoints for x in laws]))


def _best_shells(
    n: int, theta: np.ndarray, l: np.ndarray, lam: ArrayLike, t_max: ArrayLike
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Minimize the shell energy over the outer radius R in [1, e^t_max] at
    each trace in the array l, all in [0, 1], where the law's value is theta;
    returns log R* and the (dirichlet, boundary, penalty) terms there, per
    trace.  theta, lam and t_max broadcast against l.

    With R = e^t, gap = 1 - l and D = phi(R) - phi(1), the energy
    per1 (gap^2 / D + R^(n-1) theta(l)) + lam w (R^n - 1) is convex in R and
    stationary where gap = A(t) B(t), with A = D R^(n-3/2) and
    B = sqrt((n-1) theta(l) + lam R).  A and B are nonnegative,
    nondecreasing and convex in t, so their product is too, and Newton's
    method from above the root falls monotonically onto it.  It starts at
    the root of (t + (n - 1) t^2 / 2) B(0) = gap, which lies above the root
    because A >= t + (n - 1) t^2 / 2 (every Taylor coefficient of A is
    nonnegative), or at t_max if that is lower; a trace whose product at
    t_max is still below gap keeps t_max, the budget, and l = 1 gets t = 0,
    the bare ball.  At t_max = 0, the bare ball, a trace below 1 has an
    infinite Dirichlet term.  A trace stops once a step no longer lowers
    its t, which pins the root to rounding, and takes zero steps while the
    others go on.
    """
    gap, th = 1.0 - l, (n - 1) * theta
    b0 = np.sqrt(th + lam)
    first = b0 + np.sqrt(b0 * (b0 + 2 * (n - 1) * gap))
    t = np.minimum(np.divide(2.0 * gap, first, out=np.full(first.shape, t_max), where=first > 0.0), t_max)
    # theta = lam = 0 makes the Newton denominator 0 and the step 0/0, which
    # stops that trace.
    step = 0.0
    with np.errstate(invalid="ignore"):
        for _ in range(_NEWTON_MAX_STEPS):
            t = t - step
            R = np.exp(t)
            drop = t if n == 2 else -np.expm1((2 - n) * t) / (n - 2)
            a = drop * R ** (n - 1.5)
            lr = lam * R
            b2 = th + lr
            b = np.sqrt(b2)
            # (A B)' B = A' B^2 + A lam R / 2, with A' = sqrt(R) + (n - 3/2) A.
            step = (a * b - gap) * b / ((np.sqrt(R) + (n - 1.5) * a) * b2 + 0.5 * lr * a)
            lower = t - step < t
            if not lower.any():
                break
            step = np.where(lower, step, 0.0)
    with np.errstate(divide="ignore"):
        dirichlet = np.divide(gap**2, drop, out=np.zeros_like(t), where=gap > 0.0)
    w = unit_ball_volume(n)
    return t, n * w * dirichlet, n * w * R ** (n - 1) * theta, lam * w * (R**n - 1.0)


def _rows(law: _Laws, radii: _Grid, lam: _Grid, name: str) -> Tuple[list, list]:
    """The entries of `radii`, one row for a number, and lam's, where lam is
    a number for every row or a sequence; a ValueError names the sequences,
    law among them, whose lengths differ."""
    radii = [radii] if np.ndim(radii) == 0 else list(radii)
    rows = {name: radii, "lam": [lam] * len(radii) if np.ndim(lam) == 0 else list(lam)}
    sizes = {k: len(v) for k, v in [*rows.items(), ("law", law)] if not isinstance(v, DissipationLaw)}
    if len(set(sizes.values())) > 1:
        raise ValueError(f"{', '.join(sizes)} must have one entry per row, got lengths {sizes}")
    return rows[name], rows["lam"]


def general_radial_energy(
    n: int, law: _Laws, R: _Grid, lam: _Grid = 0.0
) -> Union[EnergyBreakdown, List[EnergyBreakdown]]:
    """Minimal shell energy for a general law at fixed outer radius R.

    The harmonic profile is determined by its outer trace l, so the energy
    Per(B_1) ((1 - l)^2 / D + R^(n-1) theta(l)), D = phi(R) - phi(1), is
    Per(B_1) / D times `_trace_min`'s trace problem at kappa = D R^(n-1),
    whose trace is exact to rounding for every law.  R = 1 is kappa = 0,
    the bare ball, and a penalty that overflows is rejected.
    A number R is one row, a sequence one breakdown per entry, each bitwise
    that entry's alone unless its laws mix quadratic and other laws, which
    are searched together; lam and law are one for all rows or one per row
    (`_rows`).
    """
    radii, lams = _rows(law, R, lam, "R")
    for R_i, lam_i in zip(radii, lams):
        _check_params(n, lam=lam_i, R=R_i)
    w = unit_ball_volume(n)
    r = np.array(radii, dtype=float)
    lams = np.array(lams, dtype=float)
    with np.errstate(over="ignore"):
        penalty = lams * w * (r**n - 1.0)
    for i in np.flatnonzero(~np.isfinite(penalty))[:1]:
        raise ValueError(f"lam and R must keep the penalty lam * omega_n * (R**{n} - 1) finite, "
                         f"got lam={float(lams[i])!r}, R={float(r[i])!r}")
    drop = phi(n, r) - phi(n, 1.0)
    l = _trace_min(law, drop * r ** (n - 1))
    dirichlet = np.divide(n * w * (1.0 - l) ** 2, drop, out=np.zeros(r.size), where=l < 1.0)
    boundary = n * w * r ** (n - 1) * _theta(law, l[:, None], np.arange(r.size))[:, 0]
    out = [EnergyBreakdown(*map(float, e)) for e in zip(dirichlet, boundary, penalty, l)]
    return out[0] if np.ndim(R) == 0 else out


def threshold_radius(n: int, beta: float) -> Optional[float]:
    """Radius above the critical one at which the shell energy returns to the
    bare-ball value; exists only in the all-or-nothing regime.

    In 2D that regime is 0 < beta < 1; for n >= 3 it is n-2 < beta < n-1.
    Outside it, None is returned.  Bisection on the gap phi'(R) + beta
    (phi(R) - phi(1)) - 1 runs to two adjacent floats and returns the one
    with the smaller |gap|.
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

    lo, hi = crit, 2.0 * crit
    while gap(hi) <= 0.0:
        hi *= 2.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        lo, hi = (mid, hi) if gap(mid) < 0.0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return min(lo, hi, key=lambda r: abs(gap(r)))


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
    n: int, law: _Laws, R_max: _Grid = math.inf, lam: _Grid = 0.0
) -> Union[BestRadius, List[BestRadius]]:
    """Globally minimize the (optionally penalized) shell energy over R.

    For lam > 0 the search bracket may be unbounded: it grows until the
    penalty term alone exceeds the bare-ball energy, which caps the volume
    any minimizer can afford; a lam too small to cap it before R**n
    overflows is rejected.  At a fixed trace l the energy is convex in R,
    so `_best_shells` solves for its minimizing radius R*(l) in [1, R_max],
    for every trace at once.  `_trace_search` minimizes the sum of its
    terms over l, on the envelope theorem's slope Per(B_1) (-2 (1 - l) /
    D(R*) + R*^(n-1) theta'(l+)), D = phi(R*) - phi(1); R_star and the
    breakdown are R* and the terms at that trace, both pinned to rounding;
    the bare ball and the budget are exact.  This reports the best
    concentric pair; for general laws no claim is made against
    non-spherical competitors.  A number R_max is one row, and a sequence
    gives one result per entry, as R does in `general_radial_energy`.
    """
    bounds, lams = _rows(law, R_max, lam, "R_max")
    for i, m in enumerate(lams):
        _check_params(n, lam=m)
        if bounds[i] == math.inf and m > 0.0:
            w = unit_ball_volume(n)
            bare, hi = n * w * (law if isinstance(law, DissipationLaw) else law[i]).value(1.0), 2.0
            try:
                while m * w * (hi**n - 1.0) <= bare:
                    hi *= 2.0
            except OverflowError:
                raise ValueError(
                    f"lam must be large enough to bound R below overflow, got {m!r}") from None
            bounds[i] = hi
        _check_params(n, R_max=bounds[i])
    t_max = np.array([math.log(r) for r in bounds])
    lams = np.array(lams, dtype=float)
    laws = [law] if isinstance(law, DissipationLaw) else law

    def value(l: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return sum(_best_shells(n, _theta(law, l, idx), l, lams[idx, None], t_max[idx, None])[1:])

    def slope(l: np.ndarray, idx: np.ndarray) -> np.ndarray:
        t, dirichlet = _best_shells(n, _theta(law, l, idx), l, lams[idx, None], t_max[idx, None])[:2]
        return (np.divide(-2.0 * dirichlet, 1.0 - l, out=np.zeros(t.shape), where=l < 1.0)
                + n * unit_ball_volume(n) * np.exp((n - 1) * t) * _theta(law, l, idx, right_slope=True))

    l = _trace_search(value, slope, len(bounds), np.concatenate([x.breakpoints for x in laws]))
    t, *terms = _best_shells(n, _theta(law, l[:, None], np.arange(l.size))[:, 0], l, lams, t_max)
    R_star = [float(R) if a == b else math.exp(a) for R, a, b in zip(bounds, t, t_max)]
    out = [BestRadius(R, EnergyBreakdown(*map(float, e))) for R, *e in zip(R_star, *terms, l)]
    return out[0] if np.ndim(R_max) == 0 else out


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
