"""Boundary dissipation laws and their structural diagnostics.

A dissipation law is a nondecreasing, lower-semicontinuous function
``theta: [0, 1] -> [0, inf)`` with ``theta(0) = 0``.  It models the energy
density of heat transfer across the outer boundary of an insulated body:
convection (quadratic), radiation (quintic polynomial in the normalized
temperature), constant-flux (linear), power laws, a surface-material cost
with a jump at zero, and tabulated laws given by knots.

Besides evaluation and exact one-sided slopes (`jet`, `breakpoints`), this
module provides the structural quantities that decide which optimization
regimes apply to a law: the infimum of ``theta(s/3)/theta(s)``, a volume
threshold built from it, the flatness criterion at the hot end, and a
quadratic regularization that makes any law behave like ``O(u^2)`` near zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "DissipationLaw",
    "Convection",
    "Radiation",
    "Linear",
    "Power",
    "SurfaceCost",
    "Tabulated",
    "FlatCriterion",
    "DegenerateLawError",
    "hyp_theta_inf",
    "volume_bound",
    "flat_criterion",
    "epsilon_regularize",
    "law_to_json",
    "law_from_json",
]

ArrayLike = Union[float, np.ndarray]

# Slack for the construction-time monotonicity check (pure rounding noise).
_MONOTONE_TOL = 1e-12
_DOMAIN_TOL = 1e-12
_FLOAT_MAX = float(np.finfo(float).max)


class DegenerateLawError(ValueError):
    """The law vanishes identically on the evaluation grid."""


def _require_finite(name: str, value: object) -> float:
    """value as a float; ValueError naming it unless a finite real number."""
    # abs(value) <= max is False for NaN and compares huge integers exactly.
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _check_params(
    n: int, beta: Optional[float] = None, lam: Optional[float] = None, **radii: float
) -> None:
    """ValueError naming the first bad parameter: n must be an integer of at
    least 2, beta finite and positive, lam finite and nonnegative, and each
    radius (passed by its name) at least 1 with a finite n-th power."""
    if not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError(f"n must be an integer of at least 2, got {n!r}")
    if beta is not None and not _require_finite("beta", beta) > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    if lam is not None and not _require_finite("lam", lam) >= 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    for name, R in radii.items():
        r = _require_finite(name, R)
        if not r >= 1.0:
            raise ValueError(f"{name} must be at least 1, got {R!r}")
        try:
            r**n  # a float power raises OverflowError where numpy's gives inf
        except OverflowError:
            limit = _FLOAT_MAX ** (1.0 / n)
            raise ValueError(
                f"{name} must be below {limit:.6g}, where {name}**{n} overflows, got {R!r}"
            ) from None


def _check_domain(u: np.ndarray) -> np.ndarray:
    # One min and one max admit every array in range.  A NaN entry, which
    # passes, makes both NaN; the elementwise test then judges the others.
    if u.size and not (u.min() >= -_DOMAIN_TOL and u.max() <= 1.0 + _DOMAIN_TOL):
        if np.any(u < -_DOMAIN_TOL) or np.any(u > 1.0 + _DOMAIN_TOL):
            raise ValueError(f"dissipation law argument outside [0, 1]: {u}")
    return np.clip(u, 0.0, 1.0)


@dataclass(frozen=True)
class DissipationLaw:
    """Base class; concrete laws implement `_raw` and `_jet` on validated
    arrays.  Every parameter annotated `float` must be a finite positive
    number, or nonnegative where its field's metadata says `may_vanish`."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float":
                value = _require_finite(f.name, getattr(self, f.name))
                may_vanish = f.metadata.get("may_vanish", False)
                if not (value >= 0.0 if may_vanish else value > 0.0):
                    raise ValueError(f"{f.name} must be {'nonnegative' if may_vanish else 'positive'}")
        self._validate_params()
        grid = np.linspace(0.0, 1.0, 1024)
        vals = self._raw(grid)
        if abs(float(vals[0])) > _MONOTONE_TOL:
            raise ValueError(f"{type(self).__name__}: theta(0) must be 0")
        if np.any(vals < -_MONOTONE_TOL):
            raise ValueError(f"{type(self).__name__}: negative values on [0, 1]")
        if np.any(np.diff(vals) < -_MONOTONE_TOL):
            raise ValueError(f"{type(self).__name__}: not nondecreasing on [0, 1]")

    def _validate_params(self) -> None:
        pass

    def _raw(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, u: ArrayLike) -> ArrayLike:
        """Evaluate theta(u); u may be a scalar or an array in [0, 1]."""
        arr = _check_domain(np.asarray(u, dtype=float))
        out = self._raw(arr)
        return float(out) if np.isscalar(u) or np.ndim(u) == 0 else out

    def jet(self, u: ArrayLike) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Left slope theta'(u-), right slope theta'(u+) and curvature
        theta''(u), arrays of u's shape.  A jump or a cusp has slope +inf on
        that side: `SurfaceCost` and `Power` with alpha < 1 at 0 from the
        right, and every `Tabulated` jump.  At 0 and at 1 the side outside
        [0, 1] repeats the inside one, so the left slope at 1 is theta'(1).
        A `Tabulated` law has slope 0 beyond its last knot and curvature 0."""
        x = _check_domain(np.asarray(u, dtype=float))
        with np.errstate(divide="ignore", over="ignore"):
            left, right, bend = self._jet(x)
        return np.where(x > 0.0, left, right), np.where(x < 1.0, right, left), bend

    @property
    def breakpoints(self) -> np.ndarray:
        """Sorted points where the law may jump or kink: 0 and 1 here."""
        return np.array([0.0, 1.0])

    # Whether theta is convex on [0, 1]; then so is the discrete energy.
    convex = False


def _power_jet(c: float, alpha: float, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The jet of c u^alpha; a linear term's curvature is 0, also at 0."""
    if c == 0.0 or alpha == 1.0:
        return np.full_like(u, c), np.full_like(u, c), np.zeros_like(u)
    with np.errstate(invalid="ignore"):
        slope = c * alpha * np.power(u, alpha - 1.0)
        bend = c * alpha * (alpha - 1.0) * np.power(u, alpha - 2.0)
    # A denormal c can round a coefficient to 0, and 0 * inf (a power at
    # u = 0) is NaN: the limit there is the infinity of the coefficient's sign.
    slope = np.where(np.isnan(slope), np.inf, slope)
    return slope, slope, np.where(np.isnan(bend), math.copysign(np.inf, alpha - 1.0), bend)


@dataclass(frozen=True)
class Convection(DissipationLaw):
    """theta(u) = beta * u**2, the Robin/Newton-cooling law."""

    beta: float
    convex = True

    def _raw(self, u: np.ndarray) -> np.ndarray:
        return self.beta * u * u

    def _jet(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return 2.0 * self.beta * u, 2.0 * self.beta * u, np.full_like(u, 2.0 * self.beta)


@dataclass(frozen=True)
class Radiation(DissipationLaw):
    """Stefan-Boltzmann transfer in the normalized temperature u.

    theta(u) = u^5/5 + gamma u^4 + 2 gamma^2 u^3 + 2 gamma^3 u^2, where
    gamma is the ratio of the ambient temperature to the temperature excess
    of the hot body.
    """

    gamma: float
    convex = True

    def _raw(self, u: np.ndarray) -> np.ndarray:
        g = self.gamma
        return u * u * (2 * g**3 + u * (2 * g**2 + u * (g + u / 5.0)))

    def _jet(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = self.gamma
        slope = u * (4 * g**3 + u * (6 * g**2 + u * (4 * g + u)))
        return slope, slope, 4 * g**3 + u * (12 * g**2 + u * (12 * g + 4 * u))


@dataclass(frozen=True)
class Linear(DissipationLaw):
    """theta(u) = c * u, a constant heat flux per unit temperature."""

    c: float
    convex = True

    def _raw(self, u: np.ndarray) -> np.ndarray:
        return self.c * u

    def _jet(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.full_like(u, self.c), np.full_like(u, self.c), np.zeros_like(u)


@dataclass(frozen=True)
class Power(DissipationLaw):
    """theta(u) = c * u**alpha."""

    c: float
    alpha: float

    @property
    def convex(self) -> bool:
        return self.alpha >= 1.0

    def _raw(self, u: np.ndarray) -> np.ndarray:
        return self.c * np.power(u, self.alpha)

    def _jet(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _power_jet(self.c, self.alpha, u)


@dataclass(frozen=True)
class SurfaceCost(DissipationLaw):
    """theta(u) = c1 * 1_{u > 0} + c2 * u**alpha.

    The jump c1 at zero prices the surface of highly insulating material;
    lower semicontinuity forces theta(0) = 0.
    """

    c1: float
    c2: float = field(metadata={"may_vanish": True})
    alpha: float

    def _raw(self, u: np.ndarray) -> np.ndarray:
        return np.where(u > 0.0, self.c1 + self.c2 * np.power(u, self.alpha), 0.0)

    def _jet(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        slope, _, bend = _power_jet(self.c2, self.alpha, u)
        slope = np.where(u > 0.0, slope, np.inf)
        return slope, slope, bend


@dataclass(frozen=True)
class Tabulated(DissipationLaw):
    """Law given by sorted (u, theta(u)) knots on [0, 1].

    Evaluation uses the nondecreasing piecewise-linear envelope that is
    continuous from the left: duplicated abscissae encode jumps and the
    value at a jump point is the lower (left) one, which keeps the law
    lower semicontinuous.  Beyond the last knot the law extends constantly.
    """

    knots: Tuple[Tuple[float, float], ...]
    _us: np.ndarray = field(init=False, repr=False, compare=False)
    _vs: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, knots: Sequence[Sequence[float]]):
        try:
            raw = [(u, v) for u, v in knots]
        except (TypeError, ValueError) as exc:
            raise ValueError("knots must be a list of [u, v] pairs") from exc
        pairs = tuple((_require_finite("knots", u), _require_finite("knots", v)) for u, v in raw)
        object.__setattr__(self, "knots", pairs)
        us = np.array([p[0] for p in pairs])
        vs = np.array([p[1] for p in pairs])
        object.__setattr__(self, "_us", us)
        object.__setattr__(self, "_vs", vs)
        self.__post_init__()

    def _validate_params(self) -> None:
        us, vs = self._us, self._vs
        if len(us) < 2:
            raise ValueError("tabulated law needs at least two knots")
        if us[0] != 0.0 or vs[0] != 0.0:
            raise ValueError("tabulated law must start with the knot (0, 0)")
        if us[-1] > 1.0 or np.any(us < 0.0):
            raise ValueError("tabulated knots must lie in [0, 1]")
        if np.any(np.diff(us) < 0.0) or np.any(np.diff(vs) < -_MONOTONE_TOL):
            raise ValueError("tabulated knots must be sorted and nondecreasing")

    def _raw(self, u: np.ndarray) -> np.ndarray:
        us, vs = self._us, self._vs
        # np.interp takes the last knot of a duplicated abscissa; an exact hit
        # takes the first, the left limit.
        first = np.minimum(np.searchsorted(us, u, side="left"), len(us) - 1)
        return np.where(us[first] == u, vs[first], np.interp(u, us, vs))

    def _jet(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        us, vs, du = self._us, self._vs, np.diff(self._us)
        # Chord slope of each knot interval, and 0 beyond the last knot.
        chord = np.append(np.divide(np.diff(vs), du, out=np.zeros_like(du), where=du > 0.0), 0.0)
        first, after = np.searchsorted(us, u, side="left"), np.searchsorted(us, u, side="right")
        # A knot takes its first knot's value: it jumps where its last one is higher.
        jump = (first < after) & (vs[after - 1] > vs[np.minimum(first, len(us) - 1)])
        return chord[first - 1], np.where(jump, np.inf, chord[after - 1]), np.zeros_like(u)

    @property
    def breakpoints(self) -> np.ndarray:
        """0, 1 and the knots where the law jumps or its slope changes by more
        than rounding the knot values can: collinear knots are no kinks."""
        x = np.unique(np.append(self._us, 1.0))
        left, right, _ = self.jet(x[1:-1])
        v, gap = np.abs(self.value(x)), np.diff(x)
        noise = 8 * np.finfo(float).eps * np.maximum(v[1:-1], v[2:]) * (1 / gap[:-1] + 1 / gap[1:])
        # Infinite slopes (jumps) are tested apart: no scale applies to them.
        kink = np.isinf(right) | (np.abs(right - left) > noise)
        return np.concatenate([[0.0], x[1:-1][kink], [1.0]])

    @property
    def convex(self) -> bool:
        """Nondecreasing chord slopes and no jump: below 1, every breakpoint's
        right slope is finite and at least its left one."""
        left, right, _ = self.jet(self.breakpoints[:-1])
        return bool(np.all(np.isfinite(right) & (right >= left)))


@dataclass(frozen=True)
class FlatCriterion:
    """Outcome of the hot-end flatness test theta'(1)^2 / theta(1) < 4(n-1)."""

    ratio: float
    bound: float
    flat_optimal_for_small_M: bool


def hyp_theta_inf(law: DissipationLaw) -> float:
    """Minimum of theta(s/3)/theta(s) over a logarithmic grid of s in (0, 1].

    The grid has 4096 points, geometric with ratio 3**(-1/341), so that
    small arguments are sampled densely down to 3**-12; a uniform grid would
    undersample the region where the one-third comparison is most
    restrictive.  Grid points with theta(s) = 0 are skipped (the ratio tends
    to a limit there).
    """
    s = 3.0 ** (-np.arange(4096) / 341)
    denom = np.asarray(law.value(s))
    keep = denom > 0.0
    if not np.any(keep):
        raise DegenerateLawError("law vanishes on the whole grid")
    numer = np.asarray(law.value(s[keep] / 3.0))
    return float(np.min(numer / denom[keep]))


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in dimension n via the half-integer recurrence."""
    _check_params(n)
    vol = 1.0 if n % 2 == 0 else 2.0
    for k in range(2 + n % 2, n + 1, 2):
        vol *= 2.0 * math.pi / k
    return vol


def volume_bound(law: DissipationLaw, n: int, c_n: float = 1.0) -> float:
    """Volume threshold omega_n + c_n * inf^(2n) * int_0^1 t^(2n-1)/theta(t)^n dt.

    Budgets below this threshold guarantee the insulation problem is
    well-posed for the law.  The integral runs over [1e-8, 1] decade by
    decade, with a fixed composite Gauss-Legendre rule: 20 nodes on each of
    64 log-uniform panels per decade, and the law's breakpoints as extra
    panel edges, so that no panel straddles a kink or a jump.  When a
    decade's contribution is infinite, or the contributions do not decay
    near zero, the integral diverges and +inf is returned (any budget is
    then admissible).  c_n is a dimensional constant left to the caller.
    """
    _check_params(n)
    if c_n <= 0:
        raise ValueError("c_n must be positive")
    ratio = hyp_theta_inf(law)
    grid = np.logspace(-8, 0, 8 * 64 + 1)
    cuts = grid[::64]  # 1e-8, 1e-7, ..., 1
    if np.any(law.value(cuts) == 0.0):
        return math.inf
    knots = law.breakpoints
    edges = np.union1d(grid, knots[(knots > grid[0]) & (knots < 1.0)])
    nodes, weights = np.polynomial.legendre.leggauss(20)
    panels = []
    # One decade's nodes at a time: a law with thousands of knots would
    # otherwise put all of them through one evaluation.
    at = np.searchsorted(edges, cuts)
    for e in (edges[a : b + 1] for a, b in zip(at[:-1], at[1:])):
        half = 0.5 * np.diff(e)
        t = (e[:-1] + half)[:, None] + half[:, None] * nodes
        # t^(2n-1)/theta^n as (t^2/theta)^n / t, which has no 0/0 where both
        # powers underflow; an overflow makes its panel infinite.
        with np.errstate(divide="ignore", over="ignore"):
            f = (t * t / law.value(t)) ** n / t
        panels.append(half * np.sum(f * weights, axis=1))
    decade = np.searchsorted(cuts, edges[:-1], side="right") - 1
    pieces = np.bincount(decade, weights=np.concatenate(panels), minlength=8)  # [1e-8, 1e-7] first
    total = float(np.sum(pieces))
    # Harmonic-or-worse decay near zero means the integral diverges.
    if total == math.inf or np.any((pieces[:-1] >= 0.8 * pieces[1:]) & (pieces[:-1] > 0.0)):
        return math.inf
    return unit_ball_volume(n) + c_n * ratio ** (2 * n) * total


def flat_criterion(law: DissipationLaw, n: int) -> FlatCriterion:
    """Test theta'(1)^2/theta(1) < 4(n-1), under which no insulation is
    optimal for volume budgets close to the bare body."""
    _check_params(n)
    d1 = float(law.jet(1.0)[0])
    t1 = law.value(1.0)
    ratio = d1 * d1 / t1 if t1 > 0.0 else 0.0
    bound = 4.0 * (n - 1)
    return FlatCriterion(ratio=ratio, bound=bound, flat_optimal_for_small_M=ratio < bound)


def epsilon_regularize(law: DissipationLaw, eps: float) -> Tabulated:
    """Quadratically regularized law min((theta(1)+eps)(u/eps)^2, theta(u)+eps).

    The first branch caps the regularized law by a quadratic near zero, the
    second keeps it within eps of the original away from zero; the jump
    eps * 1_{u>0} of the second branch vanishes at 0.  Returned as a
    tabulated law sampled on a grid (uniform plus geometric near zero); the
    piecewise-linear chords of the quadratic branch can exceed it between
    knots by a relative O(grid ratio - 1), below 1e-3 at this resolution.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    grid = np.unique(
        np.concatenate(
            [[0.0], np.geomspace(1e-7, 1.0, 6145), np.linspace(0.0, 1.0, 1025)]
        )
    )
    cap = (law.value(1.0) + eps) * (grid / eps) ** 2
    shifted = np.asarray(law.value(grid)) + np.where(grid > 0.0, eps, 0.0)
    vals = np.minimum(cap, shifted)
    return Tabulated(list(zip(grid.tolist(), vals.tolist())))


_LAW_TAGS = {
    "convection": Convection,
    "radiation": Radiation,
    "linear": Linear,
    "power": Power,
    "surface_cost": SurfaceCost,
    "tabulated": Tabulated,
}


def law_to_json(law: DissipationLaw) -> dict:
    """Serialize a law to its wire-format dictionary: the type tag and the
    constructor parameters that `law_from_json` reads, tuples as lists."""

    def plain(v: object) -> object:
        return [plain(x) for x in v] if isinstance(v, tuple) else v

    for tag, cls in _LAW_TAGS.items():
        if isinstance(law, cls):
            params = {f.name: plain(getattr(law, f.name)) for f in fields(cls) if f.init}
            return {"type": tag, **params}
    raise TypeError(f"unknown law type {type(law).__name__}")


def law_from_json(data: dict) -> DissipationLaw:
    """Build a law from its wire-format dictionary; an unknown type, or an
    unknown or missing parameter key, raises ValueError naming it."""
    try:
        tag = data["type"]
        cls = _LAW_TAGS[tag]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"unrecognized law specification: {data!r}") from exc
    kwargs = {k: v for k, v in data.items() if k != "type"}
    names = [f.name for f in fields(cls) if f.init]
    for key in kwargs:
        if key not in names:
            raise ValueError(f"unknown key {key!r} for law type {tag!r}")
    for name in names:
        if name not in kwargs:
            raise ValueError(f"missing key {name!r} for law type {tag!r}")
    return cls(**kwargs)
