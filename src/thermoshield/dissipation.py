"""Boundary dissipation laws and their structural diagnostics.

A dissipation law is a nondecreasing, lower-semicontinuous function
``theta: [0, 1] -> [0, inf)`` with ``theta(0) = 0``.  It models the energy
density of heat transfer across the outer boundary of an insulated body:
convection (quadratic), radiation (quintic polynomial in the normalized
temperature), constant-flux (linear), power laws, a surface-material cost
with a jump at zero, and tabulated laws given by knots.

Besides evaluation and exact one-sided slopes (`jet`, `breakpoints`), this
module provides the flatness criterion at the hot end, which decides whether
no insulation is optimal for small budgets, and a quadratic regularization
that makes any law behave like ``O(u^2)`` near zero.
"""

from __future__ import annotations

import functools
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
_GRID = np.linspace(0.0, 1.0, 1024)  # where every law is checked and classified


def _require_finite(name: str, value: object) -> float:
    """value as a float; ValueError naming it unless a finite real number."""
    # abs(value) <= max is False for NaN and compares huge integers exactly.
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _require_count(name: str, value: object, least: int) -> None:
    """ValueError naming the count unless value is an integer (a numpy
    integer too, not a bool) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _check_params(
    n: int, beta: Optional[float] = None, lam: Optional[float] = None, **radii: float
) -> None:
    """ValueError naming the first bad parameter: n must be an integer of at
    least 2, beta finite and positive, lam finite and nonnegative, and each
    radius (passed by its name) at least 1 with a finite n-th power."""
    _require_count("n", n, 2)
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
    """Base class; concrete laws implement `_raw`, `_jet` on validated arrays
    and, if they jump or kink inside (0, 1), `breakpoints`: `convex` and
    `quadratic` follow.  Every parameter annotated `float` must be finite and
    positive, or nonnegative where its field's metadata says `may_vanish`."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "float":
                value = _require_finite(f.name, getattr(self, f.name))
                may_vanish = f.metadata.get("may_vanish", False)
                if not (value >= 0.0 if may_vanish else value > 0.0):
                    raise ValueError(f"{f.name} must be {'nonnegative' if may_vanish else 'positive'}")
        vals = self._raw(_GRID)
        if abs(float(vals[0])) > _MONOTONE_TOL:
            raise ValueError(f"{type(self).__name__}: theta(0) must be 0")
        if np.any(vals < -_MONOTONE_TOL):
            raise ValueError(f"{type(self).__name__}: negative values on [0, 1]")
        if np.any(np.diff(vals) < -_MONOTONE_TOL):
            raise ValueError(f"{type(self).__name__}: not nondecreasing on [0, 1]")

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

    @functools.cached_property
    def convex(self) -> bool:
        """Whether theta, and so the discrete energy, is convex: below 1 every
        breakpoint's right slope is finite and at least its left one, and
        the curvature is nonnegative on the grid."""
        left, right, _ = self.jet(self.breakpoints[:-1])
        return bool(np.all(np.isfinite(right) & (right >= left)) and np.all(self.jet(_GRID)[2] >= 0.0))

    @functools.cached_property
    def quadratic(self) -> bool:
        """Whether theta = beta u^2, which makes the state solver's Newton
        model exact and the shell trace closed form (`radial._trace_min`):
        breakpoints 0 and 1 only, theta'(0+) = 0 and one positive curvature
        on the grid.  A linear law's curvature is 0: its outer nodes detach
        to 0 and the held set changes between steps."""
        bend, smooth = self.jet(_GRID)[2], np.array_equal(self.breakpoints, [0, 1])
        return bool(smooth and self.jet(0.0)[1] == 0.0 and bend[0] > 0.0 and np.all(bend == bend[0]))


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

    def _raw(self, u: np.ndarray) -> np.ndarray:
        return self.beta * (u * u)

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

    def _raw(self, u: np.ndarray) -> np.ndarray:
        return self.c * u

    def _jet(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.full_like(u, self.c), np.full_like(u, self.c), np.zeros_like(u)


@dataclass(frozen=True)
class Power(DissipationLaw):
    """theta(u) = c * u**alpha."""

    c: float
    alpha: float

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
        if len(us) < 2:
            raise ValueError("tabulated law needs at least two knots")
        if us[0] != 0.0 or vs[0] != 0.0:
            raise ValueError("tabulated law must start with the knot (0, 0)")
        if us[-1] > 1.0 or np.any(us < 0.0):
            raise ValueError("tabulated knots must lie in [0, 1]")
        if np.any(np.diff(us) < 0.0) or np.any(np.diff(vs) < -_MONOTONE_TOL):
            raise ValueError("tabulated knots must be sorted and nondecreasing")
        object.__setattr__(self, "_us", us)
        object.__setattr__(self, "_vs", vs)
        self.__post_init__()

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

    @functools.cached_property
    def breakpoints(self) -> np.ndarray:
        """0, 1 and the knots where the law jumps or its slope changes by more
        than rounding the knot values can: collinear knots are no kinks.
        Computed once per law; the array is read-only."""
        # The knots are sorted, so dropping repeats leaves the distinct ones.
        x = np.append(self._us, 1.0)
        x = x[np.append(True, x[1:] != x[:-1])]
        left, right, _ = self.jet(x[1:-1])
        v, gap = np.abs(self.value(x)), np.diff(x)
        noise = 8 * np.finfo(float).eps * np.maximum(v[1:-1], v[2:]) * (1 / gap[:-1] + 1 / gap[1:])
        # A jump's right slope is infinite and its left one finite, so it
        # counts as a kink whatever the noise.
        kink = np.abs(right - left) > noise
        out = np.concatenate([[0.0], x[1:-1][kink], [1.0]])
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class FlatCriterion:
    """Outcome of the hot-end flatness test theta'(1)^2 / theta(1) < 4(n-1)."""

    ratio: float
    bound: float
    flat_optimal_for_small_M: bool


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in dimension n via the half-integer recurrence."""
    _check_params(n)
    vol = 1.0 if n % 2 == 0 else 2.0
    for k in range(2 + n % 2, n + 1, 2):
        vol *= 2.0 * math.pi / k
    return vol


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
    constructor parameters that `law_from_json` reads, tuples as lists.  A
    tag names one exact class: a subclass, which may change the law, raises
    TypeError as a foreign law does."""

    def plain(v: object) -> object:
        return [plain(x) for x in v] if isinstance(v, tuple) else v

    for tag, cls in _LAW_TAGS.items():
        if type(law) is cls:
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
