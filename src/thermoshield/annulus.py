"""Discrete state solver for nested star-shaped insulation pairs in 2D.

The inner body K and the insulated region Omega are both star-shaped about
the origin, described by truncated Fourier radius functions.  The annulus
between them maps onto the (s, theta) unit rectangle by the log-polar map
log rho = (1-s) log r_K + s log r_O.  The Dirichlet integral is conformally
invariant in 2D, so in (log rho, theta) it has no metric weight and the
concentric harmonic profile is linear in s.  The temperature is
discretized on a structured grid there, the Dirichlet energy is assembled
with bilinear elements and corner (trapezoid) quadrature of the mapped
gradient, and the boundary dissipation uses the trapezoid rule with the
arclength weight.  One matrix-free stencil gives the Dirichlet energy,
gradient and Hessian products; the law enters through its values and exact
one-sided slopes (`DissipationLaw.jet`).  The state is the minimizer of
this discrete energy over nodal values clamped to [0, 1] with the inner row
pinned to 1, found by a projected Newton iteration that stops on a
reported residual (`solve_state`).

Contact between the two boundaries is excluded by a minimum gap: the
touching configuration is handled analytically by the radial formulas, and
admitting it here would require crack energies this discretization does not
represent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dissipation import DissipationLaw, _require_count, _require_finite
from .radial import EnergyBreakdown, _trace_min

__all__ = [
    "GAP_MIN",
    "FourierShape",
    "StarPair",
    "Mesh",
    "ScalarField",
    "SolveResult",
    "GeometryError",
    "MeshMismatchError",
    "ConvergenceError",
    "solve_state",
    "energy_of",
    "dump_field",
    "load_field",
]

GAP_MIN = 1e-3
# Number of uniform angles at which a pair's positivity and gap are checked.
_CHECK_N = 1024
# Default absolute tolerance on the state solver's residual, and default
# budget of Newton steps.
_SOLVE_TOL = 1e-9
_MAX_ITERS = 20000
# Rounding floor of the state solver's residual, per unit of the largest
# Dirichlet stiffness; the relative size of a rounding-level energy change;
# and the Armijo constant.
_FLOOR = 2.0 * np.finfo(float).eps
_ROUNDING = 1e3 * np.finfo(float).eps
_ARMIJO = 1e-4
# Distance within which an outer start value is set to a law breakpoint, 0
# and 1 among them.
_SNAP = 1e-12


class GeometryError(ValueError):
    """The shape pair is not a valid nested star-shaped configuration."""


class MeshMismatchError(ValueError):
    """A field was evaluated against a pair or mesh it does not belong to."""


class ConvergenceError(RuntimeError):
    """The state solver exhausted its iteration budget."""


def _area_from_coeffs(c: np.ndarray) -> float:
    """Area pi (a0^2 + (a1^2 + b1^2 + a2^2 + ...)/2) enclosed by the radius
    function with flat coefficients c (Parseval)."""
    return math.pi * (c[0] ** 2 + 0.5 * float(np.sum(c[1:] ** 2)))


def _fourier_basis(theta: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Columns (1, cos t, sin t, cos 2t, sin 2t, ...) sampled at theta, along
    a new last axis, and their theta-derivatives: r = basis @ coeffs,
    r' = deriv @ coeffs."""
    k = np.arange(1, order + 1)
    kt = theta[..., None] * k
    basis = np.zeros(theta.shape + (2 * order + 1,))
    deriv = np.zeros_like(basis)
    basis[..., 0] = 1.0
    basis[..., 1::2] = np.cos(kt)
    basis[..., 2::2] = np.sin(kt)
    deriv[..., 1::2] = -k * basis[..., 2::2]
    deriv[..., 2::2] = k * basis[..., 1::2]
    return basis, deriv


@functools.lru_cache(maxsize=64)
def _uniform_basis(n: int, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """`_fourier_basis` on the n uniform angles 2 pi j / n, built once per
    (n, order) and read-only."""
    bases = _fourier_basis(np.arange(n) * (2.0 * math.pi / n), order)
    for b in bases:
        b.setflags(write=False)
    return bases


def _next(a: np.ndarray) -> np.ndarray:
    """a at the next angle, periodically: np.roll(a, -1, axis=-1), faster."""
    return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)


def _prev(a: np.ndarray) -> np.ndarray:
    """a at the previous angle, periodically: np.roll(a, 1, axis=-1), faster."""
    return np.concatenate((a[..., -1:], a[..., :-1]), axis=-1)


@dataclass(frozen=True)
class FourierShape:
    """Star-shaped boundary r(theta) = a0 + sum_k (a_k cos k theta + b_k sin k theta).

    Coefficients are stored flat as (a0, a1, b1, a2, b2, ...).
    """

    coeffs: Tuple[float, ...]
    _arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, coeffs: Sequence[float]):
        flat = tuple(_require_finite("Fourier coefficient", c) for c in coeffs)
        if len(flat) % 2 == 0:
            raise ValueError("coefficient vector must have odd length (a0, a1, b1, ...)")
        object.__setattr__(self, "coeffs", flat)
        object.__setattr__(self, "_arr", np.array(flat))

    @classmethod
    def circle(cls, radius: float, order: int = 0) -> "FourierShape":
        _require_count("order", order, 0)
        return cls([radius] + [0.0] * (2 * order))

    @property
    def order(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def with_order(self, order: int) -> "FourierShape":
        """Pad or truncate the coefficient vector to the given order."""
        _require_count("order", order, 0)
        out = np.zeros(2 * order + 1)
        take = min(len(self.coeffs), out.size)
        out[:take] = self._arr[:take]
        return FourierShape(out)

    def _jet(self, bases: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """r and r' from a basis of this shape's order and its derivative
        (`_fourier_basis`); reductions, not matrix products (see
        `Assembly.shape_gradient`)."""
        basis, deriv = bases
        return np.sum(basis * self._arr, axis=-1), np.sum(deriv * self._arr, axis=-1)

    def radius(self, theta: np.ndarray) -> np.ndarray:
        return self._jet(_fourier_basis(np.asarray(theta, dtype=float), self.order))[0]

    def radius_deriv(self, theta: np.ndarray) -> np.ndarray:
        return self._jet(_fourier_basis(np.asarray(theta, dtype=float), self.order))[1]

    def area(self) -> float:
        """Enclosed area (1/2) int r^2 dtheta in closed form."""
        return _area_from_coeffs(self._arr)

    def scaled(self, t: float) -> "FourierShape":
        return FourierShape(self._arr * t)

    def rotated(self, angle: float) -> "FourierShape":
        k = np.arange(1, self.order + 1)
        cos, sin = np.cos(k * angle), np.sin(k * angle)
        a, b = self._arr[1::2], self._arr[2::2]
        out = self._arr.copy()
        out[1::2] = a * cos + b * sin
        out[2::2] = b * cos - a * sin
        return FourierShape(out)


@dataclass(frozen=True)
class StarPair:
    """Nested star-shaped pair: inner boundary of K, outer boundary of Omega."""

    inner: FourierShape
    outer: FourierShape
    _gap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # One basis of the larger order serves both shapes: a shape of lower
        # order reads its leading columns, the same sums as `radius`.
        basis = _uniform_basis(_CHECK_N, max(self.inner.order, self.outer.order))[0]
        rk, ro = (
            np.sum(basis[:, : shape._arr.size] * shape._arr, axis=-1)
            for shape in (self.inner, self.outer)
        )
        gap = float(np.min(ro - rk))
        if np.min(rk) <= 0.0:
            raise GeometryError("inner radius must be positive")
        if gap < GAP_MIN * (1.0 - 1e-9):
            raise GeometryError(
                f"pair violates the minimum gap {GAP_MIN}: min separation {gap:.3e}"
            )
        object.__setattr__(self, "_gap", gap)

    @classmethod
    def circles(cls, r_inner: float, r_outer: float, order: int = 0) -> "StarPair":
        return cls(FourierShape.circle(r_inner, order), FourierShape.circle(r_outer, order))

    @property
    def gap(self) -> float:
        """Minimum separation r_O - r_K over the construction-time check grid."""
        return self._gap

    def rotated(self, angle: float) -> "StarPair":
        return StarPair(self.inner.rotated(angle), self.outer.rotated(angle))


@dataclass(frozen=True)
class Mesh:
    """Structured polar mesh resolution: n_s radial node rows (inner row on
    the boundary of K, last row on the boundary of Omega) by n_theta
    periodic angular nodes."""

    n_s: int = 64
    n_theta: int = 256

    def __post_init__(self) -> None:
        _require_count("n_s", self.n_s, 3)
        _require_count("n_theta", self.n_theta, 8)


@dataclass(frozen=True)
class ScalarField:
    """Nodal temperature values on the annulus mesh of a pair."""

    values: np.ndarray
    mesh: Mesh
    pair: StarPair

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.mesh.n_s, self.mesh.n_theta):
            raise MeshMismatchError(
                f"field shape {self.values.shape} does not match mesh "
                f"({self.mesh.n_s}, {self.mesh.n_theta})"
            )


@dataclass(frozen=True)
class SolveResult:
    """A solved state; `residual` is `Assembly.residual` at the field."""

    field: ScalarField
    energy: EnergyBreakdown
    iterations: int
    residual: float


class Assembly:
    """Precomputed geometry and the discrete energy for one (pair, mesh):
    one Dirichlet stencil (`dirichlet`), the boundary term (`_boundary`),
    the energy's one-sided slopes and their residual (`residual`), and the
    shape gradient."""

    def __init__(self, pair: StarPair, mesh: Mesh):
        self.pair = pair
        self.mesh = mesh
        n_s, n_t = mesh.n_s, mesh.n_theta
        self.ds = 1.0 / (n_s - 1)
        self.dt = 2.0 * math.pi / n_t
        theta = np.arange(n_t) * self.dt
        self.theta = theta
        rk, rkp = pair.inner._jet(_uniform_basis(n_t, pair.inner.order))
        ro, rop = pair.outer._jet(_uniform_basis(n_t, pair.outer.order))
        # Per angle: the radii and their logs' theta-derivatives r'/r.
        self._rk, self._ro = rk, ro
        self._lkp, self._lop = rkp / rk, rop / ro
        s = np.linspace(0.0, 1.0, n_s)[:, None]
        self.s = s[:, 0]
        # The log-polar map: log rho = (1-s) log r_K + s log r_O.
        self.rho = rk ** (1.0 - s) * ro**s
        self.L = np.log(ro / rk)
        a = self._slope()
        # The stencil's weights with the grid steps folded in: the edge
        # stiffnesses pe = 4 (P_i + P_i+1)/ds^2 and ce = 2 mu (C_j + C_j+1)/dt^2
        # and the cross weight q = Q/(ds dt), with P, C and Q the node
        # weights of `shape_gradient`.
        kp = (1.0 + a * a) / self.L
        mu = np.full(n_s, 2.0)
        mu[0] = mu[-1] = 1.0
        self._mu = mu
        self._pe = (self.dt / self.ds) * (kp[:-1] + kp[1:])
        self._ce = np.outer(mu, (0.5 * self.ds / self.dt) * (self.L + _next(self.L)))
        self._q = -0.5 * a
        # Outer boundary arclength weights for the dissipation integral.
        self.bw = np.sqrt(ro**2 + rop**2) * self.dt
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def _slope(self) -> np.ndarray:
        """a = (1-s) r_K'/r_K + s r_O'/r_O at every node: the log-polar map's
        d log(rho)/d theta."""
        return self._lkp + self.s[:, None] * (self._lop - self._lkp)

    # -- Dirichlet term ----------------------------------------------------

    def _edges(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Radial and angular edge differences DS, DT of u and their sums
        V, W over the two angular and the two radial edges at each node."""
        DS = np.diff(u, axis=0)
        DT = _next(u)
        DT -= u
        V = _prev(DT)
        V += DT
        W = np.empty_like(u)
        W[0], W[-1] = DS[0], DS[-1]
        np.add(DS[:-1], DS[1:], out=W[1:-1])
        return DS, DT, V, W

    def _stencil(self, u: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Edge differences DS, DT of u, the fluxes FS, FT (the Dirichlet
        energy's partials in DS and DT) and their divergence, the energy's
        gradient.  In place where it can be: at 64x256 every new array
        costs page faults."""
        DS, DT, V, W = self._edges(u)
        V *= self._q
        W *= self._q
        FS = self._pe * DS
        FS += V[:-1]
        FS += V[1:]
        FT = self._ce * DT
        FT += W
        FT += _next(W)
        grad = _prev(FT)
        grad -= FT
        grad[1:] += FS
        grad[:-1] -= FS
        return DS, DT, FS, FT, grad

    def dirichlet(self, u: np.ndarray) -> Tuple[float, np.ndarray]:
        """Dirichlet energy of u and its nodal gradient.  The energy is
        (DS.FS + DT.FT)/2 (`_stencil`): exactly 0 on a constant field,
        unlike <u, grad>/2 on a nearly constant one."""
        DS, DT, FS, FT, grad = self._stencil(u)
        DS *= FS
        DT *= FT
        return 0.5 * (float(np.sum(DS)) + float(np.sum(DT))), grad

    def dirichlet_grad(self, u: np.ndarray) -> np.ndarray:
        """Gradient of the Dirichlet energy, `dirichlet(u)[1]`, without the
        energy's reductions."""
        return self._stencil(u)[-1]

    # -- boundary term -----------------------------------------------------

    def _boundary(self, u: np.ndarray, law: DissipationLaw) -> float:
        """Boundary energy: the arclength-weighted law on the outer row."""
        return float(np.sum(self.bw * law.value(u[-1])))

    def _one_sided(
        self, u: np.ndarray, g: np.ndarray, law: DissipationLaw
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The energy's one-sided partial derivatives at every node of u,
        down = g + bw theta'(u-) and up = g + bw theta'(u+) (g is the
        Dirichlet gradient, the law term is on the outer row only), and the
        outer row's law curvature.  The box [0, 1] counts as an infinite
        slope outside it: down is -inf where u = 0, up is +inf where u = 1."""
        left, right, bend = law.jet(u[-1])
        down, up = g.copy(), g.copy()
        down[-1] += self.bw * left
        up[-1] += self.bw * right
        down[u <= 0.0] = -np.inf
        up[u >= 1.0] = np.inf
        return down, up, bend

    def residual(self, u: np.ndarray, law: DissipationLaw) -> float:
        """Largest first-order energy decrease per unit move of any one node
        of u: moving down counts where u > 0 and the energy's slope
        g + bw theta'(u-) is positive, moving up where u < 1 and
        g + bw theta'(u+) is negative (g is the Dirichlet gradient, the law
        term is on the outer row only); the inner row is pinned.  It is 0
        exactly at a first-order stationary point.

        `perfbench/workloads.stationarity_residual` checks the same
        condition with two differences: at a cusp this uses the exact
        infinite slope where the benchmark uses a 1e-7 secant, and at a
        concave kink this counts both directions of descent.  `solve_state`
        stops on this value."""
        down, up, _ = self._one_sided(u, self.dirichlet(u)[1], law)
        return _largest_descent(down, up)

    # -- shape sensitivity -------------------------------------------------

    def shape_gradient(self, u: np.ndarray, law: DissipationLaw) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient of the energy `breakdown(u, law).total` with respect to the
        Fourier coefficients of the inner and of the outer boundary, at
        fixed nodal values u.

        With c = ds dtheta, L = log(r_O/r_K) and
        a = (1-s) r_K'/r_K + s r_O'/r_O, the node weights are
        P = c/4 (1 + a^2)/L, Q = -c/2 a, C = c/4 L and
        bw = sqrt(r_O^2 + r_O'^2) dtheta, and the energy is linear in them.
        Their coefficients are chained through (L, a) and summed over the
        rows, giving one sensitivity per angle to each of r_K, r_K', r_O
        and r_O'; the cos/sin basis and its derivative map these onto the
        coefficients.

        The admissible set ([0, 1] with the inner row pinned at 1) does not
        depend on the shape, so at the solved field this is the gradient
        of the solved energy (envelope theorem).
        """
        s = self.s[:, None]
        L = self.L
        a = self._slope()
        # c times the squares and products of the edge slopes.
        DS, DT, V, W = self._edges(u)
        DS2 = (self.dt / self.ds) * DS * DS
        EP = np.zeros_like(u)
        EP[:-1] += 2.0 * DS2
        EP[1:] += 2.0 * DS2
        DT2 = (self.ds / self.dt) * DT * DT
        EC = self._mu[:, None] * (DT2 + _prev(DT2))
        EQ = W * V
        # Partial derivatives of the energy in L and a at every node.
        e_L = 0.25 * (EC - EP * (1.0 + a * a) / (L * L))
        e_a = 0.5 * (EP * a / L - EQ)
        # Sums over the rows; reductions rather than matrix products, which
        # would map the BLAS work buffers into every optimizing process.
        a_out = np.sum(s * e_a, axis=0)
        a_in = np.sum(e_a, axis=0) - a_out
        l_sum = np.sum(e_L, axis=0)
        rk, ro = self._rk, self._ro
        # The law term's partials in r_O and r_O' are eb r_O and eb r_O'.
        eb = np.asarray(law.value(u[-1])) * self.dt**2 / self.bw
        sensitivities = (
            (self.pair.inner, -(l_sum + a_in * self._lkp) / rk, a_in / rk),
            (
                self.pair.outer,
                (l_sum - a_out * self._lop) / ro + eb * ro,
                a_out / ro + eb * ro * self._lop,
            ),
        )
        grads = []
        for shape, d_r, d_rp in sensitivities:
            basis, deriv = _uniform_basis(self.mesh.n_theta, shape.order)
            grads.append(np.sum(d_r[:, None] * basis + d_rp[:, None] * deriv, axis=0))
        return grads[0], grads[1]

    def breakdown(
        self, u: np.ndarray, law: DissipationLaw, parts: Optional[Tuple[float, float]] = None
    ) -> EnergyBreakdown:
        """The energy of u; `parts`, its Dirichlet and boundary terms if known."""
        dirichlet, boundary = parts or (self.dirichlet(u)[0], self._boundary(u, law))
        trace = float(np.sum(self.bw * u[-1]) / np.sum(self.bw))
        return EnergyBreakdown(dirichlet=dirichlet, boundary=boundary, penalty=0.0, trace=trace)


@functools.lru_cache(maxsize=1)
def _assembly(pair: StarPair, mesh: Mesh) -> Assembly:
    """The `Assembly` of (pair, mesh), kept for the next call on an equal
    pair and mesh, so a caller reading a field just solved gets the assembly
    it was solved on.  Its arrays are read-only: the callers share them."""
    return Assembly(pair, mesh)


def _largest_descent(down: np.ndarray, up: np.ndarray) -> float:
    """`Assembly.residual` from the one-sided slopes of `Assembly._one_sided`."""
    return max(float(np.max(down[1:])), -float(np.min(up[1:])), 0.0)


def _scan_levels(c: np.ndarray) -> List[np.ndarray]:
    """Coefficients of the log-depth prefix scan (Kogge & Stone 1973) of
    y_i = f_i + c_i y_{i-1} along the first axis, c_0 = 0: level k adds them
    times y[:-s] to y[s:], s = 2^k, and row i's is then the product of c
    over the 2^(k+1) rows ending at i (`_ModeSolver.__call__`)."""
    levels, s = [], 1
    while s < len(c):
        levels.append(c[s:])
        c = np.concatenate((c[:s], c[s:] * c[:-s]))
        s *= 2
    return levels


class _ModeSolver:
    """Inverse of the theta-average of the Newton operator with Q dropped,
    the preconditioner of `solve_state`.  Averaged over theta the operator
    is circulant in theta, so in each rFFT mode k rows 1..n_s-1 form one
    symmetric tridiagonal system: couplings -pe_i, diagonal
    pe_{i-1} + pe_i + ce_i (2 - 2 cos(2 pi k / n_theta)) (no pe_i on the
    outer row), where pe = mean(_pe) and ce = mean(_ce) per row.  On
    concentric circles without a law term this is the exact inverse.
    Thomas' pivots and the coefficients of both sweeps, as scans
    (`_scan_levels`) over the rows below the outer one, are computed once per
    solve; the outer row, whose pivot holds the law's curvature, is one
    more update.  An infinite curvature holds the whole outer row: its
    unknown is 0, and rows 1..n_s-2 solve their Dirichlet system with the
    same pivots."""

    def __init__(self, asm: Assembly):
        n_t = asm.mesh.n_theta
        pe = np.mean(asm._pe, axis=1)
        ce = np.mean(asm._ce[1:], axis=1)
        wave = 2.0 - 2.0 * np.cos(2.0 * math.pi * np.arange(n_t // 2 + 1) / n_t)
        piv = (pe + np.append(pe[1:], 0.0))[:, None] + ce[:, None] * wave
        off = -pe[1:, None]
        for i in range(1, len(piv)):
            piv[i] -= off[i - 1] * (off[i - 1] / piv[i - 1])
        sup = off / piv[:-1]
        zero = np.zeros_like(piv[:1])
        self.piv, self.outer, self.off, self.sup = piv[:-1], piv[-1], off[-1], sup[-1]
        self.forward = _scan_levels(np.concatenate((zero, -off[:-1] / piv[1:-1])))
        # The backward sweep runs from the outer row down: its levels in row order.
        self.backward = [a[::-1].copy() for a in _scan_levels(np.concatenate((zero, -sup[-2::-1])))]
        self.last = self.outer

    def set_curvature(self, c: float) -> None:
        """Add c to the outer row's diagonal; c = inf holds the row at 0."""
        self.last = self.outer + c

    def __call__(self, r: np.ndarray) -> np.ndarray:
        x = np.fft.rfft(r[1:], axis=1)
        y = x[:-1]
        y /= self.piv
        for k, a in enumerate(self.forward):
            y[1 << k :] += a * y[: -(1 << k)]
        x[-1] = (x[-1] - self.off * y[-1]) / self.last
        y[-1] -= self.sup * x[-1]
        for k, a in enumerate(self.backward):
            y[: -(1 << k)] += a * y[1 << k :]
        z = np.zeros_like(r)
        z[1:] = np.fft.irfft(x, n=r.shape[1], axis=1)
        return z


def _radial_start(asm: Assembly, law: DissipationLaw) -> np.ndarray:
    """The harmonic profile 1 - (1 - l) s at every node, with l the trace of
    the best concentric shell (`radial._trace_min`, exact for a quadratic
    law) at kappa = L b: the pair's mean L = log(r_O/r_K) times its mean
    outer arclength per radian b."""
    l = _trace_min(law, np.array([np.mean(asm.L) * np.mean(asm.bw) / asm.dt]))[0]
    return np.repeat(1.0 - (1.0 - l) * asm.s[:, None], asm.mesh.n_theta, axis=1)


def solve_state(
    pair: StarPair,
    law: DissipationLaw,
    mesh: Optional[Mesh] = None,
    tol: float = _SOLVE_TOL,
    max_iters: int = _MAX_ITERS,
    u0: Optional[np.ndarray] = None,
) -> SolveResult:
    """Minimize the discrete insulation energy over admissible temperatures.

    Projected Newton (Bertsekas 1982) in its primal-dual active-set reading
    (Hintermueller, Ito & Kunisch 2002), on nodal values in [0, 1] with the
    inner row pinned at 1.  It starts from the harmonic profile of the best
    concentric shell (`_radial_start`), or from a caller's warm start (an
    array or nested list) clipped to [0, 1] with its inner row set to 1.  In
    both, outer values within 1e-12 of a law breakpoint, 0 and 1 included,
    are set to it, and no other start value changes, so a start that a trace
    search put just beside a kink sits on it.  It reads the law only
    through `value`, `jet` and `breakpoints`, from which its `convex` and
    `quadratic` are derived:

    - A node on a clamp, or an outer node on a law breakpoint, is held where
      its one-sided derivatives (`Assembly._one_sided`) strictly bracket 0.
    - On the free nodes the Newton system is the Dirichlet Hessian plus the
      law's curvature (0 where not finite) on the outer row; it is solved by
      preconditioned CG (`_ModeSolver`, with the mean curvature clipped at
      0), which cuts the 2-norm of its residual by the factor min(0.1,
      sqrt(residual)), or stops at a direction p with p.Hp <= 0 and keeps
      its step, or p if it has none (Newton-CG).  A quadratic law
      (`DissipationLaw.quadratic`) makes that system the exact Newton model,
      and CG cuts it by min(0.1, 0.1 stop / residual) instead; so does a
      step at which no outer node is free, whose free nodes see only the
      Dirichlet quadratic.  As
      `residual` and `stop` are max-norms, that bounds the new residual by
      0.1 stop only up to a factor of at most the root of the free node
      count; on the tested pairs one step ends the solve unless the set of
      held nodes changes.  At a step where every outer node is held,
      the preconditioner holds the outer row too and solves the Dirichlet
      system of the rows below it.  A free node whose step points to a side
      where the energy rises does not move.
    - Each outer node stops at the first breakpoint it reaches and interior
      nodes are clipped to [0, 1].  Armijo backtracking guards the energy,
      and a step whose predicted decrease is at rounding level is taken as
      it is.
    - A convex law (`DissipationLaw.convex`) makes the energy convex, and
      the solve stops at its stationary point.  For a nonconvex law a full
      step is doubled while the energy falls if a free outer node's
      curvature is negative or not finite, since only then can the step
      fall short of detaching a node; and
      at a stationary point single-node moves of the outer row to every
      breakpoint and to the Dirichlet-only minimizer are tried with exact
      law values; the improving ones are applied all at once and Newton
      resumes, or the solve stops if together they do not lower the energy.

    It stops when `Assembly.residual` is at most `tol` (absolute), or at
    most the rounding floor of the gradient, 2 eps (max _pe + max _ce),
    where that is larger; `SolveResult.residual` reports the
    value.  `iterations` counts Newton steps; `ConvergenceError` is raised
    after `max_iters` of them, or when the energy is not finite or Armijo
    backtracking underflows.  For a convex law the minimizer is unique;
    for a nonconvex one the result is a local minimum.  A `tol` that is not
    finite and positive, a `max_iters` that is not an integer of at least 0
    or a non-finite `u0` raises a `ValueError` that names it.
    """
    if _require_finite("tol", tol) <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    _require_count("max_iters", max_iters, 0)
    asm = _assembly(pair, mesh or Mesh())
    n_s, n_t = asm.mesh.n_s, asm.mesh.n_theta
    if u0 is None:
        u = _radial_start(asm, law)
    else:
        u0 = np.asarray(u0, dtype=float)
        if u0.shape != (n_s, n_t):
            raise MeshMismatchError("warm start has the wrong shape")
        if not np.all(np.isfinite(u0)):
            raise ValueError("warm start u0 has a NaN or infinite value")
        u = np.clip(u0, 0.0, 1.0)
    breaks = law.breakpoints
    near = np.abs(u[-1, :, None] - breaks) < _SNAP
    if near.any():
        cols, k = np.nonzero(near)
        u[-1, cols] = breaks[k]
    u[0] = 1.0
    stop = max(tol, _FLOOR * (np.max(asm._pe) + np.max(asm._ce)))
    convex, quadratic = law.convex, law.quadratic
    # Diagonal of the Dirichlet Hessian on the outer row.
    diag = asm._pe[-1] + asm._ce[-1] + _prev(asm._ce[-1])
    precond = _ModeSolver(asm)

    def energy(v: np.ndarray) -> Tuple[float, np.ndarray, Tuple[float, float]]:
        """The energy of v, its Dirichlet gradient, and its two terms."""
        e_dir, grad = asm.dirichlet(v)
        e_bnd = asm._boundary(v, law)
        return e_dir + e_bnd, grad, (e_dir, e_bnd)

    e, g, parts = energy(u)
    steps = 0
    while True:
        if not math.isfinite(e):
            raise ConvergenceError(f"state solver reached a non-finite energy {e!r}")
        down, up, bend = asm._one_sided(u, g, law)
        residual = _largest_descent(down, up)
        rounding = _ROUNDING * abs(e)
        if residual <= stop:
            if convex:
                break
            # Escape test: the best single-node move of each outer node.
            ub, gb = u[-1], g[-1]
            cand = np.vstack([np.broadcast_to(breaks[:, None], (breaks.size, n_t)),
                              np.clip(ub - gb / diag, 0.0, 1.0)])
            move = cand - ub
            gain = gb * move + 0.5 * diag * move**2 + asm.bw * (law.value(cand) - law.value(ub))
            best = np.argmin(gain, axis=0)
            cols = np.arange(n_t)
            better = gain[best, cols] < -rounding
            v = u.copy()
            v[-1] = np.where(better, cand[best, cols], ub)
            e_v, g_v, p_v = energy(v)
            if not e_v < e - rounding:
                break
            u, e, g, parts = v, e_v, g_v, p_v
            continue
        if steps == max_iters:
            raise ConvergenceError(f"state solver did not reach residual {stop:.3g} in {max_iters} steps")
        steps += 1
        free = ~((down < 0.0) & (up > 0.0))
        free[0] = False
        # Each free node's slope on its steeper descending side, or 0.
        slope = np.where((up < 0.0) & (-up >= down), up, np.where(down > 0.0, down, 0.0))
        curv = asm.bw * np.where(np.isfinite(bend), bend, 0.0)
        held = not np.any(free[-1])
        precond.set_curvature(math.inf if held else max(float(np.mean(curv)), 0.0))
        mask = free.astype(float)
        # Preconditioned CG on the free nodes, from d = 0.  Squared norms are
        # reductions: np.linalg.norm calls BLAS, whose threads spin after it.
        d, p, rz = np.zeros_like(u), np.zeros_like(u), 1.0
        r = -slope * mask
        forcing = (0.1 * stop / residual) ** 2 if quadratic or held else residual
        target = min(0.01, forcing) * float(np.sum(r * r))
        for _ in range(r.size):
            if float(np.sum(r * r)) <= target:
                break
            z = precond(r) * mask
            rz, rz_old = float(np.sum(r * z)), rz
            p = z + (rz / rz_old) * p
            hp = asm.dirichlet_grad(p)
            hp[-1] += curv * p[-1]
            hp *= mask
            php = float(np.sum(p * hp))
            if php <= 0.0:  # Newton-CG: a descent direction either way
                d = d if d.any() else p
                break
            a = rz / php
            d += a * p
            r -= a * hp
        d[(down != up) & (((d < 0.0) & (down < 0.0)) | ((d > 0.0) & (up > 0.0)))] = 0.0
        ub = u[-1]
        hi = breaks[np.minimum(np.searchsorted(breaks, ub, "right"), breaks.size - 1)]
        lo = breaks[np.maximum(np.searchsorted(breaks, ub, "left") - 1, 0)]

        def trial(t: float) -> Tuple[np.ndarray, float]:
            """The projected point at step t and its predicted decrease."""
            v = np.clip(u + t * d, 0.0, 1.0)
            v[-1] = np.clip(ub + t * d[-1], lo, hi)
            move = v - u
            return v, -float(np.sum(np.where(move > 0.0, up, np.where(move < 0.0, down, 0.0)) * move))

        t = 1.0
        v, predicted = trial(t)
        e_v, g_v, p_v = energy(v)
        while not (predicted <= rounding or e_v <= e - _ARMIJO * predicted):
            t *= 0.5
            if t == 0.0:
                raise ConvergenceError("state solver's Armijo backtracking underflowed")
            v, predicted = trial(t)
            e_v, g_v, p_v = energy(v)
        if not convex and t == 1.0 and predicted > rounding and np.any(
            free[-1] & ~(np.isfinite(bend) & (bend >= 0.0))
        ):
            # Slow detachment: a free outer node's curvature is negative or not
            # finite, so the step can fall short of detaching it; double it while E falls.
            while True:
                t *= 2.0
                w = trial(t)[0]
                e_w, g_w, p_w = energy(w)
                if not e_w < e_v:
                    break
                v, e_v, g_v, p_v = w, e_w, g_w, p_w
        u, e, g, parts = v, e_v, g_v, p_v

    return SolveResult(
        field=ScalarField(values=u, mesh=asm.mesh, pair=pair),
        energy=asm.breakdown(u, law, parts),
        iterations=steps,
        residual=residual,
    )


def _require_same_pair(field: ScalarField, pair: StarPair) -> None:
    """The check of every function of a (field, pair): the field was built on
    the pair, and its values are finite."""
    if field.pair != pair:
        raise MeshMismatchError("field was built on a different pair")
    if not np.all(np.isfinite(field.values)):
        raise ValueError("field has a NaN or infinite value")


def energy_of(field: ScalarField, pair: StarPair, law: DissipationLaw) -> EnergyBreakdown:
    """Discrete energy of a given field, without optimizing.

    Uses the same assembly as the solver, so evaluating a solved field
    reproduces the reported energy exactly.
    """
    _require_same_pair(field, pair)
    return _assembly(pair, field.mesh).breakdown(field.values, law)


def _write_csv(path: str, rows: Iterable[Iterable[object]]) -> None:
    """Write rows as CSV, the one cell format of every file the package
    writes: a string as it is, a Python int in decimal, None as an empty
    cell, any other value as repr(float(v)); a newline ends every row."""

    def cell(v: object) -> str:
        if isinstance(v, str):
            return v
        if isinstance(v, int):
            return str(v)
        return "" if v is None else repr(float(v))

    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(",".join(cell(v) for v in row) + "\n")


def dump_field(field: ScalarField, path: str) -> None:
    """Write a field as CSV: one header line `n_s,n_theta,fourier_order,
    <inner coeffs>,<outer coeffs>` followed by the n_s grid rows."""
    pair = field.pair
    order = max(pair.inner.order, pair.outer.order)
    header = (
        field.mesh.n_s,
        field.mesh.n_theta,
        order,
        *pair.inner.with_order(order).coeffs,
        *pair.outer.with_order(order).coeffs,
    )
    _write_csv(path, [header, *field.values])


def load_field(path: str) -> ScalarField:
    """Read a field written by `dump_field`."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [ln for ln in handle.read().splitlines() if ln.strip()]
    head = lines[0].split(",")
    n_s, n_t, order = int(head[0]), int(head[1]), int(head[2])
    ncoef = 2 * order + 1
    coefs = [float(v) for v in head[3:]]
    if len(coefs) != 2 * ncoef:
        raise ValueError("field header has the wrong number of coefficients")
    pair = StarPair(FourierShape(coefs[:ncoef]), FourierShape(coefs[ncoef:]))
    if len(lines) - 1 != n_s:
        raise ValueError(f"field file holds {len(lines) - 1} value rows, its header announces {n_s}")
    values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return ScalarField(values=values, mesh=Mesh(n_s, n_t), pair=pair)
