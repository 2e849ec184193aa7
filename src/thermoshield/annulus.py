"""Discrete state solver for nested star-shaped insulation pairs in 2D.

The inner body K and the insulated region Omega are both star-shaped about
the origin, described by truncated Fourier radius functions.  The annulus
between them maps onto the (s, theta) unit rectangle; the temperature is
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

from .dissipation import DissipationLaw, _require_finite
from .radial import EnergyBreakdown

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
    "scale_field",
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
_FLOOR = 4.0 * np.finfo(float).eps
_ROUNDING = 1e3 * np.finfo(float).eps
_ARMIJO = 1e-4


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
        return cls([radius] + [0.0] * (2 * order))

    @property
    def order(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def with_order(self, order: int) -> "FourierShape":
        """Pad or truncate the coefficient vector to the given order."""
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

    def scaled(self, t: float) -> "StarPair":
        return StarPair(self.inner.scaled(t), self.outer.scaled(t))

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
        if self.n_s < 3 or self.n_theta < 8:
            raise ValueError("mesh too coarse")


@dataclass(frozen=True)
class ScalarField:
    """Nodal temperature values on the annulus mesh of a pair."""

    values: np.ndarray
    mesh: Mesh
    pair: StarPair

    def __post_init__(self) -> None:
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
        self._rkp = rkp
        self._rop = rop
        g = ro - rk
        s = np.linspace(0.0, 1.0, n_s)[:, None]
        self.s = s[:, 0]
        rho = rk[None, :] + s * g[None, :]
        q = self._slope() / g[None, :]
        w = rho * g[None, :] * self.ds * self.dt
        self.rho = rho
        P = 0.25 * w * (1.0 / g[None, :] ** 2 + q**2 / rho**2)
        self.Q = -0.5 * w * q / rho**2
        C = 0.25 * w / rho**2
        mu = np.full(n_s, 2.0)
        mu[0] = mu[-1] = 1.0
        self._mu = mu
        self._Pe = 2.0 * (P[:-1] + P[1:])
        self._Ce = (C + _next(C)) * mu[:, None]
        # Outer boundary arclength weights for the dissipation integral.
        self.bw = np.sqrt(ro**2 + rop**2) * self.dt
        # Radial stretch r_O - r_K of the polar map, per angle.
        self.g = g
        self.outer_r = ro

    def _slope(self) -> np.ndarray:
        """a = (1-s) r_K' + s r_O' at every node: the polar map's d rho/d theta."""
        return self._rkp + self.s[:, None] * (self._rop - self._rkp)

    # -- Dirichlet term ----------------------------------------------------

    def _edges(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Radial and angular edge differences US, UT of u and their sums
        V, W over the two angular and the two radial edges at each node."""
        US = np.diff(u, axis=0) / self.ds
        UT = (_next(u) - u) / self.dt
        V = UT + _prev(UT)
        W = np.zeros_like(u)
        W[:-1] += US
        W[1:] += US
        return US, UT, V, W

    def dirichlet(self, u: np.ndarray) -> Tuple[float, np.ndarray]:
        """Dirichlet energy of u and its nodal gradient.  The fluxes FS, FT
        are the energy's partials in the edge differences, so the energy is
        (US.FS + UT.FT)/2: exactly 0 on a constant field, unlike <u, grad>/2
        on a nearly constant one.  The gradient is the fluxes' divergence."""
        US, UT, V, W = self._edges(u)
        FS = 2.0 * self._Pe * US + self.Q[:-1] * V[:-1] + self.Q[1:] * V[1:]
        QW = self.Q * W
        FT = 2.0 * self._Ce * UT + QW + _next(QW)
        energy = 0.5 * (float(np.sum(US * FS)) + float(np.sum(UT * FT)))
        grad = np.zeros_like(u)
        grad[1:] += FS / self.ds
        grad[:-1] -= FS / self.ds
        grad += (_prev(FT) - FT) / self.dt
        return energy, grad

    def dirichlet_grad(self, u: np.ndarray) -> np.ndarray:
        """Gradient of the Dirichlet energy: `dirichlet(u)[1]`."""
        return self.dirichlet(u)[1]

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

        With c = ds dtheta, rho = (1-s) r_K + s r_O, g = r_O - r_K and
        a = (1-s) r_K' + s r_O', the node weights are
        P = c/4 (rho/g + a^2/(g rho)), Q = -c/2 a/rho, C = c/4 g/rho and
        bw = sqrt(r_O^2 + r_O'^2) dtheta, and the energy is linear in them.
        Their coefficients are chained through (rho, g, a) and summed over
        the rows, giving one sensitivity per angle to each of r_K, r_K',
        r_O and r_O'; the cos/sin basis and its derivative map these onto
        the coefficients.

        The admissible set ([0, 1] with the inner row pinned at 1) does not
        depend on the shape, so at the solved field this is the gradient
        of the solved energy (envelope theorem).
        """
        c = self.ds * self.dt
        s = self.s[:, None]
        rho, g = self.rho, self.g[None, :]
        a = self._slope()
        US, UT, V, W = self._edges(u)
        US2 = US * US
        EP = np.zeros_like(u)
        EP[:-1] += 2.0 * US2
        EP[1:] += 2.0 * US2
        UT2 = UT * UT
        EC = self._mu[:, None] * (UT2 + _prev(UT2))
        EQ = W * V
        # Partial derivatives of the energy in rho, g and a at every node.
        inv = 1.0 / rho
        e_rho = c * (
            0.25 * EP * (1.0 / g - a * a * inv * inv / g)
            + 0.5 * EQ * a * inv * inv
            - 0.25 * EC * g * inv * inv
        )
        e_g = c * (-0.25 * EP * (rho / g + a * a * inv / g) / g + 0.25 * EC * inv)
        e_a = c * (0.5 * EP * a * inv / g - 0.5 * EQ * inv)
        # Sums over the rows; reductions rather than matrix products, which
        # would map the BLAS work buffers into every optimizing process.
        rho_out = np.sum(s * e_rho, axis=0)
        rho_in = np.sum(e_rho, axis=0) - rho_out
        a_out = np.sum(s * e_a, axis=0)
        a_in = np.sum(e_a, axis=0) - a_out
        g_sum = np.sum(e_g, axis=0)
        eb = np.asarray(law.value(u[-1])) * self.dt / np.sqrt(self.outer_r**2 + self._rop**2)
        sensitivities = (
            (self.pair.inner, rho_in - g_sum, a_in),
            (self.pair.outer, rho_out + g_sum + eb * self.outer_r, a_out + eb * self._rop),
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
    outer row), where pe = 2 mean(_Pe)/ds^2 and ce = 2 mean(_Ce)/dt^2 per
    row.  On concentric circles without a law term this is the exact
    inverse.  Thomas' pivots and the coefficients of both sweeps, as scans
    (`_scan_levels`) over the rows below the outer one, are computed once per
    assembly; the outer row, whose pivot holds the law's curvature, is one
    more update."""

    def __init__(self, asm: Assembly):
        n_t = asm.mesh.n_theta
        pe = 2.0 * np.mean(asm._Pe, axis=1) / asm.ds**2
        ce = 2.0 * np.mean(asm._Ce[1:], axis=1) / asm.dt**2
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
        """Add c to the outer row's diagonal."""
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
    inner row pinned at 1.  It starts from the constant 1 state, or from a
    caller's warm start with values below 1e-12 snapped to 0, and reads the
    law only through `value`, `jet`, `breakpoints` and `convex`:

    - A node on a clamp, or an outer node on a law breakpoint, is held where
      its one-sided derivatives (`Assembly._one_sided`) strictly bracket 0.
    - On the free nodes the Newton system is the Dirichlet Hessian plus the
      law's curvature, clipped at 0, on the outer row; it is solved by
      preconditioned CG (`_ModeSolver`) to the relative accuracy
      min(0.1, sqrt(residual)).  A free node whose step points to a side
      where the energy rises does not move.
    - Each outer node stops at the first breakpoint it reaches and interior
      nodes are clipped to [0, 1].  Armijo backtracking guards the energy,
      and a step whose predicted decrease is at rounding level is taken as
      it is.
    - A convex law (`DissipationLaw.convex`) makes the energy convex, and
      the solve stops at its stationary point.  For a nonconvex law a full
      step is doubled while the energy falls (a concave piece's curvature
      is clipped to 0, so the step can fall short of detaching a node), and
      at a stationary point single-node moves of the outer row to every
      breakpoint and to the Dirichlet-only minimizer are tried with exact
      law values; the improving ones are applied all at once and Newton
      resumes, or the solve stops if together they do not lower the energy.

    It stops when `Assembly.residual` is at most `tol` (absolute), or at
    most the rounding floor of the gradient, 4 eps (max _Pe/ds^2 +
    max _Ce/dt^2), where that is larger; `SolveResult.residual` reports the
    value.  `iterations` counts Newton steps; `ConvergenceError` is raised
    after `max_iters` of them.  For a convex law the minimizer is unique;
    for a nonconvex one the result is a local minimum.
    """
    return _solve(Assembly(pair, mesh or Mesh()), law, u0, tol, max_iters)


def _solve(
    asm: Assembly,
    law: DissipationLaw,
    u0: Optional[np.ndarray] = None,
    tol: float = _SOLVE_TOL,
    max_iters: int = _MAX_ITERS,
) -> SolveResult:
    """`solve_state` on the assembly of its pair and mesh, for a caller that
    keeps the assembly (the optimizer takes its shape gradient there)."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    pair, mesh = asm.pair, asm.mesh
    n_s, n_t = mesh.n_s, mesh.n_theta
    if u0 is None:
        u = np.ones((n_s, n_t))
    else:
        if u0.shape != (n_s, n_t):
            raise MeshMismatchError("warm start has the wrong shape")
        u = np.clip(u0, 0.0, 1.0)
        u[u < 1e-12] = 0.0
    u[0] = 1.0
    stop = max(tol, _FLOOR * (np.max(asm._Pe) / asm.ds**2 + np.max(asm._Ce) / asm.dt**2))
    breaks = law.breakpoints
    convex = law.convex
    # Diagonal of the Dirichlet Hessian on the outer row.
    diag = 2.0 * asm._Pe[-1] / asm.ds**2 + 2.0 * (asm._Ce[-1] + _prev(asm._Ce[-1])) / asm.dt**2
    precond = _ModeSolver(asm)

    def energy(v: np.ndarray) -> Tuple[float, np.ndarray, Tuple[float, float]]:
        """The energy of v, its Dirichlet gradient, and its two terms."""
        e_dir, grad = asm.dirichlet(v)
        e_bnd = asm._boundary(v, law)
        return e_dir + e_bnd, grad, (e_dir, e_bnd)

    e, g, parts = energy(u)
    steps = 0
    while True:
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
            if not np.any(better):
                break
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
        curv = asm.bw * np.where(np.isfinite(bend), np.maximum(bend, 0.0), 0.0)
        precond.set_curvature(float(np.mean(curv)))
        mask = free.astype(float)
        # Preconditioned CG on the free nodes, from d = 0.  Squared norms are
        # reductions: np.linalg.norm calls BLAS, whose threads spin after it.
        d, p, rz = np.zeros_like(u), np.zeros_like(u), 1.0
        r = -slope * mask
        target = min(0.01, residual) * float(np.sum(r * r))
        for _ in range(r.size):
            if float(np.sum(r * r)) <= target:
                break
            z = precond(r) * mask
            rz, rz_old = float(np.sum(r * z)), rz
            p = z + (rz / rz_old) * p
            hp = asm.dirichlet(p)[1]
            hp[-1] += curv * p[-1]
            hp *= mask
            a = rz / float(np.sum(p * hp))
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
            v[0] = 1.0
            move = v - u
            return v, -float(np.sum(np.where(move > 0.0, up, np.where(move < 0.0, down, 0.0)) * move))

        t = 1.0
        v, predicted = trial(t)
        e_v, g_v, p_v = energy(v)
        while not (predicted <= rounding or e_v <= e - _ARMIJO * predicted):
            t *= 0.5
            v, predicted = trial(t)
            e_v, g_v, p_v = energy(v)
        if not convex and t == 1.0 and predicted > rounding:
            # Slow detachment: double the full step while E falls.
            while True:
                t *= 2.0
                w = trial(t)[0]
                e_w, g_w, p_w = energy(w)
                if not e_w < e_v:
                    break
                v, e_v, g_v, p_v = w, e_w, g_w, p_w
        u, e, g, parts = v, e_v, g_v, p_v

    field_obj = ScalarField(values=u, mesh=mesh, pair=pair)
    return SolveResult(
        field=field_obj,
        energy=asm.breakdown(u, law, parts),
        iterations=steps,
        residual=residual,
    )


def _require_same_pair(field: ScalarField, pair: StarPair) -> None:
    if field.pair != pair:
        raise MeshMismatchError("field was built on a different pair")


def energy_of(field: ScalarField, pair: StarPair, law: DissipationLaw) -> EnergyBreakdown:
    """Discrete energy of a given field, without optimizing.

    Uses the same assembly as the solver, so evaluating a solved field
    reproduces the reported energy exactly.
    """
    _require_same_pair(field, pair)
    asm = Assembly(pair, field.mesh)
    return asm.breakdown(field.values, law)


def scale_field(field: ScalarField, pair: StarPair, t: float) -> Tuple[ScalarField, StarPair]:
    """Dilate the geometry by t keeping nodal values.

    In 2D the Dirichlet term is invariant under dilation and the boundary
    term scales linearly with t.  Raises GeometryError when the scaled pair
    violates the minimum gap.
    """
    if t <= 0.0:
        raise ValueError("scale factor must be positive")
    _require_same_pair(field, pair)
    new_pair = pair.scaled(t)
    new_field = ScalarField(values=field.values.copy(), mesh=field.mesh, pair=new_pair)
    return new_field, new_pair


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
    values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1 : n_s + 1]])
    return ScalarField(values=values, mesh=Mesh(n_s, n_t), pair=pair)
