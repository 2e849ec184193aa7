"""Discrete state solver for nested star-shaped insulation pairs in 2D.

The inner body K and the insulated region Omega are both star-shaped about
the origin, described by truncated Fourier radius functions.  The annulus
between them maps onto the (s, theta) unit rectangle; the temperature is
discretized on a structured grid there, the Dirichlet energy is assembled
with bilinear elements and corner (trapezoid) quadrature of the mapped
gradient, and the boundary dissipation uses the trapezoid rule with the
arclength weight.  One matrix-free stencil gives the Dirichlet energy and
gradient, one law call the boundary term's energy and difference quotients.
The state is the minimizer of this discrete energy over nodal values
clamped to [0, 1] with the inner row pinned to 1, found by a projected
nonlinear conjugate-gradient iteration that evaluates each trial point
once; for a quadratic law the iteration reduces to linear CG with exact
steps.

Contact between the two boundaries is excluded by a minimum gap: the
touching configuration is handled analytically by the radial formulas, and
admitting it here would require crack energies this discretization does not
represent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

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
# Angles at which a pair's positivity and gap are checked.
_CHECK_THETA = np.arange(1024) * (2.0 * math.pi / 1024)
# Steps of the boundary law's slope and second difference.
_SLOPE_STEP = 1e-7
_BEND_STEP = 1e-4


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

    def _jet(self, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """r(theta) and r'(theta) from one basis evaluation; reductions, not
        matrix products (see `Assembly.shape_gradient`)."""
        basis, deriv = _fourier_basis(np.asarray(theta, dtype=float), self.order)
        return np.sum(basis * self._arr, axis=-1), np.sum(deriv * self._arr, axis=-1)

    def radius(self, theta: np.ndarray) -> np.ndarray:
        return self._jet(theta)[0]

    def radius_deriv(self, theta: np.ndarray) -> np.ndarray:
        return self._jet(theta)[1]

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
        basis = _fourier_basis(_CHECK_THETA, max(self.inner.order, self.outer.order))[0]
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
    field: ScalarField
    energy: EnergyBreakdown
    iterations: int


class Assembly:
    """Precomputed geometry and the discrete energy for one (pair, mesh):
    one Dirichlet stencil (`dirichlet`), one law call for the boundary term
    (`_boundary`), both at once (`evaluate`), and the shape gradient."""

    def __init__(self, pair: StarPair, mesh: Mesh):
        self.pair = pair
        self.mesh = mesh
        n_s, n_t = mesh.n_s, mesh.n_theta
        self.ds = 1.0 / (n_s - 1)
        self.dt = 2.0 * math.pi / n_t
        theta = np.arange(n_t) * self.dt
        self.theta = theta
        rk, rkp = pair.inner._jet(theta)
        ro, rop = pair.outer._jet(theta)
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
        self._Ce = (C + np.roll(C, -1, axis=1)) * mu[:, None]
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
        UT = (np.roll(u, -1, axis=1) - u) / self.dt
        V = UT + np.roll(UT, 1, axis=1)
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
        FT = 2.0 * self._Ce * UT + QW + np.roll(QW, -1, axis=1)
        energy = 0.5 * (float(np.sum(US * FS)) + float(np.sum(UT * FT)))
        grad = np.zeros_like(u)
        grad[1:] += FS / self.ds
        grad[:-1] -= FS / self.ds
        grad += (np.roll(FT, 1, axis=1) - FT) / self.dt
        return energy, grad

    def dirichlet_grad(self, u: np.ndarray) -> np.ndarray:
        """Gradient of the Dirichlet energy: `dirichlet(u)[1]`."""
        return self.dirichlet(u)[1]

    # -- boundary term -----------------------------------------------------

    def _boundary(self, u: np.ndarray, law: DissipationLaw) -> Tuple[float, np.ndarray, np.ndarray]:
        """Boundary energy, its outer-row gradient (a slope clamped to
        [0, 1]) and the law's second difference there, from one law call."""
        ub = u[-1]
        hi = np.minimum(ub + _SLOPE_STEP, 1.0)
        lo = np.maximum(ub - _SLOPE_STEP, 0.0)
        b0 = np.clip(ub - _BEND_STEP, 0.0, 1.0 - 2 * _BEND_STEP)
        v = law.value(np.stack([ub, hi, lo, b0, b0 + _BEND_STEP, b0 + 2 * _BEND_STEP]))
        energy = float(np.sum(self.bw * v[0]))
        slope = self.bw * (v[1] - v[2]) / (hi - lo)
        bend = (v[5] - 2.0 * v[4] + v[3]) / _BEND_STEP**2
        return energy, slope, bend

    # -- total energy ------------------------------------------------------

    def evaluate(self, u: np.ndarray, law: DissipationLaw) -> Tuple[float, np.ndarray, np.ndarray]:
        """Energy at u, its gradient (zero on the pinned inner row) and the
        law's second difference on the outer row (see `_boundary`)."""
        e_dir, grad = self.dirichlet(u)
        e_bd, slope, bend = self._boundary(u, law)
        grad[-1] += slope
        grad[0] = 0.0
        return e_dir + e_bd, grad, bend

    # -- shape sensitivity -------------------------------------------------

    def shape_gradient(self, u: np.ndarray, law: DissipationLaw) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient of the energy `evaluate(u, law)[0]` with respect to the
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
        EC = self._mu[:, None] * (UT2 + np.roll(UT2, 1, axis=1))
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
            basis, deriv = _fourier_basis(self.theta, shape.order)
            grads.append(np.sum(d_r[:, None] * basis + d_rp[:, None] * deriv, axis=0))
        return grads[0], grads[1]

    def breakdown(self, u: np.ndarray, law: DissipationLaw) -> EnergyBreakdown:
        trace = float(np.sum(self.bw * u[-1]) / np.sum(self.bw))
        return EnergyBreakdown(
            dirichlet=self.dirichlet(u)[0],
            boundary=self._boundary(u, law)[0],
            penalty=0.0,
            trace=trace,
        )


def _project_gradient(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Zero, in place, the gradient components that push against an active
    clamp."""
    g[(u <= 0.0) & (g > 0.0)] = 0.0
    g[(u >= 1.0) & (g < 0.0)] = 0.0
    return g


def solve_state(
    pair: StarPair,
    law: DissipationLaw,
    mesh: Optional[Mesh] = None,
    tol: float = 1e-10,
    max_iters: int = 20000,
    u0: Optional[np.ndarray] = None,
) -> SolveResult:
    """Minimize the discrete insulation energy over admissible temperatures.

    Starts from the constant 1 state (or a caller-supplied warm start),
    iterates projected Polak-Ribiere conjugate gradients with steps sized by
    the exact quadratic curvature along the search direction plus an Armijo
    backtracking guard, and stops once the relative energy decrease falls
    below `tol` on consecutive iterations.  Clamping keeps nodal values in
    [0, 1]; the inner row stays pinned at 1.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    mesh = mesh or Mesh()
    asm = Assembly(pair, mesh)
    n_s, n_t = mesh.n_s, mesh.n_theta
    if u0 is None:
        u = np.ones((n_s, n_t))
    else:
        if u0.shape != (n_s, n_t):
            raise MeshMismatchError("warm start has the wrong shape")
        u = np.clip(u0, 0.0, 1.0).copy()
    u[0] = 1.0

    energy, g, bend = asm.evaluate(u, law)
    g = _project_gradient(g, u)
    d = -g
    gg = float(np.sum(g * g))
    stagnant = 0
    iterations = 0
    converged = gg == 0.0
    while not converged and iterations < max_iters:
        iterations += 1
        gd = float(np.sum(g * d))
        if gd >= 0.0:
            d = -g
            gd = -gg
            if gd == 0.0:
                converged = True
                break
        # d is zero on the pinned inner row, so <d, A d> needs no masking.
        curv = float(np.sum(d * asm.dirichlet(d)[1]))
        curv += float(np.sum(asm.bw * bend * d[-1] ** 2))
        if curv > 0.0:
            alpha = -gd / curv
        else:
            alpha = 0.25 / max(float(np.max(np.abs(d))), 1e-30)
        accepted = False
        for _ in range(60):
            u_new = np.clip(u + alpha * d, 0.0, 1.0)
            u_new[0] = 1.0
            e_new, g_new, bend_new = asm.evaluate(u_new, law)
            if e_new <= energy + 1e-4 * alpha * gd:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            if np.array_equal(d, -g):
                converged = True  # no descent along steepest direction
                break
            d = -g
            continue
        decrease = energy - e_new
        u, energy, bend = u_new, e_new, bend_new
        g_new = _project_gradient(g_new, u)
        gg_new = float(np.sum(g_new * g_new))
        beta = max(0.0, float(np.sum(g_new * (g_new - g))) / gg) if gg > 0 else 0.0
        d = -g_new + beta * d
        g, gg = g_new, gg_new
        if decrease <= tol * (abs(energy) + 1e-300):
            stagnant += 1
            if stagnant >= 2:
                converged = True
        else:
            stagnant = 0
    if not converged:
        raise ConvergenceError(
            f"state solver did not meet tol={tol} within {max_iters} iterations"
        )
    field_obj = ScalarField(values=u, mesh=mesh, pair=pair)
    return SolveResult(field=field_obj, energy=asm.breakdown(u, law), iterations=iterations)


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
