"""Command-line interface: radial evaluations, regime reports, parameter
sweeps, annulus solves, shape optimization, and verification checks.

Structured single results are emitted as JSON on stdout; sweeps and
optimization traces are written as CSV for direct plotting.  Exit codes:
0 success, 1 verification failure, 2 invalid input, 3 solver
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import astuple, fields
from typing import Optional, Sequence

import numpy as np

from .annulus import (
    ConvergenceError,
    FourierShape,
    GeometryError,
    Mesh,
    ScalarField,
    StarPair,
    _SOLVE_TOL,
    _write_csv,
    dump_field,
    solve_state,
)
from .dissipation import (
    Convection,
    DissipationLaw,
    Radiation,
    _require_finite,
    law_from_json,
    unit_ball_volume,
)
from .levelset import (
    decompose_levels,
    h_inequality_check,
    levels_to_csv,
    nodal_gradient_ratio,
    truncation_scan,
)
from .optimize import (
    OptimizeOptions,
    optimize_constrained,
    optimize_penalized,
    trace_to_csv,
)
from .radial import (
    EnergyBreakdown,
    _best_radii,
    _radial_energies,
    classify_regime,
    convection_energy,
    general_radial_energy,
    perturbation_expansion,
    threshold_radius,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3

SWEEP_COLUMNS = ("value", "total", *(f.name for f in fields(EnergyBreakdown)))
# `solve --tol` and the `optimize` options default to the library's values.
_OPTIMIZE_DEFAULTS = OptimizeOptions()


def _parse_law(text: str) -> DissipationLaw:
    return law_from_json(json.loads(text))


def _json_object(text: str, what: str) -> dict:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {text!r}")
    return data


def _parse_pair(text: str) -> StarPair:
    data = _json_object(text, "pair")
    if not all(isinstance(data.get(key), list) for key in ("inner", "outer")):
        raise ValueError("pair needs the lists of Fourier coefficients 'inner' and 'outer'")
    return StarPair(FourierShape(data["inner"]), FourierShape(data["outer"]))


def _pair_json(pair: StarPair) -> dict:
    return {"inner": list(pair.inner.coeffs), "outer": list(pair.outer.coeffs)}


def _parse_mesh(text: Optional[str]) -> Mesh:
    if text is None:
        return Mesh()
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("mesh must be given as n_s,n_theta")
    return Mesh(int(parts[0]), int(parts[1]))


def _finite_float(text: str) -> float:
    return _require_finite("argument", float(text))


def _emit(data: dict) -> None:
    print(json.dumps(data))


def _cmd_radial(args: argparse.Namespace) -> int:
    law = _parse_law(args.law)
    breakdown = general_radial_energy(args.n, law, args.R, args.lam)
    _emit(breakdown.as_dict())
    return EXIT_OK


def _cmd_regime(args: argparse.Namespace) -> int:
    report = classify_regime(args.n, args.beta, args.rmax)
    _emit(report.as_dict())
    return EXIT_OK


def _spec_number(spec: dict, key: str, default: Optional[float] = None) -> float:
    value = spec[key] if default is None else spec.get(key, default)
    return _require_finite(f"sweep key {key!r}", value)


def _sweep_grid(spec: dict) -> np.ndarray:
    lo, hi = _spec_number(spec, "lo"), _spec_number(spec, "hi")
    count = int(_spec_number(spec, "count"))
    if not lo < hi or count < 2:
        raise ValueError("sweep range requires lo < hi and count >= 2")
    scale = spec.get("scale", "linear")
    if scale == "linear":
        return np.linspace(lo, hi, count)
    if scale == "log":
        if lo <= 0:
            raise ValueError("log sweeps need lo > 0")
        return np.geomspace(lo, hi, count)
    raise ValueError(f"unknown sweep scale {scale!r}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _json_object(args.spec, "sweep spec")
    grid = [float(v) for v in _sweep_grid(spec)]
    law_data = spec.get("law")
    law = law_from_json(law_data) if law_data else None
    n = int(_spec_number(spec, "n", 2))
    lam = [_spec_number(spec, "lambda", 0.0)] * len(grid)
    axis = spec["axis"]
    if axis in ("R", "lambda", "M") and law is None:
        raise ValueError(f"sweep over {axis} requires a law")
    if axis in ("beta", "gamma"):
        laws = [(Convection if axis == "beta" else Radiation)(v) for v in grid]
        energies = _radial_energies(n, laws, [_spec_number(spec, "R")] * len(grid), lam)
    elif axis == "R":
        energies = _radial_energies(n, law, grid, lam)
    elif axis == "lambda":
        energies = [b.energy for b in _best_radii(n, law, [math.inf] * len(grid), grid)]
    elif axis == "M":
        r_max = [(max(v, 0.0) / unit_ball_volume(n)) ** (1.0 / n) for v in grid]
        if min(r_max) < 1.0:
            raise ValueError("M below the inner ball volume")
        energies = [b.energy for b in _best_radii(n, law, r_max, lam)]
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    rows = [(v, e.total, *astuple(e)) for v, e in zip(grid, energies)]
    _write_csv(args.out, [SWEEP_COLUMNS, *rows])
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    pair = _parse_pair(args.pair)
    law = _parse_law(args.law)
    mesh = _parse_mesh(args.mesh)
    result = solve_state(pair, law, mesh, tol=args.tol)
    _emit(result.energy.as_dict())
    if args.out_field:
        dump_field(result.field, args.out_field)
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    law = _parse_law(args.law)
    init = _parse_pair(args.init)
    opts = OptimizeOptions(
        fourier_order=args.order,
        mesh=_parse_mesh(args.mesh) if args.mesh else _OPTIMIZE_DEFAULTS.mesh,
        max_outer_iters=args.max_iters,
    )
    if args.mode == "constrained":
        if args.M is None:
            raise ValueError("constrained mode requires --M")
        result = optimize_constrained(law, args.M, init, opts)
    else:
        if args.lam is None:
            raise ValueError("penalized mode requires --lambda")
        result = optimize_penalized(law, args.lam, init, opts)
    _emit(
        {
            "pair": _pair_json(result.pair),
            "energy": result.energy.as_dict(),
            "deficit": result.deficit,
            "collapsed": result.collapsed,
            "iterations": result.iterations,
        }
    )
    if args.trace:
        trace_to_csv(result, args.trace)
    return EXIT_OK


def _report(name: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return passed


def _verify_regimes(args: argparse.Namespace) -> bool:
    report = classify_regime(args.n, args.beta, args.rmax)
    radii = np.linspace(1.0, args.rmax, 2048)
    energies = [convection_energy(args.n, args.beta, float(r)).total for r in radii]
    scan_best = min(energies)
    ok = report.optimal_energy <= scan_best + 1e-6 * abs(scan_best)
    detail = (
        f"regime {report.regime}, optimal radius {report.optimal_radius:.6g}, "
        f"energy {report.optimal_energy:.9g}, scan minimum {scan_best:.9g}"
    )
    if report.threshold_radius is not None:
        thr = threshold_radius(args.n, args.beta)
        bare = args.beta * args.n * unit_ball_volume(args.n)
        resid = abs(convection_energy(args.n, args.beta, thr).total - bare) / bare
        ok = ok and resid < 1e-8
        detail += f", threshold {thr:.6g} (energy residual {resid:.2e})"
    return _report("regimes", ok, detail)


def _verify_h(args: argparse.Namespace) -> bool:
    outer = FourierShape([2.0, 0.0, 0.0, args.amplitude, 0.0])
    pair = StarPair(FourierShape.circle(1.0), outer)
    mesh = _parse_mesh(args.mesh) if args.mesh else Mesh(48, 192)
    solved = solve_state(pair, Convection(args.beta), mesh)
    rep = h_inequality_check(solved.field, pair, args.beta, args.levels)
    if args.out_levels:
        phi = nodal_gradient_ratio(solved.field, pair)
        dec = decompose_levels(solved.field, pair, args.levels, density=phi)
        levels_to_csv(dec, args.beta, args.out_levels)
    detail = (
        f"min_H {rep.min_H:.6g} vs energy {rep.energy:.6g}, "
        f"weighted integral {rep.weighted_integral:.3e}"
    )
    return _report("h", rep.passes, detail)


def _verify_truncation(args: argparse.Namespace) -> bool:
    law = Convection(1.0)
    pair = StarPair.circles(1.0, 2.0)
    mesh = _parse_mesh(args.mesh) if args.mesh else Mesh(48, 192)
    solved = solve_state(pair, law, mesh)
    rep_solved = truncation_scan(solved.field, pair, law, 64)
    ok1 = rep_solved.best_energy <= rep_solved.reference_energy + 1e-12
    values = np.ones((mesh.n_s, mesh.n_theta))
    values[mesh.n_s // 2 :, :] = 1e-3
    manual = ScalarField(values=values, mesh=mesh, pair=pair)
    rep_manual = truncation_scan(manual, pair, law, 64)
    ok2 = rep_manual.improved
    detail = (
        f"solved field: best {rep_solved.best_energy:.6g} <= reference "
        f"{rep_solved.reference_energy:.6g}; low-trace field improved by "
        f"{rep_manual.reference_energy - rep_manual.best_energy:.6g} at t={rep_manual.best_t:.3f}"
    )
    return _report("truncation", ok1 and ok2, detail)


def _verify_perturbation(args: argparse.Namespace) -> bool:
    law = _parse_law(args.law)
    per1 = args.n * unit_ball_volume(args.n)
    bare = law.value(1.0) * per1

    def slope(eps: float) -> float:
        pe = perturbation_expansion(args.n, law, eps)
        return (pe.energy_eps - bare) / eps

    coeff = perturbation_expansion(args.n, law, args.eps).first_order_coeff
    # Richardson extrapolation removes the O(eps) bias of the raw quotient.
    numeric = 2.0 * slope(args.eps / 2.0) - slope(args.eps)
    tol = 0.05 * abs(coeff) + 1e-6 * per1
    ok = abs(numeric - coeff) <= tol
    detail = (
        f"first-order coefficient {coeff:.6g}, "
        f"extrapolated numeric slope {numeric:.6g} at eps={args.eps:g}"
    )
    return _report("perturbation", ok, detail)


def _cmd_verify(args: argparse.Namespace) -> int:
    dispatch = {
        "regimes": _verify_regimes,
        "h": _verify_h,
        "truncation": _verify_truncation,
        "perturbation": _verify_perturbation,
    }
    passed = dispatch[args.check](args)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `run` only reads it."""
    parser = argparse.ArgumentParser(
        prog="thermoshield",
        description="Thermal-insulation energies, optimization, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radial", help="radial shell energy at fixed outer radius")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--law", required=True)
    p.add_argument("--R", type=_finite_float, required=True)
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=0.0)
    p.set_defaults(func=_cmd_radial)

    p = sub.add_parser("regime", help="convection regime classification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--rmax", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_regime)

    p = sub.add_parser("sweep", help="CSV sweep over beta, gamma, R, lambda, or M")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("solve", help="solve the annulus state for a pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--law", required=True)
    p.add_argument("--mesh", default=None)
    p.add_argument("--tol", type=_finite_float, default=_SOLVE_TOL,
                   help="absolute tolerance on the solve's residual (default %(default)g)")
    p.add_argument("--out-field", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("optimize", help="optimize the shape pair")
    p.add_argument("--mode", choices=("constrained", "penalized"), required=True)
    p.add_argument("--law", required=True)
    p.add_argument("--M", type=_finite_float, default=None)
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    p.add_argument("--init", required=True)
    p.add_argument("--order", type=int, default=_OPTIMIZE_DEFAULTS.fourier_order)
    p.add_argument("--mesh", default=None)
    p.add_argument("--max-iters", type=int, default=_OPTIMIZE_DEFAULTS.max_outer_iters)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="pass/fail verification checks")
    p.add_argument("check", choices=("h", "truncation", "perturbation", "regimes"))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument("--rmax", type=_finite_float, default=3.0)
    p.add_argument("--amplitude", type=_finite_float, default=0.1)
    p.add_argument("--levels", type=int, default=64)
    p.add_argument("--mesh", default=None)
    p.add_argument("--law", default='{"type":"radiation","gamma":1.0}')
    p.add_argument("--eps", type=_finite_float, default=1e-3)
    p.add_argument("--out-levels", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, KeyError, GeometryError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
