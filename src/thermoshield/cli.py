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
    _write_csv,
    dump_field,
    solve_state,
)
from .dissipation import (
    Convection,
    DissipationLaw,
    Radiation,
    _require_count,
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
    best_radius,
    classify_regime,
    convection_energy,
    general_radial_energy,
    perturbation_expansion,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3

SWEEP_COLUMNS = ("value", "total", *(f.name for f in fields(EnergyBreakdown)))
# The spec keys that a sweep over each axis reads.
_COMMON_KEYS = {"axis", "lo", "hi", "count", "scale", "n"}
_AXIS_KEYS = {"beta": {"R", "lambda"}, "gamma": {"R", "lambda"}, "R": {"law", "lambda"},
              "M": {"law", "lambda"}, "lambda": {"law"}}
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


def _spec_value(spec: dict, key: str) -> object:
    if key not in spec:
        raise ValueError(f"sweep spec is missing the key {key!r}")
    return spec[key]


def _spec_number(spec: dict, key: str, default: Optional[float] = None) -> float:
    value = _spec_value(spec, key) if default is None else spec.get(key, default)
    return _require_finite(f"sweep key {key!r}", value)


def _sweep_grid(spec: dict) -> np.ndarray:
    lo, hi = _spec_number(spec, "lo"), _spec_number(spec, "hi")
    count = _spec_value(spec, "count")
    _require_count("sweep key 'count'", count, 2)
    if not lo < hi:
        raise ValueError("sweep range requires lo < hi")
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
    axis = _spec_value(spec, "axis")
    if not isinstance(axis, str) or axis not in _AXIS_KEYS:
        raise ValueError(f"unknown sweep axis {axis!r}")
    for key in sorted(spec.keys() - _COMMON_KEYS - _AXIS_KEYS[axis]):
        raise ValueError(f"a sweep over {axis} reads no key {key!r}")
    grid = [float(v) for v in _sweep_grid(spec)]
    law = law_from_json(spec["law"]) if spec.get("law") else None
    n = spec.get("n", 2)
    _require_count("sweep key 'n'", n, 2)
    lam = _spec_number(spec, "lambda", 0.0)
    if "law" in _AXIS_KEYS[axis] and law is None:
        raise ValueError(f"sweep over {axis} requires a law")
    if axis in ("beta", "gamma"):
        laws = [(Convection if axis == "beta" else Radiation)(v) for v in grid]
        energies = general_radial_energy(n, laws, [_spec_number(spec, "R")] * len(grid), lam)
    elif axis == "R":
        energies = general_radial_energy(n, law, grid, lam)
    elif axis == "lambda":
        energies = [b.energy for b in best_radius(n, law, [math.inf] * len(grid), grid)]
    else:
        r_max = [(max(v, 0.0) / unit_ball_volume(n)) ** (1.0 / n) for v in grid]
        if min(r_max) < 1.0:
            raise ValueError("M below the inner ball volume")
        energies = [b.energy for b in best_radius(n, law, r_max, lam)]
    rows = [(v, e.total, *astuple(e)) for v, e in zip(grid, energies)]
    _write_csv(args.out, [SWEEP_COLUMNS, *rows])
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    pair = _parse_pair(args.pair)
    law = _parse_law(args.law)
    mesh = _parse_mesh(args.mesh)
    result = solve_state(pair, law, mesh)
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
        thr = report.threshold_radius
        bare = args.beta * args.n * unit_ball_volume(args.n)
        resid = abs(convection_energy(args.n, args.beta, thr).total - bare) / bare
        ok = ok and resid < 1e-8
        detail += f", threshold {thr:.6g} (energy residual {resid:.2e})"
    return _report("regimes", ok, detail)


def _verify_h(args: argparse.Namespace) -> bool:
    outer = FourierShape([2.0, 0.0, 0.0, args.amplitude, 0.0])
    pair = StarPair(FourierShape.circle(1.0), outer)
    solved = solve_state(pair, Convection(args.beta), _parse_mesh(args.mesh))
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
    mesh = _parse_mesh(args.mesh)
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
    p.set_defaults(func=_cmd_verify)
    # Each check is a sub-command that takes only the flags it reads.
    flags = {"--n": (int, 2), "--beta": (_finite_float, 1.0), "--rmax": (_finite_float, 3.0),
             "--amplitude": (_finite_float, 0.1), "--levels": (int, 64), "--mesh": (str, "48,192"),
             "--out-levels": (str, None), "--law": (str, '{"type":"radiation","gamma":1.0}'),
             "--eps": (_finite_float, 1e-3)}
    checks = p.add_subparsers(dest="check", required=True)
    for check, names in (("regimes", "--n --beta --rmax"), ("truncation", "--mesh"),
                         ("h", "--beta --amplitude --levels --mesh --out-levels"),
                         ("perturbation", "--n --law --eps")):
        c = checks.add_parser(check)
        for name in names.split():
            c.add_argument(name, type=flags[name][0], default=flags[name][1])

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
