"""Seeded inputs, operations and correctness checks of the three workloads.

A workload is a list of operations run in order; one run of the benchmark
repeats it in passes.  `inputs(workload, seed, pass_index)` draws the inputs
of one pass as plain JSON data from `numpy.random.default_rng((seed,
pass_index))`, so the same seed gives the same inputs, pass by pass, and each
pass of a run sees fresh shapes and parameters.  The law *families* of each
workload are fixed; the seed draws shapes, modes, amplitudes, phases and law
parameters.

Operations go through `thermoshield.cli.run(argv)` where a CLI command
exists, and through the public library otherwise.  Every operation has a
check that runs after the pass, outside the timed region, against the
acceptance tolerances; the check returns (passed, relative gap, reference).
No check reuses the code path it checks: results are compared with closed
forms, a 1D oracle, a brute-force grid, a second quadrature, or the
first-order optimality condition of the discrete energy.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

WORKLOADS = ("radial-sweep", "shape-opt", "level-verify")

# Passes per run.  The count is fixed, so two commits always run the same
# inputs, whatever their speed.  Two passes take 16-29 s on a 2-vCPU
# machine, within a run's `--seconds` of 35.
PASSES = {"radial-sweep": 2, "shape-opt": 2, "level-verify": 2}

# One iteration budget for every level-verify solve.  Smooth and Power
# solves there converge in at most ~410 iterations.  Kinked tabulated solves
# mostly never converge (20 000 iterations, up to a minute, then
# ConvergenceError); this cap makes that failure cost a second or two.
LEVEL_VERIFY_MAX_ITERS = 1000

# Outer-iteration cap of every shape-opt optimization.  Past about 12
# iterations the optimizer only polishes energies already within 1e-4 of the
# reference, and the length of that tail varies from 15 to 33 iterations
# with the starting shape.  Uncapped, that made op_p50_s spread 0.29 over
# five seeds; capped, the solve count per pass varies by about 2%.
SHAPE_OPT_MAX_OUTER_ITERS = 12

# Bound on the max-norm projected subgradient of the discrete energy at a
# returned level-verify field.  Converged solves there sit at 1e-6 to 1e-5;
# the same solves stopped at tol = 1e-7 instead of 1e-10 sit at 1e-4 or more.
STATIONARITY_BOUND = 3e-5

Check = Tuple[bool, float, str]


@dataclass
class Op:
    label: str
    run: Callable[[Dict[str, Any]], Any]
    check: Callable[[Any], Check]
    needs: Optional[str] = None  # label of the op whose output `run` takes
    # A solve under the convex-kinked tabulated law: its ConvergenceError, or
    # a returned field that fails the stationarity check, is the known solver
    # defect.  It is counted in `failed` but does not make the run incorrect.
    known_defect: bool = False


# -- input generation ---------------------------------------------------------


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _perturbed_pair(rng, order: int, r_out: Tuple[float, float],
                    amp_in: Tuple[float, float], amp_out: Tuple[float, float]) -> dict:
    """Inner unit circle and outer circle, both perturbed in one mode with a
    random phase."""
    mode = int(rng.integers(2, min(order, 4) + 1))
    phase = _u(rng, 0.0, 2.0 * math.pi)
    inner = [1.0] + [0.0] * (2 * order)
    outer = [_u(rng, *r_out)] + [0.0] * (2 * order)
    for coeffs, amp in ((inner, _u(rng, *amp_in)), (outer, _u(rng, *amp_out))):
        coeffs[2 * mode - 1] = amp * math.cos(phase)
        coeffs[2 * mode] = amp * math.sin(phase)
    return {"inner": inner, "outer": outer}


def _kinked_law(rng) -> dict:
    """Convex piecewise-linear law with one kink: slopes s < (1 - k s)/(1 - k)."""
    k, s = _u(rng, 0.4, 0.6), _u(rng, 0.3, 0.6)
    return {"type": "tabulated", "knots": [[0.0, 0.0], [k, k * s], [1.0, 1.0]]}


def _laws(rng) -> Dict[str, dict]:
    return {
        "radiation": {"type": "radiation", "gamma": _u(rng, 0.8, 1.2)},
        "surface_cost": {"type": "surface_cost", "c1": _u(rng, 0.2, 0.4),
                         "c2": _u(rng, 0.8, 1.2), "alpha": _u(rng, 0.8, 1.2)},
        "power": {"type": "power", "c": _u(rng, 0.8, 1.2), "alpha": _u(rng, 0.4, 0.7)},
        "tabulated": _kinked_law(rng),
    }


def _radial_sweep_inputs(rng, pass_index: int) -> dict:
    """One 2-point sweep per law, alternating between the lambda and the M
    axis from law to law and from pass to pass, plus two cheap 32-point
    convection sweeps."""
    sweeps = []
    for k, law in enumerate(_laws(rng).values()):
        if (k + pass_index) % 2 == 0:
            lo = _u(rng, 0.05, 0.1)
            spec = {"axis": "lambda", "lo": lo, "hi": lo * _u(rng, 5.0, 10.0)}
        else:
            lo = _u(rng, 4.0, 6.0)
            spec = {"axis": "M", "lo": lo, "hi": lo * _u(rng, 4.0, 8.0)}
        sweeps.append({**spec, "count": 2, "scale": "log", "n": 2, "law": law})
    beta = _u(rng, 0.5, 2.0)
    sweeps.append({"axis": "R", "lo": 1.0, "hi": _u(rng, 3.0, 5.0), "count": 32,
                   "scale": "linear", "n": 2, "law": {"type": "convection", "beta": beta}})
    lo = _u(rng, 0.2, 0.5)
    sweeps.append({"axis": "beta", "lo": lo, "hi": lo * _u(rng, 4.0, 8.0), "count": 32,
                   "scale": "log", "n": 2, "R": _u(rng, 1.5, 3.0)})
    return {"sweeps": sweeps}


# (mode, law, problem parameter, Fourier order, outer radius range)
_SHAPE_VARIANTS = (
    ("constrained", {"type": "convection", "beta": 1.0}, 9.0 * math.pi, 4, (2.3, 2.7)),
    ("penalized", {"type": "convection", "beta": 1.0}, 0.1, 3, (2.0, 2.4)),
    ("penalized", {"type": "radiation", "gamma": 1.0}, 0.5, 2, (1.3, 1.6)),
    ("constrained", {"type": "convection", "beta": 0.5}, 4.0 * math.pi, 2, (1.6, 1.9)),
)


def _shape_opt_inputs(rng) -> dict:
    runs = []
    for mode, law, param, order, r_out in _SHAPE_VARIANTS:
        init = _perturbed_pair(rng, order, r_out, (0.02, 0.03), (0.08, 0.10))
        runs.append({"mode": mode, "law": law, "param": param, "order": order, "init": init})
    return {"runs": runs}


def _level_verify_inputs(rng) -> dict:
    laws = _laws(rng)
    solves = []
    for mesh in ([48, 192], [64, 256]):
        for name in ("surface_cost", "power", "tabulated"):
            law = dict(laws[name])
            if name == "power":
                law["alpha"] = 0.5
            pair = _perturbed_pair(rng, 4, (1.8, 2.2), (0.0, 0.04), (0.05, 0.15))
            solves.append({"law": law, "pair": pair, "mesh": mesh})
    checks = [{"beta": _u(rng, 0.5, 2.0), "amplitude": _u(rng, 0.05, 0.15), "mesh": mesh}
              for mesh in ([48, 192], [64, 256])]
    concentric = [{"beta": _u(rng, 0.5, 2.0), "R": _u(rng, 1.8, 2.2), "mesh": mesh}
                  for mesh in ([48, 192], [64, 256])]
    return {"solves": solves, "h_checks": checks, "concentric": concentric,
            "max_iters": LEVEL_VERIFY_MAX_ITERS}


def inputs(workload: str, seed: int, pass_index: int) -> dict:
    """JSON-serializable inputs of one pass."""
    rng = _rng(seed, pass_index)
    if workload == "radial-sweep":
        return _radial_sweep_inputs(rng, pass_index)
    if workload == "shape-opt":
        return _shape_opt_inputs(rng)
    if workload == "level-verify":
        return _level_verify_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


# -- operations -----------------------------------------------------------------


def run_cli(argv: List[str]) -> Tuple[int, str, str]:
    """One in-process CLI invocation with its output captured."""
    from thermoshield import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


def _radial_grid_min(law, R_max: float, lam: float) -> float:
    """Brute-force minimum of the 2D concentric-ball energy over a dense
    (R, trace) grid: an independent upper bound on the true minimum.  The
    grid is scanned 32 radii at a time so that its temporaries stay small
    next to the library's own arrays in the peak resident memory."""
    R_all = 1.0 + np.geomspace((R_max - 1.0) * 1e-6, R_max - 1.0, 1024)
    l = np.linspace(0.0, 1.0, 2049)[None, :]
    theta = np.asarray(law.value(l))
    best = 2.0 * math.pi * float(theta[0, -1])  # R = 1: no shell, trace 1
    for start in range(0, R_all.size, 32):
        R = R_all[start:start + 32, None]
        energy = (2.0 * math.pi / np.log(R)) * (1.0 - l) ** 2 + 2.0 * math.pi * R * theta \
            + lam * math.pi * (R**2 - 1.0)
        best = min(best, float(energy.min()))
    return best


def _sweep_r_max(law, spec: dict, value: float) -> Tuple[float, float]:
    """Outer-radius bracket and penalty weight of one lambda or M sweep row."""
    if spec["axis"] == "M":
        return math.sqrt(value / math.pi), 0.0
    bare = 2.0 * math.pi * float(law.value(1.0))
    hi = 2.0
    while value * math.pi * (hi**2 - 1.0) <= bare:
        hi *= 2.0
    return hi, value


def _check_sweep(spec: dict, path: str, output) -> Check:
    from thermoshield import convection_energy, law_from_json

    code, _, err = output
    if code != 0:
        return False, 0.0, f"exit code {code}: {err.strip()}"
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]
    if len(rows) != spec["count"]:
        return False, 0.0, f"{len(rows)} rows, expected {spec['count']}"
    worst, ref = 0.0, "closed_form"
    for row in rows:
        parts = row["dirichlet"] + row["boundary"] + row["penalty"]
        if abs(row["total"] - parts) > 1e-12 * abs(row["total"]) or not 0.0 <= row["trace"] <= 1.0:
            return False, 0.0, "row fails total = dirichlet + boundary + penalty or trace in [0, 1]"
        axis = spec["axis"]
        if axis in ("R", "beta"):
            beta = spec["law"]["beta"] if axis == "R" else row["value"]
            R = row["value"] if axis == "R" else spec["R"]
            gap = _rel(row["total"], convection_energy(2, beta, R).total)
            tol = 1e-8
        else:
            law = law_from_json(spec["law"])
            gap = _rel(row["total"], _radial_grid_min(law, *_sweep_r_max(law, spec, row["value"])))
            tol, ref = 1e-3, "radial_grid"
        if gap > tol:
            return False, gap, f"{axis}={row['value']:.6g}: gap {gap:.3e} > {tol:g} ({ref})"
        worst = max(worst, gap)
    return True, worst, ref


def _radial_sweep_ops(inp: dict, out_dir: str) -> List[Op]:
    ops = []
    for k, spec in enumerate(inp["sweeps"]):
        law_name = spec.get("law", {}).get("type", "convection")
        path = os.path.join(out_dir, f"sweep{k}.csv")
        argv = ["sweep", "--spec", json.dumps(spec), "--out", path]
        ops.append(Op(
            label=f"sweep {spec['axis']} {law_name}",
            run=lambda _, argv=argv: run_cli(argv),
            check=lambda output, spec=spec, path=path: _check_sweep(spec, path, output),
        ))
    return ops


@functools.lru_cache(maxsize=None)
def _best_radius_energy(law_json: str, lam: float) -> float:
    from thermoshield import best_radius, law_from_json

    return best_radius(2, law_from_json(json.loads(law_json)), math.inf, lam).energy.total


def _shape_oracle(run: dict) -> Tuple[float, float, str]:
    """(reference energy, tolerance, reference name) of one optimization."""
    from thermoshield import convection_energy

    law = run["law"]
    if run["mode"] == "penalized":
        oracle = _best_radius_energy(json.dumps(law, sort_keys=True), run["param"])
        return oracle, 0.02, "best_radius"
    # Under convection in 2D the best concentric pair within the budget is
    # either the full-budget ball or the bare ball (insulation collapse).
    ball = convection_energy(2, law["beta"], math.sqrt(run["param"] / math.pi)).total
    bare = 2.0 * math.pi * law["beta"]
    return min(ball, bare), 0.01, "closed_form"


def _check_optimize(run: dict, output) -> Check:
    code, out, err = output
    if code != 0:
        return False, 0.0, f"exit code {code}: {err.strip()}"
    result = json.loads(out)
    ref, tol, name = _shape_oracle(run)
    gap = _rel(result["energy"]["total"], ref)
    if gap > tol:
        return False, gap, f"energy gap {gap:.3e} > {tol:g} vs {name}"
    if run["mode"] == "constrained" and not result["collapsed"] and result["deficit"] >= 1e-2:
        return False, gap, f"deficit {result['deficit']:.3e} >= 1e-2"
    return True, gap, name


def _shape_opt_ops(inp: dict, out_dir: str) -> List[Op]:
    ops = []
    for run in inp["runs"]:
        flag = "--M" if run["mode"] == "constrained" else "--lambda"
        argv = ["optimize", "--mode", run["mode"], "--law", json.dumps(run["law"]),
                flag, repr(run["param"]), "--init", json.dumps(run["init"]),
                "--order", str(run["order"]), "--max-iters", str(SHAPE_OPT_MAX_OUTER_ITERS)]
        ops.append(Op(
            label=f"optimize {run['mode']} {run['law']['type']} {flag[2:]}={run['param']:.4g}",
            run=lambda _, argv=argv: run_cli(argv),
            check=lambda output, run=run: _check_optimize(run, output),
        ))
    return ops


def _solve(spec: dict, max_iters: int):
    from thermoshield import FourierShape, Mesh, StarPair, law_from_json, solve_state

    pair = StarPair(FourierShape(spec["pair"]["inner"]), FourierShape(spec["pair"]["outer"]))
    law = law_from_json(spec["law"])
    return pair, law, solve_state(pair, law, Mesh(*spec["mesh"]), max_iters=max_iters)


def stationarity_residual(pair, law, field, h: float = 1e-7) -> float:
    """Max-norm projected subgradient of the discrete energy at `field`.

    The Dirichlet gradient comes from `Assembly`; the boundary term uses
    one-sided difference quotients of the law, so at a kink of a convex law
    the whole interval between the two slopes counts as stationary.  A
    component is zero where the clamp to [0, 1] is active and the gradient
    pushes against it; the inner row is pinned.  This is the first-order
    optimality condition, so it does not depend on how the solver stopped."""
    from thermoshield.annulus import Assembly

    u = field.values
    asm = Assembly(pair, field.mesh)
    g = asm.dirichlet_grad(u)
    ub = u[-1]
    up, down = np.minimum(ub + h, 1.0), np.maximum(ub - h, 0.0)
    mid = np.asarray(law.value(ub))
    with np.errstate(divide="ignore", invalid="ignore"):
        right = np.where(up > ub, (np.asarray(law.value(up)) - mid) / (up - ub), np.inf)
        left = np.where(down < ub, (mid - np.asarray(law.value(down))) / (ub - down), -np.inf)
    lo = g[-1] + asm.bw * np.minimum(left, right)
    hi = g[-1] + asm.bw * np.maximum(left, right)
    g[-1] = np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))
    g[0] = 0.0
    g[(u <= 0.0) & (g > 0.0)] = 0.0
    g[(u >= 1.0) & (g < 0.0)] = 0.0
    return float(np.max(np.abs(g)))


def _check_solve(output) -> Check:
    pair, law, result = output
    residual = stationarity_residual(pair, law, result.field)
    if not residual <= STATIONARITY_BOUND:
        return False, 0.0, f"not stationary: residual {residual:.3e} > {STATIONARITY_BOUND:g}"
    return True, 0.0, "stationarity"


def _truncate(solved):
    import thermoshield

    pair, law, result = solved
    return thermoshield.truncation_scan(result.field, pair, law, 64), result.energy.total


def _check_truncation(output) -> Check:
    """The zero-threshold energy, integrated on triangles, against the
    solve's own finite-difference energy: two quadratures of one field."""
    report, solved = output
    gap = _rel(report.reference_energy, solved)
    if gap > 1e-3:
        return False, gap, f"reference energy differs from the solve by {gap:.3e} > 1e-3"
    return True, gap, "second_quadrature"


def _solve_concentric(spec: dict, max_iters: int):
    from thermoshield import Convection, Mesh, StarPair, solve_state

    pair = StarPair.circles(1.0, spec["R"])
    return solve_state(pair, Convection(spec["beta"]), Mesh(*spec["mesh"]), max_iters=max_iters)


def _check_concentric(spec: dict, result) -> Check:
    """Discretization gap of a concentric convection solve; it is 5e-6 to
    2e-5 at these meshes."""
    from thermoshield import convection_energy

    gap = _rel(result.energy.total, convection_energy(2, spec["beta"], spec["R"]).total)
    if gap > 1e-4:
        return False, gap, f"energy gap {gap:.3e} > 1e-4 vs convection_energy"
    return True, gap, "closed_form"


def _check_h(output) -> Check:
    code, out, err = output
    if code != 0:
        return False, 0.0, f"exit code {code}: {(out + err).strip()}"
    return True, 0.0, "verify_h"


def _level_verify_ops(inp: dict, out_dir: str) -> List[Op]:
    ops = []
    for k, spec in enumerate(inp["solves"]):
        label = f"solve {spec['law']['type']} {spec['mesh'][0]}x{spec['mesh'][1]} #{k}"
        ops.append(Op(label=label,
                      run=lambda _, spec=spec: _solve(spec, inp["max_iters"]),
                      check=_check_solve, known_defect=spec["law"]["type"] == "tabulated"))
        ops.append(Op(label=f"truncation_scan #{k}",
                      run=lambda done, label=label: _truncate(done[label]),
                      check=_check_truncation, needs=label))
    for spec in inp["concentric"]:
        ops.append(Op(label=f"solve convection concentric {spec['mesh'][0]}x{spec['mesh'][1]}",
                      run=lambda _, spec=spec: _solve_concentric(spec, inp["max_iters"]),
                      check=lambda result, spec=spec: _check_concentric(spec, result)))
    for spec in inp["h_checks"]:
        argv = ["verify", "h", "--beta", repr(spec["beta"]), "--amplitude",
                repr(spec["amplitude"]), "--mesh", f"{spec['mesh'][0]},{spec['mesh'][1]}"]
        ops.append(Op(label=f"verify h {spec['mesh'][0]}x{spec['mesh'][1]}",
                      run=lambda _, argv=argv: run_cli(argv), check=_check_h))
    return ops


def operations(workload: str, inp: dict, out_dir: str) -> List[Op]:
    builders = {"radial-sweep": _radial_sweep_ops, "shape-opt": _shape_opt_ops,
                "level-verify": _level_verify_ops}
    return builders[workload](inp, out_dir)
