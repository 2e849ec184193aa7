"""Benchmark of thermoshield: one workload, one seed, one run.

    python3 perfbench/run.py --workload radial-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from `src/`.  The
run repeats the workload for a fixed number of passes (one untraced/traced
pair with `--trace 1`), which fit in `--seconds` on the reference machine;
the run stops early only before a pass that would end past 1.5 times
`--seconds`.  Pass k draws its inputs from
(seed, k), so two commits run the same inputs.  Every operation is checked
after its pass, outside the timed region.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` every operation runs twice on the same inputs, untraced and
traced, and the line carries the per-layer metrics of the traced runs and
the tracing overhead.  The
line before it is a JSON summary with all six end-to-end metrics, failure
reasons and the environment; the same record goes to
`perfbench/_out/<workload>-seed<seed>-trace<t>.json`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SPANS = OUT / "spans-{workload}.npz"
SETUP_PROBES = 5
WARM_UP_S = 1.0
TRACED_PASSES = 1
OVERRUN = 1.5

E2E_UNITS = {"setup_s": "s", "cpu_s": "s", "op_p50_cpu_s": "s", "wall_s": "s",
             "op_p50_s": "s", "fail_frac": "1", "max_rel_err": "1", "peak_rss_mb": "MiB"}
# The metrics of the result line.  Times there are CPU times: on a shared
# virtual machine the hypervisor steals 10-36% of the wall time, which made
# one seed's wall time differ by 40% between two runs; stolen time is not
# charged to the process.  The per-operation medians fall between operation kinds whose
# cost depends on the inputs (spread 0.25 over five seeds on level-verify).
# They, the wall times, fail_frac (0 on whole workloads) and max_rel_err
# (rounding-sized) appear in the summary line only; the last two gate
# correctness through `failed` and `correct`.
E2E_BOUNDED = ("setup_s", "cpu_s", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Import the library and build the first pass: what setup_s times."""
    import thermoshield  # noqa: F401
    import workloads

    workloads.operations(workload, workloads.inputs(workload, seed, 0), str(OUT))


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(args):
    """Median (CPU, wall) seconds of fresh set-up processes."""
    cpus, walls = [], []
    for _ in range(SETUP_PROBES):
        c0, t0 = _children_cpu(), time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0"],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - t0)
        cpus.append(_children_cpu() - c0)
    return statistics.median(cpus), statistics.median(walls)


def warm_up() -> None:
    """Untimed library calls before the first pass, so that lazy set-up and
    the processor's start-up slowness fall outside the measurement."""
    from thermoshield import (Convection, Mesh, Radiation, StarPair, general_radial_energy,
                              solve_state)

    t0 = time.perf_counter()
    while time.perf_counter() - t0 < WARM_UP_S:
        solve_state(StarPair.circles(1.0, 2.0), Convection(1.0), Mesh(16, 64))
        general_radial_energy(2, Radiation(1.0), 2.0)


def git_sha():
    """HEAD of the checkout, or None outside a git repository.  The search
    stops at the checkout, so an enclosing repository is not reported."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    """The machine and versions.  The sweep pool's actual thread count is
    measured in traced runs, as `cli.sweep_threads`."""
    import numpy
    import scipy

    nproc = shutil.which("nproc")
    return {
        "git_sha": git_sha(),
        "nproc": int(subprocess.run([nproc], capture_output=True, text=True, check=True).stdout)
        if nproc else len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "THERMOSHIELD_THREADS": os.environ.get("THERMOSHIELD_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class Run:
    """Times and check results of one kind of pass (untraced or traced).

    Every failed operation counts in `failed`.  It also counts in `wrong`,
    which makes the run incorrect, unless it is the known kinked-law solver
    defect (see `workloads.Op.known_defect`) or it was skipped because the
    operation whose output it takes failed; that failure is counted itself."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.known_defects = 0
        self.op_walls = []
        self.op_cpus = []
        self.op_labels = []
        self.pass_walls = []
        self.pass_cpus = []
        self.max_rel_err = 0.0
        self.rel_err_by_reference = {}
        self.failures = {}

    def record(self, results) -> None:
        """Check the (op, output, error, (wall, cpu) seconds) results of one
        pass; a skipped operation has seconds None."""
        from thermoshield.annulus import ConvergenceError

        for op, output, error, seconds in results:
            self.attempted += 1
            if seconds is None:
                self.failed += 1
                self._reason(op, "skipped: its input operation failed")
                continue
            self.op_walls.append(seconds[0])
            self.op_cpus.append(seconds[1])
            self.op_labels.append(op.label)
            if error is not None:
                self._fail(op, op.known_defect and isinstance(error, ConvergenceError),
                           f"raised {type(error).__name__}: {error}")
                continue
            ok, gap, ref = op.check(output)
            self.max_rel_err = max(self.max_rel_err, gap)
            if ok:
                self.rel_err_by_reference[ref] = max(self.rel_err_by_reference.get(ref, 0.0), gap)
            else:
                self._fail(op, op.known_defect, ref)
        ran = [seconds for *_, seconds in results if seconds is not None]
        self.pass_walls.append(sum(wall for wall, _ in ran))
        self.pass_cpus.append(sum(cpu for _, cpu in ran))

    def _fail(self, op, known: bool, reason: str) -> None:
        self.failed += 1
        if known:
            self.known_defects += 1
        else:
            self.wrong += 1
        self._reason(op, reason)

    def _reason(self, op, reason: str) -> None:
        key = f"{op.label.split('#')[0].strip()}: {reason.splitlines()[0][:160]}"
        self.failures[key] = self.failures.get(key, 0) + 1


def execute(op, done: dict, tracer=None):
    """Run one operation; returns (output, error, (wall, cpu) seconds).  The
    CPU time is the whole process's, so it counts the sweep pool threads."""
    if tracer is not None:
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            output = op.run(done)
        else:
            with tracer.root("bench." + op.label.split()[0]):
                output = op.run(done)
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        output, error = None, exc
    seconds = (time.perf_counter() - t0, time.process_time() - c0)
    if tracer is not None:
        tracer.remove()
    return output, error, seconds


def run_pass(ops, untraced: Run, traced: Run = None, tracer=None) -> None:
    """Run one pass, then check it; a pass's wall and CPU times are the sums
    of its operations' times.  With a tracer, each operation runs twice on the same
    inputs, untraced and traced, in alternating order, so that drift in the
    machine's speed hits both alike."""
    done = {}
    results = {False: [], True: []}
    for i, op in enumerate(ops):
        if op.needs is not None and op.needs not in done:  # its input operation failed
            results[False].append((op, None, None, None))
            if tracer is not None:
                results[True].append((op, None, None, None))
            continue
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced_mode in modes:
            output, error, seconds = execute(op, done, tracer if traced_mode else None)
            if error is None:
                done[op.label] = output
            results[traced_mode].append((op, output, error, seconds))
    untraced.record(results[False])
    if tracer is not None:
        traced.record(results[True])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "thermoshield" / "__init__.py").is_file():
        print(f"perfbench: no thermoshield package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup_cpu, setup_wall = measure_setup(args)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        untraced, traced, tracer = run_passes(args, workloads, str(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    runs = [r for r in (untraced, traced) if r is not None]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    e2e = {
        "setup_s": setup_cpu,
        "cpu_s": statistics.median(untraced.pass_cpus),
        "op_p50_cpu_s": statistics.median(untraced.op_cpus),
        "wall_s": statistics.median(untraced.pass_walls),
        "op_p50_s": statistics.median(untraced.op_walls),
        "fail_frac": failed / attempted,
        "max_rel_err": max(r.max_rel_err for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    e2e = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(untraced.pass_walls), "op_samples": len(untraced.op_walls),
        "setup_wall_s": setup_wall,
        "attempted": attempted, "failed": failed,
        "known_defects": sum(r.known_defects for r in runs),
        "unexpected_failures": sum(r.wrong for r in runs), "end_to_end": e2e,
        "rel_err_by_reference": untraced.rel_err_by_reference,
        "failures": untraced.failures,
    }
    if tracer is None:
        metrics = {name: e2e[name] for name in E2E_BOUNDED}
    else:
        metrics = traced_metrics(args, untraced, traced, tracer)
        summary["per_layer"] = metrics
        summary["spans_file"] = str(SPANS.relative_to(ROOT)).format(workload=args.workload)
    summary["env"] = environment()
    samples = {"pass_walls": untraced.pass_walls, "pass_cpus": untraced.pass_cpus,
               "ops": list(zip(untraced.op_labels, untraced.op_walls, untraced.op_cpus))}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**summary, "samples": samples}, indent=1) + "\n")
    for key, count in sorted(untraced.failures.items()):
        print(f"failed x{count}: {key}")
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": all(r.wrong == 0 for r in runs), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_passes(args, workloads, scratch: str):
    """Run the workload's fixed number of passes, stopping early only if
    the next pass would end past 1.5 times `--seconds`: a commit much
    slower than the baseline still ends well within the time limit."""
    warm_up()
    untraced = Run()
    traced = tracer = None
    passes = workloads.PASSES[args.workload]
    if args.trace:
        import tracing

        traced, tracer, passes = Run(), tracing.Tracer(), TRACED_PASSES
    t_start = time.perf_counter()
    for k in range(passes):
        ops = workloads.operations(args.workload, workloads.inputs(args.workload, args.seed, k),
                                   scratch)
        run_pass(ops, untraced, traced, tracer)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / (k + 1) > OVERRUN * args.seconds:
            break
    return untraced, traced, tracer


def traced_metrics(args, untraced: Run, traced: Run, tracer) -> dict:
    import tracing

    layer = tracing.layer_metrics(tracer.arrays(), len(traced.pass_walls))
    # In CPU time, like cpu_s: in wall time the host's noise can exceed it.
    overhead = statistics.median(t - u for t, u in zip(traced.pass_cpus, untraced.pass_cpus))
    layer["trace.overhead_s"] = overhead
    layer["trace.overhead_frac"] = overhead / statistics.median(untraced.pass_cpus)
    tracer.write(str(SPANS).format(workload=args.workload))
    return {name: {"value": value, "unit": tracing.LAYER_UNITS[name]}
            for name, value in layer.items()}


if __name__ == "__main__":
    sys.exit(main())
