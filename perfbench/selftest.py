"""Self-tests of the benchmark itself (not of thermoshield).

    python3 perfbench/selftest.py

Checks that a seed fixes the inputs, that traced self times add up to the
traced wall time, that the interval union behind self time is right, that
failures are counted and only the known kinked-law defect leaves a run
correct, that the stationarity check rejects a solve stopped early, and that
the benchmark refuses to run without the library sources.  Takes about
twenty seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _inputs_in_fresh_process(workload: str, seed: int) -> str:
    code = (f"import json, sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
            f"print(json.dumps([workloads.inputs({workload!r}, {seed}, k) for k in range(3)]))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60).stdout


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            first = _inputs_in_fresh_process(workload, 7)
            self.assertEqual(first, _inputs_in_fresh_process(workload, 7), workload)
            self.assertNotEqual(first, _inputs_in_fresh_process(workload, 8), workload)
            passes = json.loads(first)
            self.assertNotEqual(passes[0], passes[1], "passes should draw fresh inputs")


# A cheap slice of every workload, one layer entry point at least each.
PICKED_OPS = {
    "radial-sweep": ("sweep R", "sweep beta", "sweep lambda radiation"),
    "shape-opt": ("optimize penalized radiation",),
    "level-verify": ("solve surface_cost 48x192 #0", "truncation_scan #0", "verify h 48x192"),
}


class TraceTest(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(tracing._union_length([]), 0.0)
        self.assertAlmostEqual(tracing._union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertAlmostEqual(tracing._union_length([(0, 4), (1, 2)]), 4.0)

    def test_self_times_sum_to_traced_wall(self):
        """With one sweep thread nothing runs in parallel, so the self times
        of all spans partition the root spans, which cover the pass."""
        ops = []
        for workload, labels in PICKED_OPS.items():
            every = workloads.operations(workload, workloads.inputs(workload, 3, 0),
                                         str(bench.OUT))
            ops += [op for op in every if op.label.startswith(labels)]
        bench.OUT.mkdir(exist_ok=True)
        saved = os.environ.get("THERMOSHIELD_THREADS")
        os.environ["THERMOSHIELD_THREADS"] = "1"
        tracer = tracing.Tracer()
        try:
            untraced, traced = bench.Run(), bench.Run()
            bench.run_pass(ops, untraced, traced, tracer)
        finally:
            if saved is None:
                del os.environ["THERMOSHIELD_THREADS"]
            else:
                os.environ["THERMOSHIELD_THREADS"] = saved
        self.assertEqual(traced.wrong, 0, traced.failures)
        wall = traced.pass_walls[0]
        cols = tracer.arrays()
        roots = cols["parent"] < 0
        self.assertTrue(all(str(n).startswith("bench.") for n in cols["name"][roots]))
        root_total = float(cols["dur"][roots].sum())
        self.assertAlmostEqual(float(cols["self"].sum()), root_total, delta=1e-9 * root_total)
        self.assertLessEqual(root_total, wall)
        self.assertGreater(root_total, 0.99 * wall)
        self.assertTrue((cols["self"] >= -1e-9).all())
        layers = tracing.layer_metrics(cols, 1)
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_sum, root_total, delta=1e-9 * root_total)
        for key in ("radial.energy_calls", "annulus.solves", "optimize.runs",
                    "levelset.h_check_calls", "levelset.truncation_calls", "cli.commands"):
            self.assertGreater(layers[key], 0, key)
        self.assertEqual(layers["cli.sweep_threads"], 1.0)


class CheckTest(unittest.TestCase):
    def test_failures_are_counted_and_only_the_known_defect_is_tolerated(self):
        from thermoshield.annulus import ConvergenceError

        def raises(exc):
            def run(_):
                raise exc
            return run

        never = lambda _: (True, 0.0, "none")  # noqa: E731
        ops = [
            workloads.Op("kinked solve", raises(ConvergenceError("cap")), never,
                         known_defect=True),
            workloads.Op("scan of it", lambda done: None, never, needs="kinked solve"),
            workloads.Op("broken solve", raises(ValueError("bad")), never, known_defect=True),
            workloads.Op("wrong answer", lambda _: None, lambda _: (False, 0.5, "off")),
        ]
        run = bench.Run()
        bench.run_pass(ops, run)
        self.assertEqual((run.attempted, run.failed, run.known_defects, run.wrong), (4, 4, 1, 2))

    def test_stationarity_check_catches_a_loose_solve(self):
        from thermoshield import FourierShape, Mesh, StarPair, SurfaceCost, solve_state

        outer = FourierShape([2.0, 0.0, 0.0, 0.1, 0.0])
        pair = StarPair(FourierShape.circle(1.0, 2), outer)
        law = SurfaceCost(0.3, 1.0, 1.0)
        for tol, ok in ((1e-10, True), (1e-7, False)):
            result = solve_state(pair, law, Mesh(48, 192), tol=tol, max_iters=1000)
            self.assertEqual(workloads._check_solve((pair, law, result))[0], ok, tol)


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {name: bench.E2E_UNITS[name] for name in bench.E2E_BOUNDED})
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class EmptyCheckoutTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        empty = bench.OUT / "selftest-empty"
        shutil.rmtree(empty, ignore_errors=True)
        shutil.copytree(HERE, empty / HERE.name,
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", empty / "BENCHMARK.json")
        try:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "radial-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
            self.assertLess(time.perf_counter() - t0, 180)
        finally:
            shutil.rmtree(empty, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
