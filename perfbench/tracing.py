"""Span tracing of thermoshield's layers, applied from outside the library.

`Tracer.install()` replaces each public function of the layer modules with a
wrapper at every module binding that callers look up (a module that did
`from .radial import best_radius` holds its own binding, so each one is
patched), and wraps `DissipationLaw.value` and `Assembly.__init__` on their
classes.  `Tracer.remove()` restores the originals.

Each span records its name, start, end, parent span and thread, plus one
integer of layer-specific work (array points for a law evaluation, solver
iterations, optimizer outer iterations) and whether it raised.  Spans stay
in memory as tuples and are written out once at the end.

A span's parent is the innermost open span on its own thread.  A span opened
on a thread with no open span (a worker of the CLI sweep pool) takes the
innermost open span of the main thread as its parent, so the sweep that
caused it owns it.  Self time is a span's duration minus the union of the
intervals its child spans cover; children on other threads can overlap each
other, which is why the union is taken.
"""

from __future__ import annotations

import contextlib
import inspect
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Public entry points per layer.  The module names are the layers.
LAYER_FUNCTIONS = {
    "dissipation": (),  # DissipationLaw.value is wrapped on the class
    "radial": ("general_radial_energy", "best_radius", "convection_energy",
               "classify_regime", "threshold_radius", "perturbation_expansion"),
    "annulus": ("solve_state", "energy_of"),  # plus Assembly.__init__
    "optimize": ("optimize_constrained", "optimize_penalized"),
    "levelset": ("h_inequality_check", "dearrangement", "decompose_levels",
                 "truncation_scan", "nodal_gradient_ratio", "high_cutoff_bound"),
    "cli": ("run",),
}

# Span tuple fields.
NAME, START, END, PARENT, THREAD, WORK, ERROR = range(7)


class Tracer:
    """Span recorder.  One instance per benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self._open: Dict[int, List[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> Tuple[int, List[int]]:
        tid = threading.get_ident()
        with self._lock:
            stack = self._open.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._open.get(self._main)
                parent = main[-1] if main and tid != self._main else -1
            idx = len(self.spans)
            self.spans.append((name, time.perf_counter(), 0.0, parent, tid, 0, False))
            stack.append(idx)
        return idx, stack

    def _end(self, idx: int, stack: List[int], work: int, error: bool) -> None:
        end = time.perf_counter()
        with self._lock:
            stack.pop()
            name, start, _, parent, tid, _, _ = self.spans[idx]
            self.spans[idx] = (name, start, end, parent, tid, work, error)

    def span(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        """Wrap `fn` so that each call records a span called `name`.

        `work(args, kwargs, result, error)` returns the span's work count."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx, stack = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._end(idx, stack, work(args, kwargs, None, exc) if work else 0, True)
                raise
            tracer._end(idx, stack, work(args, kwargs, result, None) if work else 0, False)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-level span around one operation."""
        idx, stack = self._begin(name)
        try:
            yield
        except BaseException:
            self._end(idx, stack, 0, True)
            raise
        self._end(idx, stack, 0, False)

    # -- installation ------------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import thermoshield
        from thermoshield import annulus, cli, dissipation, levelset, optimize, radial

        modules = [thermoshield, dissipation, radial, annulus, optimize, levelset, cli]
        works = {"solve_state": _solve_work, "optimize_constrained": _optimize_work,
                 "optimize_penalized": _optimize_work}
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                original = getattr(getattr(thermoshield, layer), fname)
                wrapped = self.span(f"{layer}.{fname}", original, works.get(fname))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)
        law_cls = dissipation.DissipationLaw
        self._patch(law_cls, "value",
                    self.span("dissipation.value", law_cls.value, _value_work))
        asm_cls = annulus.Assembly
        self._patch(asm_cls, "__init__", self.span("annulus.Assembly", asm_cls.__init__))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """Closed spans as columns; self time included."""
        spans = [s for s in self.spans if s[END] > 0.0]
        if len(spans) != len(self.spans):
            raise RuntimeError("spans still open at analysis time")
        names = np.array([s[NAME] for s in spans], dtype=object)
        start = np.array([s[START] for s in spans])
        end = np.array([s[END] for s in spans])
        parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
        thread = np.array([s[THREAD] for s in spans], dtype=np.int64)
        work = np.array([s[WORK] for s in spans], dtype=np.int64)
        error = np.array([s[ERROR] for s in spans], dtype=bool)
        dur = end - start
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
        cross = has_parent.copy()
        cross[has_parent] = thread[has_parent] != thread[parent[has_parent]]
        # Children on other threads may overlap: cover their union instead.
        for p in np.unique(parent[cross]):
            kids = parent == p
            cover[p] = _union_length(list(zip(start[kids], end[kids])))
        return {"name": names, "start": start, "end": end, "parent": parent,
                "thread": thread, "work": work, "error": error, "dur": dur,
                "self": dur - cover, "cross": cross}

    def write(self, path: str) -> None:
        """Write the spans as numpy arrays; names are indices into `names`."""
        cols = self.arrays()
        names, name_idx = np.unique(cols["name"].astype(str), return_inverse=True)
        threads, thread_idx = np.unique(cols["thread"], return_inverse=True)
        np.savez(path, names=names, name=name_idx, start=cols["start"], end=cols["end"],
                 parent=cols["parent"], thread=thread_idx, work=cols["work"],
                 error=cols["error"])


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _value_work(args, kwargs, result, error) -> int:
    u = args[1] if len(args) > 1 else kwargs.get("u")
    return int(np.size(u))


def _solve_work(args, kwargs, result, error) -> int:
    """Iterations of a state solve; a solve that ran out of iterations
    spent its whole `max_iters` budget."""
    from thermoshield.annulus import ConvergenceError, solve_state

    if result is not None:
        return int(result.iterations)
    if not isinstance(error, ConvergenceError):
        return 0
    bound = inspect.signature(solve_state).bind(*args, **kwargs)
    bound.apply_defaults()
    return int(bound.arguments["max_iters"])


def _optimize_work(args, kwargs, result, error) -> int:
    return int(result.iterations) if result is not None else 0


LAYER_UNITS = {
    "dissipation.value_calls": "count",
    "dissipation.value_s": "s",
    "dissipation.points_per_call": "count",
    "dissipation.self_s": "s",
    "radial.energy_calls": "count",
    "radial.energy_s": "s",
    "radial.best_radius_calls": "count",
    "radial.best_radius_s": "s",
    "radial.self_s": "s",
    "annulus.solves": "count",
    "annulus.solve_s": "s",
    "annulus.iters": "count",
    "annulus.iters_per_solve": "count",
    "annulus.assembly_calls": "count",
    "annulus.assembly_s": "s",
    "annulus.convergence_errors": "count",
    "annulus.self_s": "s",
    "optimize.runs": "count",
    "optimize.outer_iters": "count",
    "optimize.solves_per_iter": "count",
    "optimize.self_s": "s",
    "levelset.h_check_calls": "count",
    "levelset.h_check_s": "s",
    "levelset.dearrangement_calls": "count",
    "levelset.dearrangement_s": "s",
    "levelset.decompose_calls": "count",
    "levelset.decompose_s": "s",
    "levelset.truncation_calls": "count",
    "levelset.truncation_s": "s",
    "levelset.self_s": "s",
    "cli.commands": "count",
    "cli.self_s": "s",
    "cli.sweep_threads": "count",
    "cli.sweep_overlap": "1",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
}


def layer_metrics(cols: Dict[str, np.ndarray], n_passes: int) -> Dict[str, float]:
    """Per-layer metrics per traced pass (totals divided by `n_passes`)."""
    name, dur, self_t, work = cols["name"], cols["dur"], cols["self"], cols["work"]
    parent, cross, thread = cols["parent"], cols["cross"], cols["thread"]
    layer = np.array([n.split(".", 1)[0] for n in name], dtype=object)
    out: Dict[str, float] = {}

    def calls_and_time(key: str, span_name: str) -> np.ndarray:
        sel = name == span_name
        out[f"{key}_calls"] = sel.sum() / n_passes
        out[f"{key}_s"] = float(dur[sel].sum()) / n_passes
        return sel

    value = calls_and_time("dissipation.value", "dissipation.value")
    out["dissipation.points_per_call"] = float(work[value].sum()) / max(int(value.sum()), 1)
    calls_and_time("radial.energy", "radial.general_radial_energy")
    calls_and_time("radial.best_radius", "radial.best_radius")
    solve = name == "annulus.solve_state"
    out["annulus.solves"] = solve.sum() / n_passes
    out["annulus.solve_s"] = float(dur[solve].sum()) / n_passes
    out["annulus.iters"] = float(work[solve].sum()) / n_passes
    out["annulus.iters_per_solve"] = float(work[solve].sum()) / max(int(solve.sum()), 1)
    calls_and_time("annulus.assembly", "annulus.Assembly")
    out["annulus.convergence_errors"] = float(cols["error"][solve].sum()) / n_passes
    opt = (name == "optimize.optimize_constrained") | (name == "optimize.optimize_penalized")
    out["optimize.runs"] = opt.sum() / n_passes
    outer = int(work[opt].sum())
    out["optimize.outer_iters"] = outer / n_passes
    opt_idx = set(np.flatnonzero(opt).tolist())
    solves_in_opt = sum(1 for i in np.flatnonzero(solve) if int(parent[i]) in opt_idx)
    out["optimize.solves_per_iter"] = solves_in_opt / max(outer, 1)
    for key, span_name in (("levelset.h_check", "levelset.h_inequality_check"),
                           ("levelset.dearrangement", "levelset.dearrangement"),
                           ("levelset.decompose", "levelset.decompose_levels"),
                           ("levelset.truncation", "levelset.truncation_scan")):
        calls_and_time(key, span_name)
    out["cli.commands"] = (name == "cli.run").sum() / n_passes
    # A sweep is a CLI command whose children ran on pool threads.
    sweeps = sorted(set(parent[cross].tolist()))
    busy = sum(float(dur[cross & (parent == p)].sum()) for p in sweeps)
    out["cli.sweep_threads"] = float(max(
        (len(set(thread[cross & (parent == p)].tolist())) for p in sweeps), default=0))
    out["cli.sweep_overlap"] = busy / float(dur[sweeps].sum()) if sweeps else 0.0
    for lay in ("dissipation", "radial", "annulus", "optimize", "levelset", "cli", "bench"):
        out[f"{lay}.self_s"] = float(self_t[layer == lay].sum()) / n_passes
    return {k: float(v) for k, v in out.items()}
