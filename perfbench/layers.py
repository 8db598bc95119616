"""Layer attribution from outside the program.

The benchmark wraps public functions of ``repro`` at run time and records
one span per call.  Nothing under ``src/`` is edited: a module function is
rebound in every ``repro`` module that imported it, and a method is
replaced on its class.

Two modes share the same wrappers:

* counting (``install(traced=False)``): only the functions whose calls
  are themselves a count (SLSQP calls and their ``nfev``, micro-kernel
  lowerings) are wrapped.  This is the untraced run.
* tracing (``install(traced=True)``): every function in :data:`TARGETS`
  is wrapped and, while :attr:`Tracer.active` is set, records a span
  ``[name, start, end, parent, op, key]``.  The span stack lives in a
  ``contextvars`` variable, so spans nest per thread; spans on the
  server's threads carry the request's cache key, and spans on other
  threads carry the op id the harness set.
"""

from __future__ import annotations

import contextvars
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) of every wrapped callable.  A dotted
#: attribute path names a method on a class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.solver.slsqp", "repro.core.solver", "optimize.minimize"),
    ("core.solver.solve_tiles", "repro.core.solver", "solve_tiles"),
    ("core.tables.evaluator_for", "repro.core.tables", "evaluator_for"),
    ("core.reordering.candidate_models", "repro.core.reordering",
     "candidate_models"),
    ("core.search.dv_lower_bounds", "repro.core.search", "dv_lower_bounds"),
    ("core.optimizer.optimize", "repro.core.optimizer",
     "ChimeraOptimizer.optimize"),
    ("core.fusion.plan_unfused", "repro.core.fusion", "plan_unfused"),
    ("core.fusion.decide_fusion", "repro.core.fusion", "decide_fusion"),
    ("core.multicore.best_partitioned_plan", "repro.core.multicore",
     "best_partitioned_plan"),
    ("runtime.pipeline.kernels_for_decision", "repro.runtime.pipeline",
     "kernels_for_decision"),
    ("runtime.pipeline.compile_chain", "repro.runtime.pipeline",
     "compile_chain"),
    ("ir.graph.partition_graph", "repro.ir.graph", "partition_graph"),
    ("ir.stitch.stitch_nodes", "repro.ir.stitch", "stitch_nodes"),
    ("microkernel.lower_for_chain", "repro.microkernel", "lower_for_chain"),
    ("runtime.scheduler.schedule_partition", "repro.runtime.scheduler",
     "schedule_partition"),
    ("runtime.serialization.network_plan_json", "repro.runtime.serialization",
     "network_plan_json"),
    ("service.compile_batch", "repro.service.service",
     "CompileService.compile_batch"),
    ("service.serve_raw", "repro.service.service", "CompileService.serve_raw"),
    ("service.cache.get", "repro.service.cache",
     "ShardedPlanCache.get_with_tier"),
    ("service.cache.get", "repro.service.cache", "PlanCache.get_with_tier"),
    ("service.cache.put", "repro.service.cache", "ShardedPlanCache.put"),
    ("service.cache.put", "repro.service.cache", "PlanCache.put"),
    ("service.keys.cache_key", "repro.service.keys", "cache_key"),
    ("service.shapes.neighbors", "repro.service.shapes",
     "ShapeIndex.neighbors"),
    ("codegen.program.lower_plan", "repro.codegen.program", "lower_plan"),
    ("codegen.schedule.compile_schedule", "repro.codegen.schedule",
     "compile_schedule"),
    ("codegen.executor.execute_program", "repro.codegen.executor",
     "execute_program"),
    ("codegen.executor.execute_reference", "repro.codegen.executor",
     "execute_reference"),
    ("sim.linecache.simulate", "repro.sim.linecache",
     "simulate_movement_lines"),
)

#: Spans wrapped in counting mode too: their calls are exact counts.
COUNTED = ("core.solver.slsqp", "microkernel.lower_for_chain")

#: Per-layer time metrics: (metric, span name, "self" or "total").
TIME_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("core.solver.slsqp_ms", "core.solver.slsqp", "self"),
    ("core.solver.refine_ms", "core.solver.solve_tiles", "self"),
    ("core.tables.evaluator_ms", "core.tables.evaluator_for", "self"),
    ("core.reordering.models_ms", "core.reordering.candidate_models", "self"),
    ("core.search.bounds_ms", "core.search.dv_lower_bounds", "self"),
    ("core.fusion.unfused_ms", "core.fusion.plan_unfused", "total"),
    ("core.fusion.decide_ms", "core.fusion.decide_fusion", "total"),
    ("core.multicore.placement_ms", "core.multicore.best_partitioned_plan",
     "total"),
    ("runtime.pipeline.kernels_ms", "runtime.pipeline.kernels_for_decision",
     "self"),
    ("runtime.pipeline.compile_ms", "runtime.pipeline.compile_chain", "total"),
    ("ir.graph.partition_ms", "ir.graph.partition_graph", "self"),
    ("ir.stitch.stitch_ms", "ir.stitch.stitch_nodes", "self"),
    ("microkernel.lower_ms", "microkernel.lower_for_chain", "self"),
    ("runtime.scheduler.schedule_ms", "runtime.scheduler.schedule_partition",
     "self"),
    ("runtime.serialization.json_ms",
     "runtime.serialization.network_plan_json", "self"),
    ("service.batch_ms", "service.compile_batch", "total"),
    ("service.serve_raw_ms", "service.serve_raw", "total"),
    ("service.cache.get_ms", "service.cache.get", "self"),
    ("service.cache.put_ms", "service.cache.put", "self"),
    ("service.keys.key_ms", "service.keys.cache_key", "self"),
    ("service.shapes.neighbors_ms", "service.shapes.neighbors", "self"),
    ("codegen.program.lower_ms", "codegen.program.lower_plan", "self"),
    ("codegen.schedule.compile_ms", "codegen.schedule.compile_schedule",
     "self"),
    ("codegen.executor.exec_ms", "codegen.executor.execute_program", "self"),
    ("codegen.executor.reference_ms", "codegen.executor.execute_reference",
     "self"),
    ("sim.linecache.sim_ms", "sim.linecache.simulate", "self"),
)

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class _SolverOptimize:
    """Stands in for ``scipy.optimize`` inside ``repro.core.solver``."""

    def __init__(self, module: Any, minimize: Callable) -> None:
        self._module = module
        self.minimize = minimize

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class Tracer:
    """Installed wrappers, their counters and the recorded spans."""

    def __init__(self) -> None:
        self.active = False
        self.op: Optional[int] = None
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {"slsqp_calls": 0, "slsqp_nfev": 0,
                                       "lowerings": 0}
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- counters --------------------------------------------------------
    def _count(self, name: str, result: Any) -> None:
        with self._lock:
            if name == "core.solver.slsqp":
                self.counts["slsqp_calls"] += 1
                self.counts["slsqp_nfev"] += int(getattr(result, "nfev", 0))
            else:
                self.counts["lowerings"] += 1

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counts)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, traced: bool) -> Callable:
        counted = name in COUNTED
        keyed = name == "service.serve_raw"
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not (traced and tracer.active):
                result = fn(*args, **kwargs)
                if counted:
                    tracer._count(name, result)
                return result
            parent = _CURRENT.get()
            span = [name, 0.0, 0.0, parent, tracer.op, None]
            if parent is not None:
                span[4], span[5] = parent[4], parent[5]
            token = _CURRENT.set(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                _CURRENT.reset(token)
                tracer.spans.append(span)
            if counted:
                tracer._count(name, result)
            if keyed:
                span[5] = getattr(result, "key", None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, traced: bool) -> "Tracer":
        """Wrap every target (``traced``) or only the counted ones."""
        for name, module_name, attr in TARGETS:
            if traced or name in COUNTED:
                self._install_one(name, importlib.import_module(module_name),
                                  attr, traced)
        return self

    def _install_one(self, name: str, module: Any, attr: str,
                     traced: bool) -> None:
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name == "optimize":
            scipy_optimize = module.optimize
            proxy = _SolverOptimize(
                scipy_optimize, self._wrap(name, scipy_optimize.minimize, traced)
            )
            module.optimize = proxy
            self._undo.append(lambda: setattr(module, "optimize", scipy_optimize))
            return
        if owner_name:
            cls = getattr(module, owner_name)
            original = cls.__dict__[leaf]
            setattr(cls, leaf, self._wrap(name, original, traced))
            self._undo.append(lambda: setattr(cls, leaf, original))
            return
        original = getattr(module, leaf)
        wrapper = self._wrap(name, original, traced)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, leaf, None) is original):
                setattr(loaded, leaf, wrapper)
                self._undo.append(
                    lambda m=loaded: setattr(m, leaf, original)
                )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# ----------------------------------------------------------------------
# span analysis
# ----------------------------------------------------------------------
def layer_times(spans: List[list], ops: int) -> Dict[str, float]:
    """Mean milliseconds per op of every :data:`TIME_METRICS` entry.

    Self time is a span's duration minus its children's; children run on
    their parent's thread, one after another, so their durations add up
    without overlap.  Total time counts only the outermost span of a name.
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            child_time[id(parent)] = (
                child_time.get(id(parent), 0.0) + span[2] - span[1]
            )
    self_ms: Dict[str, float] = {}
    total_ms: Dict[str, float] = {}
    for span in spans:
        duration = span[2] - span[1]
        name = span[0]
        self_ms[name] = self_ms.get(name, 0.0) + (
            duration - child_time.get(id(span), 0.0)
        )
        ancestor = span[3]
        while ancestor is not None and ancestor[0] != name:
            ancestor = ancestor[3]
        if ancestor is None:
            total_ms[name] = total_ms.get(name, 0.0) + duration
    out = {}
    for metric, name, kind in TIME_METRICS:
        source = self_ms if kind == "self" else total_ms
        out[metric] = 1e3 * source.get(name, 0.0) / ops
    return out


def _merge(intervals: List[Tuple[float, float]]) -> List[List[float]]:
    merged: List[List[float]] = []
    for start, stop in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], stop)
        else:
            merged.append([start, stop])
    return merged


def unattributed_pct(spans: List[list],
                     op_intervals: List[Tuple[float, float]]) -> float:
    """Share of in-flight op time that no span covers, in percent."""
    busy = _merge(op_intervals)
    busy_total = sum(stop - start for start, stop in busy)
    if busy_total <= 0.0:
        return 0.0
    covered = _merge([(s[1], s[2]) for s in spans])
    overlap = 0.0
    i = j = 0
    while i < len(busy) and j < len(covered):
        lo = max(busy[i][0], covered[j][0])
        hi = min(busy[i][1], covered[j][1])
        if lo < hi:
            overlap += hi - lo
        if busy[i][1] < covered[j][1]:
            i += 1
        else:
            j += 1
    return 100.0 * (1.0 - overlap / busy_total)


def write_spans(path: str, spans: List[list]) -> None:
    """Dump spans as ``[name, start, end, parent index, op, key]`` rows."""
    index = {id(span): i for i, span in enumerate(spans)}
    rows = []
    for span in spans:
        # A server-thread child starts before its request's key is known;
        # it inherits the key its serve_raw ancestor recorded on return.
        owner = span
        while owner[5] is None and owner[3] is not None:
            owner = owner[3]
        parent = None if span[3] is None else index.get(id(span[3]))
        rows.append([span[0], span[1], span[2], parent, span[4], owner[5]])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["name", "start", "end", "parent", "op", "key"],
                   "spans": rows}, handle)
