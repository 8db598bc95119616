"""Benchmark harness: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, from the repository root.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A line before it
carries the run metadata and the exact per-layer counts, and the full
record is also written under ``.perfbench/`` in the repository root.

A traced run times an untraced phase first, then a traced phase of the
same ops, and reports the per-layer numbers of the traced phase; the
end-to-end metrics of the benchmark come only from untraced runs.
"""

from __future__ import annotations

import os
import time

STARTED = time.perf_counter()

# The benchmark measures the program's defaults, so the program's REPRO_*
# knobs (search workers, warm starts, stitching, scheduling, cores, model
# engine) are cleared; one BLAS thread per load thread keeps the load within
# nproc.  Both must happen before numpy and repro load.
CLEARED_ENV = sorted(name for name in os.environ if name.startswith("REPRO_"))
for _name in CLEARED_ENV:
    del os.environ[_name]
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402 - the clock starts before every import
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Set-ups per run; ``setup_s`` reports the import time plus their median.
SETUPS = 3

#: Count metrics reported as a mean per op (the rest are ratios).
COUNT_KEYS_PER_OP = (
    "core.solver.slsqp_calls", "core.solver.slsqp_nfev",
    "core.tables.compiled", "core.reordering.orders",
    "core.search.candidates", "core.search.pruned", "core.search.solves",
    "microkernel.lowerings", "codegen.executor.blocks",
    "codegen.schedule.builds", "sim.linecache.lines", "service.failures",
    "serving.shed",
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


def source_digest() -> str:
    """Hash of the program and benchmark sources: runs compare only within it."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def blas_threads(numpy) -> Optional[int]:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    import ctypes
    import glob

    libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(lib, name, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def metadata(args, repro_module, workloads, digest: str) -> Dict[str, Any]:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    blas: Dict[str, Any] = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    blas["threads"] = blas_threads(numpy)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "git_commit": commit,
        "source_digest": digest,
        "nproc": workloads.NPROC,
        "cpu_count": os.cpu_count(),
        "load_width": workloads.WIDTH,
        "server_workers": workloads.WIDTH,
        "batch_pool_max": workloads.WIDTH,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "repro_version": getattr(repro_module, "__version__", None),
        "cleared_env": CLEARED_ENV,
    }


# ----------------------------------------------------------------------
# one phase: set up, time, check
# ----------------------------------------------------------------------
def quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A Beta-weighted mean of all order statistics: in a sparse tail, such as
    the slowest cold compiles, it moves far less from run to run than the
    one or two order statistics a plain percentile reads.
    """
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1),
                    [i / n for i in range(n + 1)])
    return float(sum((edges[i + 1] - edges[i]) * x
                     for i, x in enumerate(ordered)))


def run_phase(workloads, name: str, seed: int, seconds: float, tracer,
              traced: bool, setups: int = 1) -> Dict[str, Any]:
    """Set up ``setups`` times, then time one phase and check its ops."""
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    factory = workloads.WORKLOADS[name]
    setup_times = []
    wl = None
    for _ in range(setups):
        if wl is not None:
            wl.teardown()
        workloads.clear_process_memos()
        gc.collect()
        wl = factory(seed, tracer, str(scratch))
        began = time.perf_counter()
        try:
            wl.setup()
        except BaseException:
            wl.teardown()
            raise
        setup_times.append(time.perf_counter() - began)
    try:
        gc.collect()
        before = workloads.process_counters(tracer)
        tracer.spans = []
        tracer.active = traced
        began = time.perf_counter()
        ops = wl.run(seconds, workloads.MIN_OPS)
        wall = time.perf_counter() - began
        tracer.active = False
        phase_delta = workloads.delta(workloads.process_counters(tracer),
                                      before)
        wl.after(ops)
    finally:
        wl.teardown()
    return {
        "ops": ops,
        "wall": wall,
        "setup_times": setup_times,
        "phase_delta": phase_delta,
        "phase_counts": wl.phase_counts,
        "spans": tracer.spans,
    }


def end_to_end(phase: Dict[str, Any], import_s: float,
               min_ops: int) -> Dict[str, float]:
    ops = [op for op in phase["ops"] if op.error is None]
    latencies = [op.seconds for op in ops]
    if len(latencies) < 2:
        raise RuntimeError("fewer than two successful ops")
    plan_times = [t for op in phase["ops"][:min_ops] for t in op.plan_times]
    geomean = math.exp(sum(math.log(t) for t in plan_times) / len(plan_times))
    return {
        "setup_s": import_s + statistics.median(phase["setup_times"]),
        "ops_per_s": len(ops) / phase["wall"],
        "op_p50_ms": 1e3 * quantile(latencies, 0.5),
        "op_p90_ms": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "plan_model_us": 1e6 * geomean,
    }


def layer_counts(phase: Dict[str, Any], min_ops: int) -> Dict[str, float]:
    """Per-layer counts, per op, over the first ``min_ops`` ops.

    Keys listed in the workload's ``phase_counts`` come from the whole
    timed phase instead; they depend on how concurrent ops interleave.
    """
    ops = phase["ops"]
    prefix = ops[:min_ops]
    total: Dict[str, float] = {}
    for op in prefix:
        for key, value in op.counts.items():
            total[key] = total.get(key, 0) + value
    for key in phase["phase_counts"]:
        total[key] = phase["phase_delta"][key]
    n = len(prefix)

    def per_op(key: str) -> float:
        return total.get(key, 0) / (
            len(ops) if key in phase["phase_counts"] else n)

    def ratio(num: str, den: float) -> float:
        return total.get(num, 0) / den if den else 0.0

    requests = total.get("service.requests", 0)
    counts = {key: per_op(key) for key in COUNT_KEYS_PER_OP}
    counts.update({
        "core.search.prune_ratio": ratio(
            "core.search.pruned", total.get("core.search.candidates", 0)),
        "core.search.memo_hit_ratio": ratio(
            "core.search.memo_hits",
            total.get("core.search.memo_hits", 0)
            + total.get("core.search.solves", 0)),
        "core.multicore.partitioned_share": ratio(
            "core.multicore.partitioned", n),
        "runtime.scheduler.peak_ratio": ratio(
            "runtime.scheduler.peak_ratio",
            total.get("runtime.scheduler.scheduled", 0)),
        "service.hit_ratio": ratio("service.hits", requests),
        "service.near_share": ratio("service.near", requests),
        "service.cold_share": ratio("service.cold", requests),
        "service.coalesced_share": ratio("service.coalesced", requests),
    })
    return counts


def inexact_keys(phase: Dict[str, Any]) -> set:
    """Count metrics that need not repeat exactly between same-seed runs."""
    keys = set(phase["phase_counts"])
    if "core.search.pruned" in keys:
        keys |= {"core.search.prune_ratio", "core.search.memo_hit_ratio"}
    return keys


def serving_metrics(ops) -> Dict[str, float]:
    """Reply timings of the serving layer (zero where nothing was served)."""
    ok = [op for op in ops if op.error is None and op.reply is not None]
    if not ok:
        return {name: 0.0 for name in (
            "serving.queue_ms_p50", "serving.queue_ms_p90",
            "serving.service_ms_p50", "serving.server_ms_p50",
            "serving.wire_ms_p50")}
    queue = [op.reply.queue_seconds for op in ok]
    return {
        "serving.queue_ms_p50": 1e3 * quantile(queue, 0.5),
        "serving.queue_ms_p90": 1e3 * quantile(queue, 0.9),
        "serving.service_ms_p50": 1e3 * quantile(
            [op.reply.service_seconds for op in ok], 0.5),
        "serving.server_ms_p50": 1e3 * quantile(
            [op.reply.seconds for op in ok], 0.5),
        "serving.wire_ms_p50": 1e3 * quantile(
            [op.seconds - op.reply.seconds for op in ok], 0.5),
    }


def check_repeatable(counts: Dict[str, float], name: str, seed: int,
                     digest: str, min_ops: int) -> Optional[str]:
    """Compare exact counts with an earlier same-seed run of this source."""
    path = OUT / "counts" / f"{digest}-{name}-{seed}-{min_ops}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        differ = sorted(k for k in set(earlier) | set(counts)
                        if earlier.get(k) != counts.get(k))
        if differ:
            return (f"counts differ from an earlier run with seed {seed}: "
                    + ", ".join(f"{k} {earlier.get(k)} -> {counts.get(k)}"
                                for k in differ))
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


def measure(args, layers, workloads, import_s: float):
    """Run the untraced phase and, with ``--trace 1``, the traced one."""
    min_ops = workloads.MIN_OPS
    problems: List[str] = []
    tracer = layers.Tracer().install(traced=False)
    try:
        phase = run_phase(workloads, args.workload, args.seed, args.seconds,
                          tracer, traced=False,
                          setups=1 if args.trace else SETUPS)
    finally:
        tracer.uninstall()
    phases = [phase]
    untraced = end_to_end(phase, import_s, min_ops)
    counts = layer_counts(phase, min_ops)
    if not args.trace:
        return phases, untraced, counts, untraced, problems

    tracer = layers.Tracer().install(traced=True)
    try:
        traced = run_phase(workloads, args.workload, args.seed, args.seconds,
                           tracer, traced=True)
    finally:
        tracer.uninstall()
    phases.append(traced)
    traced_counts = layer_counts(traced, min_ops)
    values = dict(traced_counts)
    values.update(layers.layer_times(traced["spans"], len(traced["ops"])))
    values.update(serving_metrics(traced["ops"]))
    traced_rate = sum(op.error is None for op in traced["ops"]) / traced["wall"]
    values["trace.overhead_pct"] = 100.0 * (
        untraced["ops_per_s"] / traced_rate - 1.0)
    values["trace.unattributed_pct"] = layers.unattributed_pct(
        traced["spans"], [(op.start, op.end) for op in traced["ops"]])
    inexact = inexact_keys(phase)
    differ = [k for k in counts
              if k not in inexact and counts[k] != traced_counts[k]]
    if differ:
        problems.append("traced and untraced phases disagree on "
                        + ", ".join(differ))
    return phases, values, counts, untraced, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        repro_module = _import_program()
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")
    import layers
    import workloads

    import_s = time.perf_counter() - STARTED
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: "
                     + ", ".join(workloads.WORKLOADS))
    phases, metrics_values, counts, untraced, problems = measure(
        args, layers, workloads, import_s)
    inexact = inexact_keys(phases[0])

    digest = source_digest()
    exact = {k: v for k, v in counts.items() if k not in inexact}
    problem = check_repeatable(exact, args.workload, args.seed, digest,
                               workloads.MIN_OPS)
    if problem:
        problems.append(problem)

    attempted = sum(len(p["ops"]) for p in phases)
    failures = [(op.index, op.error) for p in phases for op in p["ops"]
                if op.error is not None]
    for index, error in failures[:20]:
        print(f"perfbench: op {index} failed: {error}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    units = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer")
             for m in spec[section]}
    wanted = [m["name"] for m in spec[
        "per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics_values[name]),
                           "unit": units[name]} for name in wanted},
    }
    meta = metadata(args, repro_module, workloads, digest)
    meta["ops"] = [len(p["ops"]) for p in phases]
    meta["timed_seconds"] = [p["wall"] for p in phases]
    meta["setup_times"] = phases[0]["setup_times"]
    meta["op_seconds"] = [op.seconds for op in phases[0]["ops"]]
    meta["import_s"] = import_s
    record = {"meta": meta, "counts": counts, "untraced": untraced,
              "failures": failures, "problems": problems, "result": result}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        layers.write_spans(str(OUT / "results" / f"{stem}.spans.json"),
                           phases[-1]["spans"])
    print("perfbench-meta " + json.dumps({"meta": meta, "counts": counts},
                                         sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
