"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``plan`` — optimize a named workload and print the fusion plan, the
  simulated profile, and optionally the generated source; ``--cores``
  forces the block-to-core placement width on presets with an
  inter-core link.
* ``hardware`` — print one preset's full machine model (levels, vector
  and matrix units, unified buffer, inter-core link), or every preset.
* ``compare`` — run a workload across systems (one Figure 5/6/7 row).
* ``validate`` — Figure-8 style model validation for a GEMM chain.
* ``workloads`` — list the Table IV / Table V configurations.
* ``compile-batch`` — compile several workloads through the caching
  service, in parallel, and print the per-request report plus stats.
* ``compile-network`` — partition a whole network DAG (Bert/ViT/
  Transformer preset), batch-compile every node through the service, and
  print the per-node plan report (``--json`` for machine-readable stats).
* ``cache`` — inspect (``stats``, ``list``) or ``clear`` a plan cache dir
  (shard layouts are auto-detected; ``stats`` prints byte usage and
  per-shard entry counts).
* ``search-stats`` — run workloads and report the order-search counters
  (orders enumerated / pruned / memo hits / solves, per-stage wall time).
* ``serve`` — run the always-on compilation server (NDJSON over TCP plus
  ``GET /stats`` / ``GET /healthz``); see ``docs/serving.md``.

All commands exit 130 on Ctrl-C instead of dumping a traceback
(``serve`` instead drains gracefully and exits 0).

Examples::

    python -m repro plan G1 --hw xeon-gold-6240 --softmax
    python -m repro plan C3 --hw a100 --source
    python -m repro plan G1 --hw mesh-npu-16 --cores 8
    python -m repro hardware mesh-npu-16
    python -m repro hardware --all
    python -m repro compare G2 --hw a100
    python -m repro validate --size 512 --order m,l,k,n
    python -m repro workloads
    python -m repro compile-batch G10 G11 C7 --cache-dir /tmp/plans
    python -m repro compile-network --network bert-base --hw a100 --json
    python -m repro cache stats --cache-dir /tmp/plans
    python -m repro search-stats G1 C1 --hw ascend-910
    python -m repro serve --cache-dir /tmp/plans --port 9119 --shards 4
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional

from . import compile_chain, simulate_plan
from .analysis import render_table, validate_model
from .baselines.systems import PROFILES
from .hardware import preset
from .ir.chain import OperatorChain
from .ir.chains import gemm_chain
from .runtime import compare as run_compare
from .service import CompileRequest, CompileService, open_cache
from .workloads import conv_chain_config, gemm_chain_config


def _build_workload(
    name: str, softmax: bool, relu: bool, batch: Optional[int]
) -> OperatorChain:
    if name.upper().startswith("G"):
        config = gemm_chain_config(name.upper())
        return config.build(with_softmax=softmax, batch_override=batch)
    if name.upper().startswith("C"):
        config = conv_chain_config(name.upper())
        return config.build(batch=batch or 1, with_relu=relu)
    raise KeyError(f"unknown workload {name!r} (use G1-G12 or C1-C8)")


def _cmd_plan(args: argparse.Namespace) -> int:
    if args.cores is not None and args.cores < 1:
        raise SystemExit(f"--cores must be >= 1, got {args.cores}")
    hw = preset(args.hw)
    chain = _build_workload(args.workload, args.softmax, args.relu, args.batch)
    print(chain.describe())
    print()
    result = compile_chain(chain, hw, cores=args.cores)
    kernel = result.kernels[0]
    print(f"fusion decision: {'fuse' if result.fused else 'split'} "
          f"(predicted speedup {result.decision.predicted_speedup:.2f}x)")
    for k in result.kernels:
        print(k.plan.describe())
    print()
    print(simulate_plan(kernel.plan).describe())
    if args.source:
        print()
        print(kernel.source)
    return 0


def _cmd_hardware(args: argparse.Namespace) -> int:
    from .hardware import multicore_presets
    from .hardware.presets import all_presets

    if args.all:
        specs = all_presets() + multicore_presets()
    else:
        if not args.name:
            raise SystemExit("hardware: give a preset name or --all")
        specs = (preset(args.name),)
    print("\n\n".join(spec.describe() for spec in specs))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    hw = preset(args.hw)
    chain = _build_workload(args.workload, args.softmax, args.relu, args.batch)
    keys = tuple(args.systems.split(",")) if args.systems else ()
    comparison = run_compare([chain], hw, keys,
                             workload_names=[args.workload.upper()])
    print(comparison.table(comparison.systems[0]))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    hw = preset(args.hw)
    chain = gemm_chain(args.size, args.size, args.size, args.size)
    order = tuple(args.order.split(","))
    result = validate_model(
        chain, hw, order, samples=args.samples,
        reuse_intermediates=not args.no_reuse,
    )
    print(f"R^2 = {result.r_squared:.3f}  "
          f"mean relative error = {result.mean_relative_error:.1%}  "
          f"({len(result.points)} points)")
    best = result.best_predicted()
    print(f"model's pick: tiles "
          + ", ".join(f"{n}={best.tiles[n]}" for n in order)
          + f" -> measured {best.measured / 1e6:.2f} MB")
    return 0


def _render_stats(stats: dict) -> str:
    latency = stats["compile_latency"]
    cache = stats["cache"]
    lines = [
        f"requests {stats['requests']}  hits {stats['hits']} "
        f"(memory {stats['hits_memory']}, disk {stats['hits_disk']})  "
        f"misses {stats['misses']}  hit rate {stats['hit_rate']:.0%}",
        f"compiles {stats['compiles']}  coalesced {stats['coalesced']}  "
        f"failures {stats['failures']}  retries {stats['retries']}  "
        f"fallbacks {stats['fallbacks']}  timeouts {stats['timeouts']}",
        f"evictions {stats['evictions']}  corrupt entries "
        f"{stats['corrupt_entries']}  warm-started {stats.get('warm_near', 0)}",
        f"compile latency: p50 {latency['p50']:.2f}s  "
        f"p90 {latency['p90']:.2f}s  p99 {latency['p99']:.2f}s  "
        f"({latency['count']} samples)",
        f"cache: {cache['memory_entries']}/{cache['memory_capacity']} in "
        f"memory, {cache['disk_entries']} on disk "
        f"({cache['disk_bytes']} bytes) at {cache['cache_dir'] or '<none>'}",
    ]
    index = stats.get("shape_index")
    if index:
        lines.append(
            f"shape index: {index['entries']} entries across "
            f"{index['structures']} structures"
        )
    return "\n".join(lines)


def _cmd_compile_batch(args: argparse.Namespace) -> int:
    hw = preset(args.hw)
    requests = [
        CompileRequest(
            chain=_build_workload(name, args.softmax, args.relu, args.batch),
            hardware=hw,
        )
        for name in args.workloads
    ]
    service = CompileService(
        cache_dir=args.cache_dir, memory_capacity=args.memory_capacity
    )
    report = service.compile_batch(
        requests, max_workers=args.workers, timeout=args.timeout
    )
    print(report.table())
    print()
    print(_render_stats(service.stats()))
    return 0 if report.succeeded else 1


def _cmd_compile_network(args: argparse.Namespace) -> int:
    import json as _json

    from .runtime.network import compile_network
    from .runtime.serialization import network_plan_json, save_network_plan
    from .workloads import build_network, network_config

    hw = preset(args.hw)
    config = network_config(args.network)
    dag = build_network(config)
    service = CompileService(
        cache_dir=args.cache_dir, memory_capacity=args.memory_capacity
    )
    plan = compile_network(
        dag,
        hw,
        service=service,
        max_workers=args.workers,
        timeout=args.timeout,
        timing="simulated" if args.simulate else "predicted",
        schedule=args.schedule == "on",
        memory_budget=args.memory_budget,
    )
    if args.out:
        save_network_plan(plan, args.out)
    if args.json:
        stats = service.stats()
        sched = plan.schedule
        payload = {
            "network": plan.network,
            "hardware": hw.name,
            "timing": plan.timing,
            "nodes": len(plan.nodes),
            "kernels": plan.kernel_count,
            "fused_nodes": list(plan.fused_nodes),
            "total_time": plan.total_time,
            "unfused_total_time": plan.unfused_total_time,
            "speedup_over_unfused": plan.speedup_over_unfused,
            "schedule": None if sched is None else {
                "execution_order": list(sched.order),
                "peak_memory_bytes": sched.peak_bytes,
                "naive_peak_bytes": sched.naive_peak_bytes,
                "peak_reduction": sched.peak_reduction,
                "memory_budget": sched.memory_budget,
                "within_budget": sched.within_budget,
                "evictions": [
                    {
                        "producer": record.producer,
                        "decision": record.decision,
                        "nbytes": record.nbytes,
                        "overhead_time": record.overhead_time,
                    }
                    for record in sched.evictions
                ],
                "overhead_time": sched.overhead_time,
            },
            "plan_bytes": len(network_plan_json(plan)),
            "service": {
                "requests": stats["requests"],
                "hits": stats["hits"],
                "misses": stats["misses"],
                "coalesced": stats["coalesced"],
                "compiles": stats["compiles"],
                "fallbacks": stats["fallbacks"],
                "hit_rate": stats["hit_rate"],
            },
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(plan.describe())
        print()
        print(_render_stats(service.stats()))
        if args.out:
            print(f"\nplan saved to {args.out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = open_cache(cache_dir=args.cache_dir, shards=args.shards)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached plan(s) from {args.cache_dir}")
        return 0
    if args.action == "stats":
        stats = cache.stats()
        print(
            f"{stats['disk_entries']} cached plan(s), "
            f"{stats['disk_bytes']} bytes on disk across "
            f"{stats['shards']} shard(s) at {args.cache_dir}"
        )
        print(
            f"memory tier: {stats['memory_entries']}/"
            f"{stats['memory_capacity']} entries, "
            f"{stats['memory_bytes']} bytes"
            + (
                f" (budget {stats['max_memory_bytes']})"
                if stats.get("max_memory_bytes")
                else ""
            )
        )
        for shard in stats.get("per_shard", []):
            print(
                f"  shard {shard['shard']:02d}: "
                f"{shard['disk_entries']} entries, "
                f"{shard['disk_bytes']} bytes"
            )
        if args.cache_dir:
            from .service.shapes import INDEX_FILENAME, ShapeIndex

            index = ShapeIndex(
                pathlib.Path(args.cache_dir) / INDEX_FILENAME
            )
            istats = index.stats()
            print(
                f"shape index: {istats['entries']} entries across "
                f"{istats['structures']} structures"
                + (
                    f" ({istats['dropped_records']} dropped records)"
                    if istats["dropped_records"]
                    else ""
                )
            )
        return 0
    keys = cache.disk_keys()
    rows = []
    for key in keys:
        entry = cache.get(key)
        if entry is None:
            continue  # corrupt entries are evicted by the lookup itself
        seconds = entry.get("compile_seconds")
        rows.append(
            [
                key[:16],
                str(entry.get("chain", "?")),
                str(entry.get("hardware", "?")),
                "fused" if entry.get("use_fusion") else "unfused",
                "-" if seconds is None else f"{seconds:.2f}s",
            ]
        )
    print(render_table(
        ["key", "chain", "hardware", "decision", "compile time"], rows
    ))
    return 0


def _render_search_stats(stats: dict) -> str:
    memo = stats.get("memo", {})
    tables = stats.get("tables_memo", {})
    lines = [
        f"searches {stats['searches']}  orders enumerated "
        f"{stats['orders_enumerated']}  candidates {stats['candidates']}",
        f"bound evals {stats['bound_evals']}  pruned {stats['pruned']}  "
        f"memo hits {stats['memo_hits']}  solves {stats['solves']}",
        f"wall time: bounds {stats['bound_seconds']:.3f}s  "
        f"solves {stats['solve_seconds']:.3f}s",
    ]
    if memo:
        lines.append(
            f"solve memo: {memo['entries']}/{memo['capacity']} entries  "
            f"hits {memo['hits']}  misses {memo['misses']}  "
            f"evictions {memo['evictions']}"
        )
    if tables:
        lines.append(
            f"tables memo: {tables['entries']}/{tables['capacity']} "
            f"entries  hits {tables['hits']}  misses {tables['misses']}  "
            f"evictions {tables['evictions']}"
        )
    return "\n".join(lines)


def _cmd_search_stats(args: argparse.Namespace) -> int:
    from .core.search import (
        reset_search_stats,
        search_stats_snapshot,
        solve_memo,
    )

    hw = preset(args.hw)
    reset_search_stats()
    solve_memo().clear()
    for name in args.workloads:
        chain = _build_workload(name, args.softmax, args.relu, args.batch)
        compile_chain(chain, hw)
        print(f"compiled {name.upper()} on {hw.name}")
    print()
    print(_render_search_stats(search_stats_snapshot()))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import ServerConfig, run_server

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        interactive_queue=args.interactive_queue,
        batch_queue=args.batch_queue,
        cache_dir=args.cache_dir,
        shards=args.shards,
        memory_capacity=args.memory_capacity,
        max_memory_bytes=args.max_memory_bytes,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        tenant_inflight=args.tenant_inflight,
        compact_interval=args.compact_interval,
        compact_max_age=args.compact_max_age,
        compact_disk_budget=args.compact_disk_budget,
        warm_start=not args.no_warm_start,
    )
    return run_server(config)


def _cmd_workloads(_: argparse.Namespace) -> int:
    from .workloads import TABLE_IV, TABLE_V

    rows = [
        [c.name, str(c.batch), str(c.m), str(c.n), str(c.k), str(c.l), c.network]
        for c in TABLE_IV
    ]
    print(render_table(["name", "batch", "M", "N", "K", "L", "network"], rows))
    print()
    rows = [
        [c.name, str(c.ic), f"{c.h}x{c.w}", str(c.oc1), str(c.oc2),
         f"{c.st1}/{c.st2}", f"{c.k1}/{c.k2}"]
        for c in TABLE_V
    ]
    print(render_table(
        ["name", "IC", "HxW", "OC1", "OC2", "strides", "kernels"], rows
    ))
    print()
    print("systems:", ", ".join(sorted(PROFILES)))
    return 0


def main(argv: Optional[list] = None) -> int:
    """Parse arguments and dispatch to the selected subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Chimera reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="optimize and profile one workload")
    plan.add_argument("workload", help="G1-G12 or C1-C8")
    plan.add_argument("--hw", default="xeon-gold-6240",
                      help="hardware preset name")
    plan.add_argument("--softmax", action="store_true",
                      help="insert softmax between the GEMMs")
    plan.add_argument("--relu", action="store_true",
                      help="append ReLU to each convolution")
    plan.add_argument("--batch", type=int, default=None)
    plan.add_argument("--cores", type=int, default=None,
                      help="force the block-to-core partition count "
                           "(inert without an inter-core link)")
    plan.add_argument("--source", action="store_true",
                      help="print the generated kernel source")
    plan.set_defaults(fn=_cmd_plan)

    hw_parser = sub.add_parser(
        "hardware", help="print a preset's full machine model"
    )
    hw_parser.add_argument("name", nargs="?", default=None,
                           help="preset name (e.g. a100, mesh-npu-16)")
    hw_parser.add_argument("--all", action="store_true",
                           help="print every preset, multi-core included")
    hw_parser.set_defaults(fn=_cmd_hardware)

    cmp_parser = sub.add_parser("compare", help="run systems side by side")
    cmp_parser.add_argument("workload")
    cmp_parser.add_argument("--hw", default="xeon-gold-6240")
    cmp_parser.add_argument("--softmax", action="store_true")
    cmp_parser.add_argument("--relu", action="store_true")
    cmp_parser.add_argument("--batch", type=int, default=None)
    cmp_parser.add_argument(
        "--systems", default="",
        help="comma-separated registry keys (default: all for the backend)",
    )
    cmp_parser.set_defaults(fn=_cmd_compare)

    val = sub.add_parser("validate", help="Figure-8 model validation")
    val.add_argument("--hw", default="xeon-gold-6240")
    val.add_argument("--size", type=int, default=512)
    val.add_argument("--order", default="m,l,k,n")
    val.add_argument("--samples", type=int, default=30)
    val.add_argument("--no-reuse", action="store_true")
    val.set_defaults(fn=_cmd_validate)

    wl = sub.add_parser("workloads", help="list Table IV / Table V configs")
    wl.set_defaults(fn=_cmd_workloads)

    batch = sub.add_parser(
        "compile-batch",
        help="compile several workloads through the caching service",
    )
    batch.add_argument("workloads", nargs="+", help="G1-G12 and/or C1-C8")
    batch.add_argument("--hw", default="xeon-gold-6240")
    batch.add_argument("--softmax", action="store_true")
    batch.add_argument("--relu", action="store_true")
    batch.add_argument("--batch", type=int, default=None)
    batch.add_argument("--cache-dir", default=None,
                       help="persistent plan cache directory")
    batch.add_argument("--memory-capacity", type=int, default=128,
                       help="in-memory LRU size, entries")
    batch.add_argument("--workers", type=int, default=None,
                       help="worker pool size (default: one per request, "
                            "capped at the CPU count)")
    batch.add_argument("--timeout", type=float, default=None,
                       help="per-request timeout in seconds")
    batch.set_defaults(fn=_cmd_compile_batch)

    network = sub.add_parser(
        "compile-network",
        help="partition a whole network DAG and batch-compile its chains",
    )
    network.add_argument("--network", required=True,
                         help="network preset (e.g. Bert-Base; "
                              "case-insensitive)")
    network.add_argument("--hw", "--hardware", dest="hw",
                         default="xeon-gold-6240")
    network.add_argument("--cache-dir", default=None,
                         help="persistent plan cache directory")
    network.add_argument("--memory-capacity", type=int, default=128)
    network.add_argument("--workers", type=int, default=None,
                         help="batch pool size")
    network.add_argument("--timeout", type=float, default=None,
                         help="per-node compile timeout in seconds")
    network.add_argument("--simulate", action="store_true",
                         help="time nodes on the memory-hierarchy "
                              "simulator (slow) instead of the "
                              "analytical model")
    network.add_argument("--schedule", choices=["on", "off"], default="on",
                         help="graph-level execution scheduling "
                              "(default: on)")
    network.add_argument("--memory-budget", type=int, default=None,
                         help="residency budget in bytes for the "
                              "scheduler (default: the preset's "
                              "DRAM-side capacity)")
    network.add_argument("--out", default=None,
                         help="write the serialized NetworkPlan here")
    network.add_argument("--json", action="store_true",
                         help="print machine-readable stats instead of "
                              "the table")
    network.set_defaults(fn=_cmd_compile_network)

    cache = sub.add_parser("cache", help="inspect or clear a plan cache")
    cache.add_argument("action", choices=["stats", "list", "clear"])
    cache.add_argument("--cache-dir", required=True)
    cache.add_argument("--shards", type=int, default=None,
                       help="shard count (default: auto-detect from the "
                            "directory layout)")
    cache.set_defaults(fn=_cmd_cache)

    serve = sub.add_parser(
        "serve", help="run the always-on compilation server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9119,
                       help="TCP port (0 picks a free one and prints it)")
    serve.add_argument("--workers", type=int, default=4,
                       help="compile thread-pool width")
    serve.add_argument("--cache-dir", default=None,
                       help="persistent plan cache (also holds the "
                            "metrics checkpoint for hot restarts)")
    serve.add_argument("--shards", type=int, default=4,
                       help="plan-cache shards")
    serve.add_argument("--memory-capacity", type=int, default=512,
                       help="memory-tier entries, total across shards")
    serve.add_argument("--max-memory-bytes", type=int, default=None,
                       help="memory-tier byte budget (size-aware LRU)")
    serve.add_argument("--interactive-queue", type=int, default=256,
                       help="interactive admission-queue bound")
    serve.add_argument("--batch-queue", type=int, default=1024,
                       help="batch admission-queue bound")
    serve.add_argument("--tenant-rate", type=float, default=0.0,
                       help="per-tenant requests/second (0 = unlimited)")
    serve.add_argument("--tenant-burst", type=float, default=None,
                       help="per-tenant token-bucket ceiling "
                            "(default: 2x rate)")
    serve.add_argument("--tenant-inflight", type=int, default=0,
                       help="per-tenant in-flight cap (0 = unlimited)")
    serve.add_argument("--compact-interval", type=float, default=60.0,
                       help="seconds between disk compaction passes "
                            "(0 disables)")
    serve.add_argument("--compact-max-age", type=float, default=None,
                       help="evict disk entries older than this many "
                            "seconds")
    serve.add_argument("--compact-disk-budget", type=int, default=None,
                       help="disk byte budget enforced by compaction")
    serve.add_argument("--no-warm-start", action="store_true",
                       help="skip re-warming the memory tier from disk")
    serve.set_defaults(fn=_cmd_serve)

    search = sub.add_parser(
        "search-stats",
        help="compile workloads and report order-search counters",
    )
    search.add_argument("workloads", nargs="+", help="G1-G12 and/or C1-C8")
    search.add_argument("--hw", default="xeon-gold-6240")
    search.add_argument("--softmax", action="store_true")
    search.add_argument("--relu", action="store_true")
    search.add_argument("--batch", type=int, default=None)
    search.set_defaults(fn=_cmd_search_stats)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # Conventional 128 + SIGINT exit, no traceback spew.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
