"""Graph-level execution scheduling: peak-memory wins, priced overheads.

Two workloads exercise the scheduler where ordering freedom exists:

1. **Packed Bert** — several tenants' Bert graphs combined by
   ``pack_networks`` with the serving-style interleaved node order.  The
   naive topological order round-robins across tenants, keeping every
   tenant's working set live at once; the scheduler runs each tenant to
   completion before admitting the next.  (A single stitched Bert layer
   is a path graph — zero ordering freedom — which is exactly why the
   multi-tenant packing is the scenario this layer exists for.)
2. **Synthetic multi-branch graph** — one stem fanning into parallel
   expand/reduce GEMM branches, emitted breadth-first.  Depth-first
   scheduling drops the peak by roughly the branch count.

Gates (written to ``BENCH_graph_schedule.json`` via the shared artifact
envelope):

* scheduled peak strictly below the naive topological order's peak on
  both graphs, with at least ``MIN_PEAK_REDUCTION``x reduction;
* predicted end-to-end time no worse than the unscheduled plan's;
* the residency replay simulator reproduces the predicted peak and
  live-byte profile exactly, and the spill traffic it measures matches
  the movement model's round-trip byte counts;
* a deliberately tight budget forces evictions on the multi-branch
  graph: the budget-bound schedule must record rematerialize/spill
  decisions, land within the budget, and charge a positive spill
  overhead into the plan time (packed Bert is exempt — its depth-first
  schedule produces each tensor one step before its only read, so no
  tensor spans an untouched step and eviction can never relieve a peak);
* compiling twice yields byte-identical serialized plans (determinism
  under the fixed default annealing seed).

Run standalone with ``python benchmarks/bench_graph_schedule.py
[--smoke]``; smoke shrinks the graphs but enforces the same gates.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import repro
from artifact import assert_gates, gate, write_artifact
from repro.analysis import render_table
from repro.analysis.reporting import format_bytes
from repro.core.movement import spill_round_trip_bytes
from repro.runtime.network import compile_network
from repro.runtime.serialization import network_plan_json
from repro.sim.residency import replay_schedule
from repro.workloads import (
    build_multibranch_network,
    build_network,
    network_config,
    pack_networks,
)

MIN_PEAK_REDUCTION = 1.3


def _graphs(smoke):
    if smoke:
        bert = build_network(network_config("Bert-Small"))
        packed = pack_networks([bert] * 2, name="Bert-Small-x2")
        branches = build_multibranch_network(
            branches=4, seq=256, width=1024, reduce_dim=64
        )
    else:
        bert = build_network(network_config("Bert-Base"))
        packed = pack_networks([bert] * 3, name="Bert-Base-x3")
        branches = build_multibranch_network(
            branches=8, seq=512, width=2048, reduce_dim=64
        )
    return (packed, branches)


def _run_graph(dag, hw, budget_scenario):
    """Compile one graph scheduled, unscheduled, and budget-bound."""
    scheduled = compile_network(dag, hw, schedule=True)
    again = compile_network(dag, hw, schedule=True)
    unscheduled = compile_network(dag, hw, schedule=False)
    sched = scheduled.schedule

    trace = replay_schedule(sched)
    expected_spill = sum(
        spill_round_trip_bytes(r.nbytes, len(r.consumers))
        for r in sched.residency
        if r.decision == "spill"
    )

    # Budget binding: squeeze below the unconstrained scheduled peak so
    # the rematerialize-vs-spill pricing has to evict something.
    bound = None
    budget = None
    if budget_scenario:
        budget = max(1, int(sched.peak_bytes * 0.9))
        bound = compile_network(dag, hw, schedule=True, memory_budget=budget)

    gates = [
        gate(
            f"{dag.name}-peak-strictly-reduced",
            sched.peak_bytes < sched.naive_peak_bytes,
            f"scheduled {format_bytes(sched.peak_bytes)} vs naive "
            f"{format_bytes(sched.naive_peak_bytes)}",
        ),
        gate(
            f"{dag.name}-peak-reduction-{MIN_PEAK_REDUCTION}x",
            sched.peak_reduction >= MIN_PEAK_REDUCTION,
            f"{sched.peak_reduction:.2f}x",
        ),
        gate(
            f"{dag.name}-time-no-worse",
            scheduled.total_time <= unscheduled.total_time * (1 + 1e-9),
            f"scheduled {scheduled.total_time * 1e3:.3f} ms vs "
            f"unscheduled {unscheduled.total_time * 1e3:.3f} ms",
        ),
        gate(
            f"{dag.name}-replay-confirms-peak",
            trace.peak_bytes == sched.peak_bytes
            and trace.live_bytes == sched.live_bytes,
            f"replayed {format_bytes(trace.peak_bytes)} == predicted "
            f"{format_bytes(sched.peak_bytes)}",
        ),
        gate(
            f"{dag.name}-replay-spill-traffic-matches",
            trace.spill_bytes == expected_spill,
            f"replayed {trace.spill_bytes} B == movement-model "
            f"{expected_spill} B",
        ),
        gate(
            f"{dag.name}-deterministic",
            network_plan_json(scheduled) == network_plan_json(again),
            "byte-identical serialized plans across recompiles",
        ),
    ]
    if bound is not None:
        gates.extend([
            gate(
                f"{dag.name}-budget-forces-evictions",
                bool(bound.schedule.evictions),
                f"budget {format_bytes(budget)}: "
                f"{len(bound.schedule.evictions)} eviction(s)",
            ),
            gate(
                f"{dag.name}-budget-held",
                bound.schedule.within_budget,
                f"peak {format_bytes(bound.schedule.peak_bytes)} <= "
                f"budget {format_bytes(budget)}",
            ),
            gate(
                f"{dag.name}-evictions-priced",
                bound.spill_total_time > 0
                and bound.total_time > scheduled.total_time,
                f"spill overhead {bound.spill_total_time * 1e6:.2f} us",
            ),
        ])
    stats = {
        "nodes": len(scheduled.nodes),
        "naive_peak_bytes": sched.naive_peak_bytes,
        "scheduled_peak_bytes": sched.peak_bytes,
        "peak_reduction": sched.peak_reduction,
        "scheduled_time_s": scheduled.total_time,
        "unscheduled_time_s": unscheduled.total_time,
        "execution_order": list(sched.order),
        "budget_bytes": budget,
        "budget_peak_bytes": None if bound is None
        else bound.schedule.peak_bytes,
        "budget_evictions": [] if bound is None else [
            {
                "producer": r.producer,
                "decision": r.decision,
                "nbytes": r.nbytes,
                "overhead_time_s": r.overhead_time,
            }
            for r in bound.schedule.evictions
        ],
        "budget_time_s": None if bound is None else bound.total_time,
        "replay_spill_bytes": trace.spill_bytes,
    }
    return stats, gates


def run_schedule_experiment(smoke=False):
    """Schedule both graphs and collect the gate evidence."""
    hw = repro.xeon_gold_6240()
    per_graph = {}
    gates = []
    rows = []
    packed, branched = _graphs(smoke)
    for dag, budget_scenario in ((packed, False), (branched, True)):
        stats, graph_gates = _run_graph(dag, hw, budget_scenario)
        per_graph[dag.name] = stats
        gates.extend(graph_gates)
        rows.append([
            dag.name,
            str(stats["nodes"]),
            format_bytes(stats["naive_peak_bytes"]),
            format_bytes(stats["scheduled_peak_bytes"]),
            f"{stats['peak_reduction']:.2f}x",
            f"{stats['scheduled_time_s'] * 1e3:.3f} ms",
            "-" if stats["budget_bytes"] is None else
            f"{len(stats['budget_evictions'])} @ "
            f"{format_bytes(stats['budget_bytes'])}",
        ])
    payload = {
        "mode": "smoke" if smoke else "full",
        "hardware": hw.name,
        "min_peak_reduction": MIN_PEAK_REDUCTION,
        "graphs": per_graph,
    }
    text = render_table(
        ["graph", "nodes", "naive peak", "scheduled peak", "reduction",
         "time", "budget evictions"],
        rows,
    )
    return payload, text, gates


def _finish(payload, text, gates, write_json):
    if write_json:
        write_artifact(
            "graph_schedule",
            payload,
            preset=payload["hardware"],
            gates=gates,
            mode=payload["mode"],
        )
    assert_gates(gates)


def test_graph_schedule(benchmark):
    from conftest import emit, run_once

    payload, text, gates = run_once(
        benchmark, lambda: run_schedule_experiment(smoke=False)
    )
    _finish(payload, text, gates, write_json=True)
    emit("bench_graph_schedule", text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="graph-level scheduling: peak memory vs naive order"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small graphs, same gates, no JSON artifact",
    )
    args = parser.parse_args(argv)
    payload, text, gates = run_schedule_experiment(smoke=args.smoke)
    print(text)
    for name, stats in payload["graphs"].items():
        line = (
            f"{name}: naive {format_bytes(stats['naive_peak_bytes'])} -> "
            f"scheduled {format_bytes(stats['scheduled_peak_bytes'])} "
            f"({stats['peak_reduction']:.2f}x)"
        )
        if stats["budget_bytes"] is not None:
            line += (
                f", {len(stats['budget_evictions'])} eviction(s) under "
                f"{format_bytes(stats['budget_bytes'])} budget"
            )
        print(line)
    _finish(payload, text, gates, write_json=not args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
