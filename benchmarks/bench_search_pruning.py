"""Order-search pruning: cold-compile latency with and without the bound.

The inter-block search solves a constrained tile-size problem per candidate
order; the DV lower bound (``repro.core.search``) skips solves that cannot
beat the incumbent and the solve memo collapses symmetric orders.  This
benchmark cold-compiles the attention GEMM chain (G1) on every hardware
preset through the exhaustive oracle (``tests/search_oracle.py``: every
candidate solved, no bound, no memo) and through the production search,
and reports latency plus orders solved vs. pruned.

Gates (written to ``BENCH_search_pruning.json`` via the shared artifact
envelope):

* the exhaustive and pruned paths pick byte-identical plans on every
  preset, in every run;
* the pruned path is >= ``MIN_SPEEDUP``x faster on the preset whose
  candidate space is large (the NPU preset enumerates the most orders).

Each path's latency is the median of ``RUNS`` cold runs: one cold solve
of G1 takes tens of milliseconds, so a single timing swings with the
host's load.

Run standalone with ``python benchmarks/bench_search_pruning.py
[--smoke]``; smoke restricts to the gated preset but enforces the same
gates.
"""

import argparse
import json
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from artifact import assert_gates, gate, write_artifact
from repro.analysis import render_table
from repro.core.optimizer import ChimeraOptimizer
from repro.core.search import SearchStats, reset_search_stats, solve_memo
from repro.hardware import all_presets
from repro.runtime.serialization import plan_to_dict
from repro.workloads import gemm_chain_config
from tests.search_oracle import exhaustive_search

#: The preset whose order space is rich enough to demand the >= 3x bar.
GATED_PRESET = "ascend-910"
MIN_SPEEDUP = 3.0
#: Cold runs per path and preset; the reported latency is their median.
RUNS = 5


def cold_optimize(chain, hw):
    """One cold inter-block pass: empty memo, fresh optimizer."""
    solve_memo().clear()
    reset_search_stats()
    stats = SearchStats()
    optimizer = ChimeraOptimizer(hw)
    started = time.perf_counter()
    plan = optimizer.optimize(chain, stats=stats)
    elapsed = time.perf_counter() - started
    return plan, stats, elapsed


def cold_optimize_exhaustive(chain, hw):
    """:func:`cold_optimize` through the exhaustive oracle search."""
    with exhaustive_search():
        return cold_optimize(chain, hw)


def alternating_runs(chain, hw):
    """``RUNS`` cold runs of each path, alternating so drift hits both.

    Returns, per path (exhaustive, then pruned), every run's plan JSON,
    the first run's stats and the median seconds.
    """
    runs = {cold_optimize_exhaustive: [], cold_optimize: []}
    for _ in range(RUNS):
        for optimize, done in runs.items():
            done.append(optimize(chain, hw))
    return [
        (
            [json.dumps(plan_to_dict(plan), sort_keys=True)
             for plan, _, _ in done],
            done[0][1],
            statistics.median(elapsed for _, _, elapsed in done),
        )
        for done in runs.values()
    ]


def run_pruning_experiment(smoke=False):
    chain = gemm_chain_config("G1").build()
    presets = [
        hw
        for hw in all_presets()
        if not smoke or hw.name == GATED_PRESET
    ]
    rows = []
    per_preset = {}
    divergent = []
    for hw in presets:
        (base_texts, base_stats, base_s), (fast_texts, fast_stats, fast_s) = (
            alternating_runs(chain, hw)
        )
        if any(text != base_texts[0] for text in base_texts + fast_texts):
            divergent.append(hw.name)
        per_preset[hw.name] = {
            "exhaustive_s": base_s,
            "exhaustive_solves": base_stats.solves,
            "pruned_s": fast_s,
            "pruned_solves": fast_stats.solves,
            "pruned": fast_stats.pruned,
            "memo_hits": fast_stats.memo_hits,
            "speedup": base_s / fast_s,
        }
        rows.append(
            [
                hw.name,
                f"{base_s * 1e3:.0f} ms ({base_stats.solves} solves)",
                f"{fast_s * 1e3:.0f} ms ({fast_stats.solves} solves)",
                str(fast_stats.pruned),
                str(fast_stats.memo_hits),
                f"{base_s / fast_s:.1f}x",
            ]
        )
    gated = per_preset[GATED_PRESET]["speedup"]
    gates = [
        gate(
            "pruned-plans-byte-identical",
            not divergent,
            "a run's plan diverged from the exhaustive plan on: "
            + ", ".join(divergent)
            if divergent
            else f"{len(presets)} preset(s) byte-identical in all "
            f"{2 * RUNS} runs",
        ),
        gate(
            f"{GATED_PRESET}-speedup-{MIN_SPEEDUP:.0f}x",
            gated >= MIN_SPEEDUP,
            f"pruning+memoization speedup {gated:.1f}x "
            f"(medians of {RUNS} runs)",
        ),
    ]
    payload = {
        "mode": "smoke" if smoke else "full",
        "workload": "G1",
        "gated_preset": GATED_PRESET,
        "min_speedup": MIN_SPEEDUP,
        "runs": RUNS,
        "presets": per_preset,
    }
    text = (
        render_table(
            [
                "hardware", "exhaustive", "pruned+memo",
                "pruned", "memo hits", "speedup",
            ],
            rows,
        )
        + f"\n\nmedians of {RUNS} cold runs per path; plans "
        + "byte-identical on every preset; "
        + f"{GATED_PRESET} speedup {gated:.1f}x "
        + f"(gate: >= {MIN_SPEEDUP:.0f}x)"
    )
    return payload, text, gates


def _finish(payload, text, gates, write_json):
    if write_json:
        write_artifact(
            "search_pruning",
            payload,
            preset=",".join(payload["presets"]),
            gates=gates,
            mode=payload["mode"],
        )
    assert_gates(gates)


def test_search_pruning_speedup(benchmark):
    from conftest import emit, run_once

    payload, text, gates = run_once(
        benchmark, lambda: run_pruning_experiment(smoke=False)
    )
    _finish(payload, text, gates, write_json=True)
    emit("search_pruning", text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="order-search pruning vs the exhaustive baseline"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="gated preset only, same gates, no JSON artifact",
    )
    args = parser.parse_args(argv)
    payload, text, gates = run_pruning_experiment(smoke=args.smoke)
    print(text)
    _finish(payload, text, gates, write_json=not args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
