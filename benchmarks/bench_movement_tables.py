"""Movement tables: cold exhaustive-order compile speedup.

The claim of the compiled movement tables is that the analytical model
stops being the compile-time bottleneck: ``MovementModel`` compiles once
into :class:`repro.core.tables.MovementTables`, the tile solver runs
one SLSQP start per solve on analytic log-space gradients (with properly
scaled constraints), integer refinement scores its lattice in one
batched call, and the canonical descent scores each pass as stacked
batches.  Every batch runs through the tables' padded kernel, which
evaluates all terms (or accesses) at once.  This
benchmark cold-compiles GEMM + conv chains through the exhaustive order
search (the test oracle ``tests/search_oracle.py``: every candidate
solved, no bound, no memo) on the three single-core hardware presets and
compares:

* **baseline** — the pre-tables solver (dict-based model calls,
  finite-difference SLSQP gradients, raw byte-scale constraints).  That
  solver is no longer in ``src/``; :data:`FD_BASELINE_S` holds its
  per-cell seconds, measured on a fixed host, and the benchmark only
  reads them;
* **tables** — the production solver, timed now.

Gate: aggregate (sum over cells) speedup of tables over the recorded
baseline must be >= 5x.  Per-cell ratios vary — small order spaces are
dominated by order enumeration — so the gate is on the aggregate.  The
baseline was measured on one machine, so on any other the ratio also
carries the speed difference between the two: a slower host reads low, a
faster one high.  Results land in
``benchmarks/results/bench_movement_tables.txt`` and the machine-readable
``benchmarks/results/BENCH_movement_tables.json``.

Run standalone with ``python benchmarks/bench_movement_tables.py
[--smoke]``; ``--smoke`` restricts to two workloads on two presets with a
relaxed 2x gate (CI keeps it quick and flake-free).
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.analysis import render_table
from repro.core.optimizer import ChimeraOptimizer
from repro.core.search import reset_search_stats, solve_memo
from repro.core.tables import clear_tables_memo
from repro.hardware import preset
from repro.workloads import conv_chain_config, gemm_chain_config
from tests.search_oracle import exhaustive_search

RESULTS_JSON = (
    pathlib.Path(__file__).parent / "results" / "BENCH_movement_tables.json"
)

#: Cold exhaustive-order compile seconds of the pre-tables solver per
#: ``preset/workload`` cell: the median of six runs on a 2-vCPU Intel Xeon
#: VM, at the last commit that had the solver (sums 78-94 s per run).
FD_BASELINE_S = {
    "xeon-gold-6240/G1": 0.504,
    "xeon-gold-6240/G4": 0.212,
    "xeon-gold-6240/C4": 1.006,
    "xeon-gold-6240/C6": 7.154,
    "a100/G1": 0.417,
    "a100/G4": 0.298,
    "a100/C4": 0.846,
    "a100/C6": 0.326,
    "ascend-910/G1": 2.840,
    "ascend-910/G4": 3.105,
    "ascend-910/C4": 11.745,
    "ascend-910/C6": 55.853,
}

FULL_GATE = 5.0
SMOKE_WORKLOADS = ("G1", "C4")
SMOKE_PRESETS = ("xeon-gold-6240", "a100")
SMOKE_GATE = 2.0


def _build(name):
    if name.startswith("G"):
        return gemm_chain_config(name).build()
    return conv_chain_config(name).build()


def _cold_compile_s(chain, hw):
    solve_memo().clear()
    clear_tables_memo()
    reset_search_stats()
    optimizer = ChimeraOptimizer(hw)
    with exhaustive_search():
        started = time.perf_counter()
        optimizer.optimize(chain)
        return time.perf_counter() - started


def run_experiment(smoke=False):
    gate = SMOKE_GATE if smoke else FULL_GATE

    cells = {}
    rows = []
    for cell, baseline_s in FD_BASELINE_S.items():
        hw_name, name = cell.split("/")
        if smoke and (
            hw_name not in SMOKE_PRESETS or name not in SMOKE_WORKLOADS
        ):
            continue
        chain, hw = _build(name), preset(hw_name)
        tables_s = min(_cold_compile_s(chain, hw) for _ in range(2))
        cells[cell] = {
            "baseline_s": baseline_s,
            "tables_s": tables_s,
            "speedup": baseline_s / tables_s,
        }
        rows.append([
            cell,
            f"{baseline_s * 1e3:.0f} ms",
            f"{tables_s * 1e3:.0f} ms",
            f"{baseline_s / tables_s:.1f}x",
        ])

    baseline_total = sum(c["baseline_s"] for c in cells.values())
    tables_total = sum(c["tables_s"] for c in cells.values())
    aggregate = baseline_total / tables_total
    payload = {
        "mode": "smoke" if smoke else "full",
        "gate": gate,
        "aggregate_speedup": aggregate,
        "baseline_total_s": baseline_total,
        "tables_total_s": tables_total,
        "cells": cells,
    }
    rows.append([
        "aggregate",
        f"{baseline_total * 1e3:.0f} ms",
        f"{tables_total * 1e3:.0f} ms",
        f"{aggregate:.1f}x",
    ])
    text = render_table(
        ["cell", "baseline (FD, recorded)", "tables", "speedup"],
        rows,
    )
    return payload, text


def _finish(payload, text, write_json):
    if write_json:
        RESULTS_JSON.parent.mkdir(exist_ok=True)
        RESULTS_JSON.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    assert payload["aggregate_speedup"] >= payload["gate"], (
        f"cold exhaustive-order compile speedup was "
        f"{payload['aggregate_speedup']:.2f}x, expected >= "
        f"{payload['gate']:.1f}x"
    )


def test_movement_tables_speedup(benchmark):
    from conftest import emit, run_once

    payload, text = run_once(
        benchmark, lambda: run_experiment(smoke=False)
    )
    _finish(payload, text, write_json=True)
    emit("bench_movement_tables", text)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="two workloads x two presets, relaxed gate, no JSON artifact",
    )
    args = parser.parse_args(argv)
    payload, text = run_experiment(smoke=args.smoke)
    print(text)
    print(f"\naggregate speedup {payload['aggregate_speedup']:.2f}x "
          f"(gate {payload['gate']:.1f}x, mode {payload['mode']})")
    _finish(payload, text, write_json=not args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
