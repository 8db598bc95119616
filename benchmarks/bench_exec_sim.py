"""Compiled-schedule paths: executor and line-simulator speedups.

The compiled schedule flattens a block program once (numpy block tables,
precomputed regions/slices) and every consumer replays it: the numpy
executor dispatches prebuilt per-op closures over BLAS matmuls, and the
line simulator replays a memoized, run-length-coalesced line stream
through a batched LRU — one pass for all cache levels, instead of one
full per-line re-simulation per queried boundary.

The paths they replaced — a per-line simulation that re-walked the loop
tree once per queried boundary, and a tree-walking executor — are no
longer in ``src/``.  :data:`LEGACY_SWEEP_S` and :data:`LEGACY_EXEC_S`
hold their times, measured on a fixed host, and the benchmark only reads
them; :data:`SWEEP_TRAFFIC` holds the per-level traffic the per-line
simulation measured for the same sweep.

Workload: the Bert-Base attention chain (G2, batch GEMM + softmax + batch
GEMM).  Gates: the Figure 8 three-boundary line-traffic sweep must be
>= 5x faster than the recorded legacy sweep with exactly the recorded
traffic at every level, and the executor must be >= 2x faster than the
recorded legacy executor with outputs allclose to ``execute_reference``.
The baselines were measured on one machine, so on any other the ratios
also carry the speed difference between the two: a slower host reads
low, a faster one high.  Results land in
``benchmarks/results/BENCH_exec_sim.json``.
"""

import json
import pathlib
import time

import numpy as np
from conftest import emit, run_once

from repro.analysis import render_table
from repro.codegen import (
    clear_schedule_memo,
    execute_program,
    execute_reference,
    lower_schedule,
    random_inputs,
    schedule_memo_stats,
)
from repro.hardware import xeon_gold_6240
from repro.sim.linecache import simulate_movement_lines
from repro.workloads import gemm_chain_config

MIN_SIM_SPEEDUP = 5.0
MIN_EXEC_SPEEDUP = 2.0
RESULTS_JSON = pathlib.Path(__file__).parent / "results" / "BENCH_exec_sim.json"

#: Seconds of the legacy three-boundary sweep (one per-line simulation per
#: boundary, each re-walking the loop tree) and of the legacy tree-walking
#: executor on this benchmark's workloads: the median over six runs of each
#: run's best time, on a 2-vCPU Intel Xeon VM, at the last commit that had
#: them, alternating with runs of the compiled paths.
LEGACY_SWEEP_S = 0.653
LEGACY_EXEC_S = 0.282
#: Per-level traffic (fill + write-back bytes) of the sweep, as the per-line
#: simulation measured it at that commit.
SWEEP_TRAFFIC = {"L1": 2326528.0, "L2": 1310720.0, "L3": 1310720.0}

ORDER = ("b", "m", "l")
TILES = {"b": 1, "m": 64, "l": 128}


def _attention_chain(batch_override=None):
    return gemm_chain_config("G2").build(
        with_softmax=True, batch_override=batch_override
    )


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def test_exec_sim_fast_paths(benchmark):
    hardware = xeon_gold_6240()

    def experiment():
        # --- line simulator: Figure 8 three-boundary traffic sweep -----
        # Timed fully cold (fresh program, cleared schedule memo), best of
        # a few runs: allocator and GC noise otherwise dominate the tens
        # of milliseconds.
        sim_chain = _attention_chain(batch_override=1)
        fast_sim_s = float("inf")
        for _ in range(3):
            clear_schedule_memo()
            sim_program = lower_schedule(sim_chain, ORDER, TILES)
            seconds, fast_stats = _timed(
                lambda: simulate_movement_lines(
                    sim_chain, hardware, sim_program
                )
            )
            fast_sim_s = min(fast_sim_s, seconds)
        traffic = {
            name: float(stats.fill_bytes + stats.writeback_bytes)
            for name, stats in fast_stats.items()
        }
        assert traffic == SWEEP_TRAFFIC, (
            f"line-sim traffic diverged from the recorded sweep: "
            f"{traffic} != {SWEEP_TRAFFIC}"
        )
        sim_speedup = LEGACY_SWEEP_S / fast_sim_s

        # --- executor: full Bert-Base attention chain ------------------
        exec_chain = _attention_chain()
        exec_program = lower_schedule(exec_chain, ORDER, TILES)
        inputs = random_inputs(exec_chain, 0)
        # The first run also compiles the schedule; the best of two more
        # is timed, like the legacy executor, which compiled nothing.
        outputs = execute_program(exec_program, inputs)
        compiled_exec_s = min(
            _timed(lambda: execute_program(exec_program, inputs))[0]
            for _ in range(2)
        )
        for name, expected in execute_reference(exec_chain, inputs).items():
            np.testing.assert_allclose(
                outputs[name], expected, rtol=1e-9, atol=1e-9,
                err_msg=f"executor diverged from the reference on {name}",
            )
        exec_speedup = LEGACY_EXEC_S / compiled_exec_s

        assert sim_speedup >= MIN_SIM_SPEEDUP, (
            f"line-sim sweep speedup {sim_speedup:.1f}x, "
            f"expected >= {MIN_SIM_SPEEDUP}x"
        )
        assert exec_speedup >= MIN_EXEC_SPEEDUP, (
            f"executor speedup {exec_speedup:.1f}x, "
            f"expected >= {MIN_EXEC_SPEEDUP}x"
        )

        return {
            "workload": exec_chain.name,
            "hardware": hardware.name,
            "line_sim": {
                "legacy_sweep_s": LEGACY_SWEEP_S,
                "fast_sweep_s": fast_sim_s,
                "speedup": sim_speedup,
                "gate": MIN_SIM_SPEEDUP,
                "boundary_traffic_bytes": traffic,
            },
            "executor": {
                "legacy_s": LEGACY_EXEC_S,
                "compiled_s": compiled_exec_s,
                "speedup": exec_speedup,
                "gate": MIN_EXEC_SPEEDUP,
                "blocks": exec_program.block_count(),
            },
            "schedule_memo": schedule_memo_stats(),
        }

    payload = run_once(benchmark, experiment)
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    sim = payload["line_sim"]
    ex = payload["executor"]
    emit(
        "exec_sim_fast_paths",
        render_table(
            ["path", "legacy (recorded)", "compiled", "speedup", "gate"],
            [
                [
                    "line-sim 3-boundary sweep",
                    f"{sim['legacy_sweep_s'] * 1e3:.0f} ms",
                    f"{sim['fast_sweep_s'] * 1e3:.0f} ms",
                    f"{sim['speedup']:.1f}x",
                    f">= {sim['gate']:.0f}x",
                ],
                [
                    f"execute_program ({ex['blocks']} blocks)",
                    f"{ex['legacy_s'] * 1e3:.0f} ms",
                    f"{ex['compiled_s'] * 1e3:.0f} ms",
                    f"{ex['speedup']:.1f}x",
                    f">= {ex['gate']:.0f}x",
                ],
            ],
        )
        + "\n\nline-cache traffic equal to the recorded per-line sweep at "
        + "every level; executor outputs allclose to execute_reference.",
    )
