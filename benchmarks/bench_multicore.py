"""Multi-core scale-out: fusion across cores vs. per-core-unfused.

The block-to-core partitioning axis (:mod:`repro.core.multicore`) shards
a fused chain over ``p`` cores and prices the inter-core traffic with the
preset's :class:`repro.hardware.InterCoreLink`.  The crossover this
benchmark demonstrates: on movement-bound chains (attention batch GEMMs,
where DV at the shared boundary scales like ``1/sqrt(capacity)``),
fusing *across* cores — each core owning a shard of the batch, link
traffic priced in — beats running the per-core-unfused kernels, while
compute-bound FFN chains correctly keep the aggregate plan.

Gates (written to ``BENCH_multicore.json`` via the shared artifact
envelope):

* at least one (multi-core preset, workload) pair chooses a fused plan
  that is partitioned across cores;
* on at least one preset, that fused-across-cores plan is modeled at
  ``>= MIN_CROSSOVER``x over the per-core-unfused alternative.

Exact communication bytes are pinned in ``tests/test_multicore.py`` and
whole fusion decisions on every link preset in
``tests/data/golden_plans.json``.

Run standalone with ``python benchmarks/bench_multicore.py [--smoke]``;
smoke shrinks the shapes but enforces the same gates.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from artifact import assert_gates, gate, write_artifact
from repro.analysis import render_table
from repro.core.fusion import decide_fusion
from repro.core.search import reset_search_stats, solve_memo
from repro.core.tables import clear_tables_memo
from repro.hardware import multicore_presets
from repro.ir.chains import batch_gemm_chain, mlp_chain

#: Modeled end-to-end win required of fused-across-cores on >= 1 preset.
MIN_CROSSOVER = 2.0


def _workloads(smoke):
    """Crossover pair: movement-bound attention, compute-bound FFN."""
    if smoke:
        return {
            "attention": batch_gemm_chain(
                8, 512, 64, 64, 512, with_softmax=True
            ),
            "ffn": mlp_chain(512, 1024, 4096, 1024),
        }
    return {
        "attention": batch_gemm_chain(
            8, 1024, 64, 64, 1024, with_softmax=True
        ),
        "ffn": mlp_chain(2048, 1024, 4096, 1024),
    }


def _clear_memos():
    solve_memo().clear()
    reset_search_stats()
    clear_tables_memo()


def _describe_partition(plan):
    part = plan.partition
    if part is None:
        return "-"
    return f"p{part.cores}@{part.loop}"


def run_multicore_experiment(smoke=False):
    """Sweep workloads across the multi-core presets, collect evidence."""
    workloads = _workloads(smoke)
    presets = multicore_presets()
    results = []
    rows = []
    for hw in presets:
        for label, chain in workloads.items():
            _clear_memos()
            started = time.perf_counter()
            decision = decide_fusion(chain, hw)
            elapsed = time.perf_counter() - started
            part = decision.fused_plan.partition
            entry = {
                "preset": hw.name,
                "workload": label,
                "chain": chain.name,
                "use_fusion": decision.use_fusion,
                "partitioned": part is not None,
                "cores": 1 if part is None else part.cores,
                "partition_loop": None if part is None else part.loop,
                "comm_bytes": 0 if part is None else part.comm_bytes,
                "comm_steps": 0 if part is None else part.comm_steps,
                "fused_time_s": decision.fused_time,
                "unfused_time_s": decision.unfused_time,
                "speedup_vs_unfused": decision.predicted_speedup,
                "compile_seconds": elapsed,
            }
            results.append(entry)
            rows.append([
                hw.name,
                label,
                "fuse" if decision.use_fusion else "split",
                _describe_partition(decision.fused_plan),
                f"{decision.fused_time * 1e6:.1f} us",
                f"{decision.unfused_time * 1e6:.1f} us",
                f"{decision.predicted_speedup:.2f}x",
            ])

    crossover = [
        r for r in results
        if r["use_fusion"] and r["partitioned"]
    ]
    best = max(
        crossover,
        key=lambda r: r["speedup_vs_unfused"],
        default=None,
    )

    gates = [
        gate(
            "fused-across-cores-chosen",
            best is not None,
            "no (preset, workload) chose a partitioned fused plan"
            if best is None else
            f"{best['preset']}/{best['workload']}: p{best['cores']} along "
            f"{best['partition_loop']}",
        ),
        gate(
            f"crossover-{MIN_CROSSOVER}x-vs-per-core-unfused",
            best is not None
            and best["speedup_vs_unfused"] >= MIN_CROSSOVER,
            "no partitioned winner" if best is None else
            f"{best['preset']}/{best['workload']}: "
            f"{best['speedup_vs_unfused']:.2f}x",
        ),
    ]
    payload = {
        "mode": "smoke" if smoke else "full",
        "min_crossover": MIN_CROSSOVER,
        "presets": [hw.name for hw in presets],
        "results": results,
        "best_crossover": best,
    }
    text = render_table(
        ["preset", "workload", "decision", "partition", "fused",
         "unfused", "speedup"],
        rows,
    )
    return payload, text, gates


def _finish(payload, text, gates, write_json):
    if write_json:
        write_artifact(
            "multicore",
            payload,
            preset=",".join(payload["presets"]),
            gates=gates,
            mode=payload["mode"],
        )
    assert_gates(gates)


def test_multicore(benchmark):
    from conftest import emit, run_once

    payload, text, gates = run_once(
        benchmark, lambda: run_multicore_experiment(smoke=False)
    )
    _finish(payload, text, gates, write_json=True)
    emit("bench_multicore", text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="multi-core scale-out: fusion across cores vs "
                    "per-core-unfused"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small shapes, same gates, no JSON artifact",
    )
    args = parser.parse_args(argv)
    payload, text, gates = run_multicore_experiment(smoke=args.smoke)
    print(text)
    best = payload["best_crossover"]
    if best is not None:
        print(
            f"best crossover: {best['preset']}/{best['workload']} "
            f"fused over {best['cores']} cores along "
            f"{best['partition_loop']} — "
            f"{best['speedup_vs_unfused']:.2f}x vs per-core-unfused"
        )
    _finish(payload, text, gates, write_json=not args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
