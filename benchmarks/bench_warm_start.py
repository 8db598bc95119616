"""Shape-generalizing plan cache: warm-started near-miss compiles.

A compile service facing a stream of *near-duplicate* shapes (dynamic
batch/sequence sizes over a handful of chain structures) warm-starts a
miss from the nearest cached plan of the same structure
(:class:`repro.service.ShapeIndex`): the neighbor's winning order is
solved first so the admissible DV bound prunes immediately, and each
tile solve refines from the neighbor's tiles instead of running SLSQP.
That is meant to be latency-only, so the plan must stay
**byte-identical** to a cold compile — the property this benchmark
gates.

A cold tile solve runs a single SLSQP start, so skipping it saves
little: the warm/cold time ratio reads about 1.35-1.6x on the smoke
sweep (2-vCPU VM).  It is measured, printed and written to the
artifact, but not gated — it mostly measured the cost of the cold
side's former four-start sweep.

This benchmark fuzzes a sweep of perturbed GEMM-chain shapes per hardware
preset and serves each through two services:

* **cold** — a fresh ``CompileService()`` per shape: its shape index is
  empty, so the shape runs the full optimizer cold;
* **warm** — one ``CompileService()`` seeded with one base shape: every
  fuzzed shape is a near miss and must compile with
  ``warm_start == "near"``.

Process-global memos (solve memo, tables memo) are cleared before every
timed compile, so any measured speedup comes from the hints alone.

Gate: every warm plan must serialize byte-identically to its cold twin.
The aggregate ratio (total cold seconds / total warm seconds over the
sweep) is reported alongside.  Results land in
``benchmarks/results/bench_warm_start.txt`` and
``benchmarks/results/BENCH_warm_start.json`` (shared artifact envelope).

Run standalone with ``python benchmarks/bench_warm_start.py [--smoke]``;
``--smoke`` restricts to a few shapes on one preset (CI keeps it quick)
under the same gate.
"""

import argparse
import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from artifact import assert_gates, gate, write_artifact
from repro.analysis import render_table
from repro.core.search import reset_search_stats, solve_memo
from repro.core.tables import clear_tables_memo
from repro.hardware import all_presets
from repro.ir.chains import gemm_chain
from repro.runtime.serialization import plan_to_dict
from repro.service import WARM_NEAR, CompileService

#: Base GEMM-chain shape (m, n, k, l); the sweep perturbs every extent.
BASE_SHAPE = (512, 512, 512, 128)
FUZZ_SEED = 0x5EED

FULL_SHAPES = 50
SMOKE_SHAPES = 6
SMOKE_PRESETS = ("xeon-gold-6240",)


def _fuzz_shapes(count, seed):
    """Deterministic sweep of distinct perturbed shapes (base excluded)."""
    rng = random.Random(seed)
    seen = {BASE_SHAPE}
    shapes = []
    while len(shapes) < count:
        shape = tuple(
            max(32, int(round(extent * rng.uniform(0.7, 1.3) / 8)) * 8)
            for extent in BASE_SHAPE
        )
        if shape in seen:
            continue
        seen.add(shape)
        shapes.append(shape)
    return shapes


def _clear_memos():
    """Warm starts must earn their speedup without memo contamination."""
    solve_memo().clear()
    clear_tables_memo()
    reset_search_stats()


def _canonical(served):
    decision = served.result.decision
    return json.dumps(
        {
            "use_fusion": decision.use_fusion,
            "fused": (
                None
                if decision.fused_plan is None
                else plan_to_dict(decision.fused_plan)
            ),
            "unfused": [plan_to_dict(p) for p in decision.unfused_plans],
        },
        sort_keys=True,
    )


def _timed_serve(service, chain, hw):
    _clear_memos()
    started = time.perf_counter()
    served = service.serve((chain, hw))
    return served, time.perf_counter() - started


def run_experiment(smoke=False):
    shape_count = SMOKE_SHAPES if smoke else FULL_SHAPES
    presets = [
        hw
        for hw in all_presets()
        if not smoke or hw.name in SMOKE_PRESETS
    ]
    shapes = _fuzz_shapes(shape_count, FUZZ_SEED)

    per_preset = {}
    rows = []
    mismatches = 0
    for hw in presets:
        warm_service = CompileService()
        # Seed the warm service's shape index with the base shape.
        _clear_memos()
        warm_service.serve((gemm_chain(*BASE_SHAPE), hw))

        cold_total = 0.0
        warm_total = 0.0
        near_count = 0
        for shape in shapes:
            warm_served, warm_s = _timed_serve(
                warm_service, gemm_chain(*shape), hw
            )
            cold_served, cold_s = _timed_serve(
                CompileService(), gemm_chain(*shape), hw
            )
            assert warm_served.ok and cold_served.ok
            if warm_served.warm_start == WARM_NEAR:
                near_count += 1
            if _canonical(warm_served) != _canonical(cold_served):
                mismatches += 1
            warm_total += warm_s
            cold_total += cold_s

        speedup = cold_total / warm_total
        per_preset[hw.name] = {
            "cold_total_s": cold_total,
            "warm_total_s": warm_total,
            "speedup": speedup,
            "shapes": len(shapes),
            "near_starts": near_count,
        }
        rows.append([
            hw.name,
            str(len(shapes)),
            f"{near_count}/{len(shapes)}",
            f"{cold_total * 1e3:.0f} ms",
            f"{warm_total * 1e3:.0f} ms",
            f"{speedup:.2f}x",
        ])

    cold_total = sum(p["cold_total_s"] for p in per_preset.values())
    warm_total = sum(p["warm_total_s"] for p in per_preset.values())
    aggregate = cold_total / warm_total
    payload = {
        "mode": "smoke" if smoke else "full",
        "aggregate_speedup": aggregate,
        "cold_total_s": cold_total,
        "warm_total_s": warm_total,
        "plan_mismatches": mismatches,
        "base_shape": list(BASE_SHAPE),
        "fuzz_seed": FUZZ_SEED,
        "presets": per_preset,
    }
    rows.append([
        "aggregate",
        str(len(shapes) * len(presets)),
        "",
        f"{cold_total * 1e3:.0f} ms",
        f"{warm_total * 1e3:.0f} ms",
        f"{aggregate:.2f}x",
    ])
    text = render_table(
        ["preset", "shapes", "near", "cold", "warm", "speedup"], rows
    )
    gates = [
        gate(
            "warm-plans-byte-identical",
            payload["plan_mismatches"] == 0,
            f"{payload['plan_mismatches']} warm-started plan(s) diverged "
            "from their cold twins",
        ),
    ]
    return payload, text, gates


def _finish(payload, text, gates, write_json):
    if write_json:
        write_artifact(
            "warm_start",
            payload,
            preset=",".join(payload["presets"]),
            gates=gates,
            mode=payload["mode"],
        )
    assert_gates(gates)


def test_warm_start_speedup(benchmark):
    from conftest import emit, run_once

    payload, text, gates = run_once(
        benchmark, lambda: run_experiment(smoke=False)
    )
    _finish(payload, text, gates, write_json=True)
    emit("bench_warm_start", text)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="few shapes on one preset, same gate, no JSON artifact",
    )
    args = parser.parse_args(argv)
    payload, text, gates = run_experiment(smoke=args.smoke)
    print(text)
    print(f"\naggregate speedup {payload['aggregate_speedup']:.2f}x "
          f"(mode {payload['mode']}, "
          f"mismatches {payload['plan_mismatches']})")
    _finish(payload, text, gates, write_json=not args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
