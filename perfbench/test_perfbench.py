"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

Runs are shortened by lowering the minimum op count; everything else is
the code the benchmark command runs.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SHORT = 6


@pytest.fixture
def short(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_OPS", SHORT)
    monkeypatch.setattr(run, "SETUPS", 1)


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


def _phase(name, seed, traced=False):
    """A phase of ``workloads.MIN_OPS`` ops and no time budget."""
    tracer = layers.Tracer().install(traced=traced)
    try:
        return run.run_phase(workloads, name, seed, 0.0, tracer, traced)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, short, capsys):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = _result(capsys, "--workload", name, "--seed", "5",
                            "--seconds", "0", "--trace", str(trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= SHORT
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float)
                   for v in result["metrics"].values())
    assert result["metrics"]["trace.unattributed_pct"]["value"] < 100.0


def test_layers_report_zero_where_they_do_not_run(short, capsys):
    result, _ = _result(capsys, "--workload", "chain_cold", "--seed", "5",
                        "--seconds", "0", "--trace", "1")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.solver.slsqp_calls"] > 0
    assert metrics["runtime.pipeline.compile_ms"] > 0
    for idle in ("service.serve_raw_ms", "serving.wire_ms_p50",
                 "runtime.scheduler.schedule_ms", "sim.linecache.sim_ms",
                 "codegen.executor.exec_ms", "service.hit_ratio"):
        assert metrics[idle] == 0.0


def _op_ids(phase):
    return [(op.index, tuple(op.plan_times)) for op in phase["ops"]]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_counts_and_seeds_differ(name, short):
    first, second = _phase(name, 3), _phase(name, 3)
    inexact = run.inexact_keys(first)
    counts = [{k: v for k, v in run.layer_counts(p, SHORT).items()
               if k not in inexact} for p in (first, second)]
    assert counts[0] == counts[1]
    assert _op_ids(first)[:SHORT] == _op_ids(second)[:SHORT]
    other = _phase(name, 4)
    assert _op_ids(other)[:SHORT] != _op_ids(first)[:SHORT]


def test_count_mismatch_between_same_seed_runs_is_reported(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.check_repeatable({"a": 1}, "verify", 1, "d", 100) is None
    assert run.check_repeatable({"a": 1}, "verify", 1, "d", 100) is None
    assert run.check_repeatable({"a": 2}, "verify", 1, "d", 50) is None
    assert "a 1 -> 2" in run.check_repeatable({"a": 2}, "verify", 1, "d",
                                              100)


def _failed(phase):
    return [op.error for op in phase["ops"] if op.error is not None]


def test_perturbed_executor_output_is_a_failed_op(monkeypatch):
    original = workloads.executor.execute_program

    def perturbed(program, inputs, **kwargs):
        outputs = original(program, inputs, **kwargs)
        return {name: value + 1e-2 for name, value in outputs.items()}

    monkeypatch.setattr(workloads.executor, "execute_program", perturbed)
    monkeypatch.setattr(workloads, "MIN_OPS", 3)
    phase = _phase("verify", 1)
    errors = _failed(phase)
    assert len(errors) == len(phase["ops"]) >= 3
    assert all("differs from reference" in e for e in errors)


def test_kernel_less_compile_is_a_failed_op(monkeypatch):
    original = workloads.pipeline.compile_chain

    def no_kernels(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), kernels=())

    monkeypatch.setattr(workloads.pipeline, "compile_chain", no_kernels)
    monkeypatch.setattr(workloads, "MIN_OPS", 2)
    errors = _failed(_phase("chain_cold", 1))
    assert len(errors) == 2 and all("0 kernels" in e for e in errors)


def test_kernel_not_lowered_from_its_plan_is_a_failed_op(monkeypatch):
    original = workloads.pipeline.compile_chain

    def unlowered(*args, **kwargs):
        result = original(*args, **kwargs)
        kernels = tuple(
            dataclasses.replace(k, program=dataclasses.replace(k.program,
                                                               levels=()))
            for k in result.kernels)
        return dataclasses.replace(result, kernels=kernels)

    monkeypatch.setattr(workloads.pipeline, "compile_chain", unlowered)
    monkeypatch.setattr(workloads, "MIN_OPS", 2)
    errors = _failed(_phase("chain_cold", 1))
    assert len(errors) == 2 and all("not lowered from its plan" in e
                                    for e in errors)


def test_changed_network_plan_json_is_a_failed_op(monkeypatch):
    phase_ops = []
    original = workloads.serialization.network_plan_json
    wl = workloads.NetworkWarm(1, layers.Tracer(), "")
    wl.setup()
    monkeypatch.setattr(workloads.serialization, "network_plan_json",
                        lambda plan: original(plan) + " ")
    try:
        phase_ops = wl.run(0.0, 3)
    finally:
        wl.teardown()
    assert all("plan JSON differs" in op.error for op in phase_ops)


def test_corrupted_reply_entry_is_a_failed_op(tmp_path):
    wl = workloads.ServeMixed(1, layers.Tracer(), str(tmp_path))
    try:
        wl.setup()
        ops = wl.run(0.0, 12)
        hits = [op for op in ops if op.reply.warm_start == "exact"]
        assert hits
        other = next(op for op in ops if op is not hits[0])
        hits[0].reply.entry["format_version"] = -1
        other.reply.key = "0" * 64
        wl.after(ops)
    finally:
        wl.teardown()
    assert hits[0].error == "exact-hit entry differs from the filled entry"
    assert other.error == "reply key differs from the local cache_key"
    assert sum(op.error is not None for op in ops) == 2


def test_load_stays_within_nproc():
    assert 1 <= workloads.WIDTH <= workloads.NPROC


def test_program_knobs_and_blas_threads_are_pinned_before_loading():
    import os
    import subprocess

    env = dict(os.environ, REPRO_SEARCH_WORKERS="2", REPRO_WARM_START="0",
               OPENBLAS_NUM_THREADS="4")
    code = ("import json, os, run; print(json.dumps([run.CLEARED_ENV, "
            "[k for k in os.environ if k.startswith('REPRO_')], "
            "os.environ['OPENBLAS_NUM_THREADS']]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=60)
    cleared, left, blas = json.loads(proc.stdout)
    assert {"REPRO_SEARCH_WORKERS", "REPRO_WARM_START"} <= set(cleared)
    assert left == [] and blas == "1"


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_span_self_time_excludes_children():
    parent = ["a", 0.0, 10.0, None, 0, None]
    child = ["b", 2.0, 5.0, parent, 0, None]
    times = layers.layer_times([child, parent], ops=1)
    assert times["core.fusion.decide_ms"] == 0.0
    spans = [["core.solver.solve_tiles", 0.0, 1.0, None, 0, None],
             ["core.solver.slsqp", 0.25, 0.5, None, 0, None]]
    spans[1][3] = spans[0]
    times = layers.layer_times(spans, ops=2)
    assert times["core.solver.refine_ms"] == pytest.approx(1e3 * 0.75 / 2)
    assert times["core.solver.slsqp_ms"] == pytest.approx(1e3 * 0.25 / 2)
    assert layers.unattributed_pct(spans, [(0.0, 2.0)]) == pytest.approx(50.0)
