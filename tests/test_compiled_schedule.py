"""Equivalence suite for the compiled-schedule paths.

The compiled schedule and its consumers (executor, materialized trace,
vectorized line simulator) must be *indistinguishable* from the
references: allclose numerics against the whole-operator executor, and
identical traces and field-by-field equal cache counters against the
tree-walking tracer and per-line hierarchy of ``tests/line_oracle.py``.
Random chains, orders and tilings across every chain family exercise the
clamped-edge, halo and partial-reduction corners.
"""

import gc
import random
import weakref

import numpy as np
import pytest

from repro.codegen import (
    compile_schedule,
    execute_program,
    execute_reference,
    lower_schedule,
    program_digest,
    random_inputs,
)
from repro.codegen.program import LevelSpec, lower_levels, lower_plan
from repro.codegen.schedule import clear_schedule_memo
from repro.core.optimizer import ChimeraOptimizer
from repro.hardware import xeon_gold_6240
from repro.ir.chains import batch_gemm_chain, conv_chain, separable_chain
from repro.sim.cache import RegionCache
from repro.sim.hierarchy import MemoryHierarchySim
from repro.sim.linecache import measure_movement_lines, simulate_movement_lines
from repro.sim.trace import materialize_trace

from tests.line_oracle import (
    simulate_lines_reference,
    trace_program_interpreted,
)
from tests.test_fuzz_chains import _random_chain, _random_order_and_tiles

HW = xeon_gold_6240()


def _random_program(rng: random.Random, chain):
    """A random single- or two-level block program for ``chain``."""
    order, tiles = _random_order_and_tiles(rng, chain)
    if rng.random() < 0.5:
        return lower_schedule(chain, order, tiles)
    outer = {name: tile * rng.choice([2, 4]) for name, tile in tiles.items()}
    return lower_levels(
        chain,
        [LevelSpec(order=order, tiles=outer), LevelSpec(order=order, tiles=tiles)],
    )


def _family_programs(seed: int):
    """One random program per chain family."""
    rng = random.Random(seed)
    chains = [
        _random_chain(rng),  # random gemm or conv family
        batch_gemm_chain(
            2, 12, 8, 8, 12,
            with_softmax=rng.random() < 0.7,
            qkt_layout=rng.random() < 0.5,
        ),
        separable_chain(1, rng.choice([4, 6]), 10, 10, 4, kernel=3,
                        with_relu=rng.random() < 0.5),
        conv_chain(1, 4, 10, 10, 6, 4, k1=3, k2=rng.choice([1, 3])),
    ]
    return [(chain, _random_program(rng, chain)) for chain in chains]


@pytest.mark.parametrize("seed", range(6))
def test_fuzzed_compiled_executor_matches_reference(seed):
    for chain, program in _family_programs(seed):
        inputs = random_inputs(chain, seed)
        compiled = execute_program(program, inputs)
        reference = execute_reference(chain, inputs)
        for name, expected in reference.items():
            np.testing.assert_allclose(
                compiled[name], expected, rtol=1e-9, atol=1e-11,
                err_msg=f"seed {seed} compiled vs reference on {chain.name}",
            )


@pytest.mark.parametrize("seed", range(6))
def test_fuzzed_trace_matches_interpreted(seed):
    for _, program in _family_programs(seed):
        assert list(materialize_trace(program)) == list(
            trace_program_interpreted(program)
        )


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_line_sim_stats_exactly_equal(seed):
    for chain, program in _family_programs(seed):
        fast = simulate_movement_lines(chain, HW, program)
        scalar = simulate_lines_reference(chain, HW, program)
        assert list(fast) == list(scalar)
        for name in scalar:
            assert fast[name] == scalar[name], (
                f"seed {seed} {chain.name} level {name}: "
                f"{fast[name]} != {scalar[name]}"
            )


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_boundary_query_engines_agree(seed):
    rng = random.Random(1000 + seed)
    chain = _random_chain(rng)
    program = _random_program(rng, chain)
    reference = simulate_lines_reference(chain, HW, program)
    for level in [lv.name for lv in HW.on_chip_levels]:
        fast = measure_movement_lines(chain, HW, program, level)
        stats = reference[level]
        scalar = float(stats.fill_bytes + stats.writeback_bytes)
        assert fast == scalar


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_region_sim_matches_interpreted_replay(seed):
    for chain, program in _family_programs(seed):
        fast_sim = MemoryHierarchySim(HW)
        for access in materialize_trace(program):
            if access.write:
                fast_sim.write(access.key, access.nbytes)
            else:
                fast_sim.read(access.key, access.nbytes)
        fast_sim.flush()

        ref_sim = MemoryHierarchySim(HW)
        for access in trace_program_interpreted(program):
            if access.write:
                ref_sim.write(access.key, access.nbytes)
            else:
                ref_sim.read(access.key, access.nbytes)
        ref_sim.flush()

        assert fast_sim.boundary_traffic() == ref_sim.boundary_traffic()
        for name, stats in ref_sim.stats().items():
            assert fast_sim.stats()[name] == stats


@pytest.mark.parametrize("seed", range(6))
def test_block_count_matches_compiled_and_traversal(seed):
    for _, program in _family_programs(seed):
        schedule = compile_schedule(program)
        walked = len(list(program.iterate_blocks()))
        assert program.block_count() == schedule.n_blocks == walked
        assert sum(t.blocks for t in schedule.tables) == schedule.n_blocks


def test_schedule_memoized_per_instance_and_digest():
    chain = batch_gemm_chain(2, 12, 8, 8, 12, with_softmax=True)
    program = lower_schedule(chain, ("b", "m", "l"), {"b": 1, "m": 4, "l": 4})
    relowered = lower_schedule(chain, ("b", "m", "l"), {"b": 1, "m": 4, "l": 4})
    assert program is not relowered
    assert program_digest(program) == program_digest(relowered)
    # Same instance: same object.  Re-lowered: digest memo returns the
    # already-built schedule.
    assert compile_schedule(program) is compile_schedule(program)
    assert compile_schedule(relowered) is compile_schedule(program)
    other = lower_schedule(chain, ("b", "m", "l"), {"b": 1, "m": 4, "l": 8})
    assert program_digest(other) != program_digest(program)


def test_schedule_dies_with_its_program_without_a_gc_pass():
    """Program and schedule must not keep each other alive: with the
    cyclic GC off, dropping the program and the digest memo frees the
    schedule, its tables and its cache (trace, line streams)."""
    chain = batch_gemm_chain(2, 24, 16, 16, 24, with_softmax=True)
    plan = ChimeraOptimizer(HW).optimize(chain)
    gc.collect()
    gc.disable()
    try:
        program = lower_plan(plan)
        execute_program(program, random_inputs(chain))
        simulate_movement_lines(chain, HW, program)
        schedule = weakref.ref(compile_schedule(program))
        del program
        clear_schedule_memo()
        assert schedule() is None
    finally:
        gc.enable()


def test_materialized_trace_cached_on_schedule():
    chain = batch_gemm_chain(2, 12, 8, 8, 12)
    program = lower_schedule(chain, ("b", "m"), {"b": 1, "m": 4})
    first = materialize_trace(program)
    assert materialize_trace(program) is first
    # A re-lowered equal program shares the schedule, hence the trace.
    relowered = lower_schedule(chain, ("b", "m"), {"b": 1, "m": 4})
    assert materialize_trace(relowered) is first


def test_compiled_schedule_describe_and_table_lookup():
    chain = batch_gemm_chain(2, 12, 8, 8, 12)
    program = lower_schedule(chain, ("b", "m"), {"b": 1, "m": 4})
    schedule = compile_schedule(program)
    text = schedule.describe()
    assert str(schedule.n_blocks) in text
    for op in chain.ops:
        assert schedule.table_for(op.name).op.name == op.name
    with pytest.raises(KeyError):
        schedule.table_for("nonexistent")


def test_region_cache_eviction_chaining_is_public():
    spills = []
    inner = RegionCache("inner", 64)
    assert inner.on_evict is None
    inner.on_evict = lambda key, nbytes, dirty: spills.append(
        (key, nbytes, dirty)
    )
    inner.access("a", 48, write=True)
    inner.access("b", 48)  # evicts dirty "a"
    assert spills == [("a", 48, True)]
    assert inner.on_evict is not None


def test_hierarchy_chains_evictions_without_private_pokes():
    sim = MemoryHierarchySim(HW)
    for index, cache in enumerate(sim.caches):
        if index < len(sim.caches) - 1:
            assert cache.on_evict is not None
        else:
            assert cache.on_evict is None
