"""Tests for the Chimera inter-block optimizer."""

import dataclasses
from unittest import mock

import pytest

from repro.core.footprint import footprint_bytes
from repro.core.movement import MovementModel
from repro.core.optimizer import ChimeraConfig, ChimeraOptimizer
from repro.core.search import SearchStats, solve_memo
from repro.hardware import a100, ascend_910, xeon_gold_6240
from repro.ir.chains import batch_gemm_chain, conv_chain, gemm_chain


@pytest.fixture(scope="module")
def cpu():
    return xeon_gold_6240()


@pytest.fixture(scope="module")
def square_plan(cpu):
    chain = gemm_chain(2048, 2048, 2048, 2048)
    return ChimeraOptimizer(cpu).optimize(chain)


class TestOptimizer:
    def test_picks_paper_optimal_order_family(self, square_plan):
        # The paper derives mlkn as optimal; our canonical representative
        # is any order with m/l outside and k/n inside.
        outer = square_plan.outer.order
        assert set(outer[:2]) == {"m", "l"}

    def test_every_level_feasible(self, square_plan, cpu):
        for sched in square_plan.levels:
            assert sched.predicted_mu <= sched.capacity * 1.0001

    def test_inner_tiles_nest_in_outer(self, square_plan):
        inner, outer = square_plan.inner, square_plan.outer
        for name, tile in inner.tiles.items():
            assert tile <= outer.tiles.get(name, tile)

    def test_levels_match_hardware(self, square_plan, cpu):
        assert [s.level for s in square_plan.levels] == [
            level.name for level in cpu.on_chip_levels
        ]

    def test_stats_populated(self, cpu):
        chain = gemm_chain(256, 256, 256, 256)
        solve_memo().clear()
        stats = SearchStats()
        ChimeraOptimizer(cpu).optimize(chain, stats=stats)
        assert stats.orders_enumerated > 0
        assert stats.solves > 0
        assert stats.solve_seconds > 0

    def test_producer_reduction_whole_at_outer_levels(self, cpu):
        chain = batch_gemm_chain(8, 512, 64, 64, 512)
        plan = ChimeraOptimizer(cpu).optimize(chain)
        extents = chain.loop_extents()
        for sched in plan.levels[1:]:  # all but innermost
            assert sched.tiles["k"] == extents["k"]

    def test_prefix_consistency_across_levels(self, cpu):
        chain = batch_gemm_chain(8, 512, 64, 64, 512)
        plan = ChimeraOptimizer(cpu).optimize(chain)
        extents = chain.loop_extents()
        for outer_sched, inner_sched in zip(
            reversed(plan.levels), list(reversed(plan.levels))[1:]
        ):
            split = {
                name
                for name, tile in outer_sched.tiles.items()
                if tile < extents[name] and name in outer_sched.order
            }
            assert set(inner_sched.order[: len(split)]) == split

    def test_no_enlarged_buffers_on_lru_hardware(self, cpu):
        # The outermost level keeps intermediates on chip, so its order
        # must not require an enlarged distribution buffer (inner levels
        # charge intermediates as IO instead, so any order is fair there).
        chain = batch_gemm_chain(8, 512, 64, 64, 512)
        plan = ChimeraOptimizer(cpu).optimize(chain)
        model = MovementModel(chain, plan.outer.order)
        assert not model.has_enlarged_buffers

    def test_min_tiles_respected(self, cpu):
        chain = gemm_chain(256, 256, 256, 256)
        config = ChimeraConfig(min_tiles={"n": 64})
        plan = ChimeraOptimizer(cpu, config).optimize(chain)
        assert plan.outer.tiles["n"] >= 64

    def test_gpu_and_npu_backends(self):
        chain = batch_gemm_chain(4, 256, 64, 64, 256)
        for hw in (a100(), ascend_910()):
            plan = ChimeraOptimizer(hw).optimize(chain)
            assert len(plan.levels) == len(hw.on_chip_levels)
            assert plan.predicted_time > 0

    def test_npu_unified_buffer_constraint(self):
        hw = ascend_910()
        chain = batch_gemm_chain(1, 1024, 64, 64, 1024)
        optimizer = ChimeraOptimizer(hw)
        assert optimizer.extra_constraint(chain) is not None
        plan = optimizer.optimize(chain)
        # The intermediate tile must fit the Unified Buffer.
        writes = [
            chain.producers_of(tensor)[0].access_of(tensor)
            for tensor in chain.intermediate_tensors()
        ]
        buffered = sum(
            footprint_bytes(chain, access, plan.inner.tiles)
            for access in writes
        )
        assert buffered <= hw.unified_buffer

    def test_conv_chain_plannable(self, cpu):
        chain = conv_chain(1, 64, 56, 56, 128, 64, 1, 1, 3, 1)
        plan = ChimeraOptimizer(cpu).optimize(chain)
        assert plan.fused
        assert plan.executed_flops >= chain.total_flops() * 0.99

    def test_models_built_only_for_searched_orders(self, cpu):
        """Orders are deduped, ranked and bounded as signature rows: a
        movement model is built only for the ``top_candidates`` orders
        each on-chip level searches, not for each of the chain's 45,360
        canonical orders."""
        chain = conv_chain(1, 64, 56, 56, 64, 64, 1, 1, 3, 3)
        built = []
        original = MovementModel.__init__

        def counting(self, *args, **kwargs):
            built.append(args[1] if len(args) > 1 else kwargs["perm"])
            original(self, *args, **kwargs)

        optimizer = ChimeraOptimizer(cpu)
        with mock.patch.object(MovementModel, "__init__", counting):
            plan = optimizer.optimize(chain)
        assert plan.fused
        levels = len(cpu.on_chip_levels)
        assert 0 < len(built) <= optimizer.config.top_candidates * levels


class TestMultilevel:
    def test_boundary_bandwidth_uses_outer_level(self, square_plan, cpu):
        # The L3 boundary is fed at DRAM speed, each inner one by the
        # next level out.
        assert square_plan.outer.level == "L3"
        assert square_plan.outer.bandwidth == cpu.dram_bandwidth
        for sched in square_plan.levels:
            index = cpu.level_index(sched.level)
            assert sched.bandwidth == cpu.levels[index + 1].bandwidth

    def test_movement_cost(self, square_plan):
        # Eq. 2 per level, Eq. 3 the slowest stage.
        moved = dataclasses.replace(square_plan.outer, predicted_dv=131e9)
        assert moved.cost == pytest.approx(1.0)
        assert square_plan.movement_cost == max(
            sched.cost for sched in square_plan.levels
        )
