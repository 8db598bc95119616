"""Reproducibility: planning and measurement must be deterministic."""

import pytest

from repro.core.movement import MovementModel
from repro.core.optimizer import ChimeraOptimizer
from repro.core.reordering import candidate_models, count_orders
from repro.core.search import search_tiles, solve_memo
from repro.hardware import a100, xeon_gold_6240
from repro.ir.chains import batch_gemm_chain, conv_chain, gemm_chain
from repro.sim import simulate_plan
from tests.search_oracle import exhaustive_search_tiles


class TestDeterminism:
    def test_optimizer_is_deterministic(self):
        chain = batch_gemm_chain(4, 256, 64, 64, 256)
        hw = xeon_gold_6240()
        plan_a = ChimeraOptimizer(hw).optimize(chain)
        plan_b = ChimeraOptimizer(hw).optimize(chain)
        for sched_a, sched_b in zip(plan_a.levels, plan_b.levels):
            assert sched_a.order == sched_b.order
            assert dict(sched_a.tiles) == dict(sched_b.tiles)
        assert plan_a.predicted_time == plan_b.predicted_time

    def test_simulation_is_deterministic(self):
        chain = batch_gemm_chain(2, 128, 64, 64, 128)
        hw = a100()
        plan = ChimeraOptimizer(hw).optimize(chain)
        report_a = simulate_plan(plan)
        report_b = simulate_plan(plan)
        assert report_a.boundary_traffic == report_b.boundary_traffic
        assert report_a.time == report_b.time

    @pytest.mark.slow
    def test_conv_planning_deterministic(self):
        chain = conv_chain(1, 32, 28, 28, 64, 32, 1, 1, 3, 1)
        hw = a100()
        orders = {
            ChimeraOptimizer(hw).optimize(chain).outer.order
            for _ in range(3)
        }
        assert len(orders) == 1


class TestTieBreaking:
    """DV ties between distinct orders must resolve by the canonical order
    tuple, not by enumeration position (which shifts under ``max_orders``
    stride sampling)."""

    def test_dv_tie_resolves_to_smallest_order(self):
        # A square GEMM chain is loaded with symmetry: the n<->k exchange
        # maps each order onto one with identical DV.
        chain = gemm_chain(256, 256, 256, 256)
        models = candidate_models(chain).models
        model, solution = exhaustive_search_tiles(models, 256 * 1024.0)
        ties = [
            m.perm
            for m in models
            if exhaustive_search_tiles([m], 256 * 1024.0)[1].dv
            == solution.dv
        ]
        assert len(ties) > 1
        assert model.perm == min(ties)
        solve_memo().clear()
        assert search_tiles(models, 256 * 1024.0)[0].perm == min(ties)

    def test_representative_is_class_minimum(self):
        """Each signature class's representative must be the smallest order
        scanned, not the first encountered (scan position shifts under
        ``max_orders`` sampling)."""
        from repro.core.reordering import enumerate_orders

        chain = conv_chain(1, 64, 56, 56, 64, 64, 1, 1, 3, 3)
        cap = count_orders(chain) // 2
        groups = {}
        for order in enumerate_orders(chain, max_orders=cap):
            sig = MovementModel(chain, order).signature
            groups.setdefault(sig, []).append(order)
        space = candidate_models(chain, max_orders=cap)
        for model in space.models:
            assert model.perm == min(groups[model.signature])

    def test_winning_order_stable_under_truncation(self):
        chain = conv_chain(1, 16, 28, 28, 24, 16, 1, 1, 3, 1)
        hw = xeon_gold_6240()
        solve_memo().clear()
        cfg_full = ChimeraOptimizer(hw).optimize(chain)
        solve_memo().clear()
        from repro.core.optimizer import ChimeraConfig

        truncated = ChimeraOptimizer(
            hw, ChimeraConfig(max_orders=count_orders(chain) // 2)
        ).optimize(chain)
        # The winner's signature class survives any stride sample that still
        # covers the space, and the canonical representative pins the order.
        assert truncated.outer.order == cfg_full.outer.order
