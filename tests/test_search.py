"""Tests for the pruned, memoized order search layer."""

import math
import random

import pytest

from repro.core.footprint import footprint_bytes
from repro.core.movement import MovementModel
from repro.core.optimizer import ChimeraOptimizer
from repro.core.reordering import candidate_models, producer_private_reductions
from repro.core.search import (
    SearchStats,
    chain_digest,
    dv_lower_bound,
    memo_key,
    reset_search_stats,
    search_stats_snapshot,
    search_tiles,
    solve_memo,
    upper_tile_bounds,
)
from repro.core.solver import solve_tiles
from repro.hardware import ascend_910, xeon_gold_6240
from repro.ir.chains import batch_gemm_chain, conv_chain, gemm_chain, mlp_chain
from repro.memo import LRUMemo
from tests.search_oracle import exhaustive_search_tiles

CAPACITY = 256 * 1024.0


@pytest.fixture(autouse=True)
def clean_search_state():
    solve_memo().clear()
    reset_search_stats()
    yield
    solve_memo().clear()
    reset_search_stats()


@pytest.fixture
def chain():
    return gemm_chain(256, 256, 256, 256)


@pytest.fixture
def models(chain):
    return candidate_models(chain).models


class TestBounds:
    def test_upper_bounds_within_extents(self, chain, models):
        extents = chain.loop_extents()
        bounds = upper_tile_bounds(models[0], CAPACITY)
        for name, value in bounds.items():
            assert 1 <= value <= extents[name]

    def test_upper_bounds_respect_parent(self, models):
        bounds = upper_tile_bounds(
            models[0], CAPACITY, max_parent={"m": 17}
        )
        assert bounds["m"] <= 17

    @pytest.mark.parametrize("capacity", [CAPACITY, 2048.0])
    def test_upper_bounds_are_largest_fitting_tiles(
        self, chain, models, capacity
    ):
        """Each bound fits with every other loop at 1; one more does not
        (the batched bisection against the dict-based model)."""
        extents = chain.loop_extents()
        constraint = ChimeraOptimizer(ascend_910()).extra_constraint(chain)
        assert constraint is not None
        writes = [
            chain.producers_of(tensor)[0].access_of(tensor)
            for tensor in chain.intermediate_tensors()
        ]

        def fits(model, tiles):
            buffered = sum(
                footprint_bytes(chain, access, tiles) for access in writes
            )
            return (
                model.usage(tiles) <= capacity
                and buffered <= constraint.capacity
            )

        bisected = 0
        for model in models:
            bounds = upper_tile_bounds(model, capacity, constraint)
            if bounds is None:
                assert not fits(model, {n: 1 for n in extents})
                continue
            for name, value in bounds.items():
                probe = {n: 1 for n in extents}
                probe[name] = value
                assert fits(model, probe)
                if value < extents[name]:
                    bisected += 1
                    probe[name] = value + 1
                    assert not fits(model, probe)
        if capacity < CAPACITY:
            assert bisected

    def test_all_unit_loops_bound_on_all_ones_alone(self):
        model = candidate_models(gemm_chain(1, 1, 1, 1)).models[0]
        assert model.perm == ()
        assert upper_tile_bounds(model, CAPACITY) == {}
        assert upper_tile_bounds(model, 1.0) is None

    def test_bound_is_admissible(self, models):
        """The bound never exceeds the solver's DV on the same inputs."""
        for model in models:
            bound = dv_lower_bound(model, CAPACITY)
            solution = solve_tiles(model, CAPACITY)
            assert bound <= solution.dv * (1 + 1e-9)

    def test_infeasible_order_bounds_to_inf(self, models):
        tight = dv_lower_bound(models[0], 1.0)
        assert tight == math.inf


class TestMemo:
    def test_hit_returns_identical_solution(self, chain, models):
        model = models[0]
        digest = chain_digest(chain)
        key = memo_key(
            digest,
            model,
            CAPACITY,
            hint=None,
            min_tiles=None,
            quanta=None,
            max_parent=None,
            hard_min_tiles=None,
            constraint=None,
        )
        solution = solve_tiles(model, CAPACITY)
        memo = LRUMemo(capacity=8)
        memo.put(key, solution)
        assert memo.get(key) is solution

    def test_symmetric_orders_share_one_entry(self):
        """Equal-signature models produce equal memo keys."""
        chain = batch_gemm_chain(1, 64, 64, 64, 64)
        models = {
            perm: MovementModel(chain, perm)
            for perm in [("m", "l", "k", "n"), ("m", "l", "n", "k")]
        }
        digests = {
            perm: model.signature_digest() for perm, model in models.items()
        }
        a, b = digests.values()
        # n and k are symmetric in the GEMM chain's movement terms.
        assert (a == b) == (
            models[("m", "l", "k", "n")].signature
            == models[("m", "l", "n", "k")].signature
        )

    def test_lru_eviction(self):
        memo = LRUMemo(capacity=2)
        memo.put("a", "A")
        memo.put("b", "B")
        memo.get("a")
        memo.put("c", "C")  # evicts b, the least recently used
        assert memo.get("b") is None
        assert memo.get("a") == "A" and memo.get("c") == "C"

    def test_search_memo_hits_on_repeat(self, models):
        stats_cold = SearchStats()
        search_tiles(models, CAPACITY, stats=stats_cold)
        stats_warm = SearchStats()
        search_tiles(models, CAPACITY, stats=stats_warm)
        assert stats_cold.solves > 0 and stats_cold.memo_hits == 0
        assert stats_warm.solves == 0
        assert stats_warm.memo_hits == stats_cold.solves
        assert stats_warm.pruned == stats_cold.pruned

    def test_hinted_solves_are_keyed_apart(self, models):
        """A warm-started search neither reads nor fills cold entries."""
        hint = {name: 4 for name in models[0].perm}
        cold = SearchStats()
        search_tiles(models, CAPACITY, stats=cold)
        hinted = SearchStats()
        search_tiles(models, CAPACITY, stats=hinted, x0_hint=hint)
        assert hinted.memo_hits == 0 and hinted.solves > 0
        again = SearchStats()
        search_tiles(models, CAPACITY, stats=again, x0_hint=hint)
        assert again.solves == 0 and again.memo_hits == hinted.solves
        assert len(solve_memo()) == cold.solves + hinted.solves


class TestStats:
    def test_counters_add_up(self, models):
        stats = SearchStats()
        search_tiles(models, CAPACITY, stats=stats)
        assert stats.candidates == len(models)
        assert stats.bound_evals == len(models)
        assert stats.pruned + stats.solves + stats.memo_hits == len(models)

    def test_global_snapshot_accumulates(self, models):
        stats = SearchStats()
        search_tiles(models, CAPACITY, stats=stats)
        snap = search_stats_snapshot()
        assert snap["searches"] == 1
        assert snap["solves"] == stats.solves > 0
        assert snap["pruned"] == stats.pruned
        assert snap["memo"]["entries"] == stats.solves

    def test_optimize_stats_surface(self, chain):
        optimizer = ChimeraOptimizer(xeon_gold_6240())
        stats = SearchStats()
        optimizer.optimize(chain, stats=stats)
        assert stats.orders_enumerated > 0
        assert stats.solves + stats.memo_hits > 0
        assert stats.searches == len(xeon_gold_6240().on_chip_levels)
        assert (
            stats.pruned + stats.solves + stats.memo_hits == stats.candidates
        )
        snap = search_stats_snapshot()
        assert snap["orders_enumerated"] == stats.orders_enumerated
        assert snap["pruned"] == stats.pruned


class TestPruningExactness:
    def test_pruned_winner_matches_exhaustive(self):
        """On the preset where pruning bites hardest, answers must agree."""
        chain = gemm_chain(512, 512, 512, 512)
        hw = ascend_910()
        capacity = float(hw.on_chip_levels[-1].capacity) * 0.75
        models = candidate_models(chain).models
        constraint = ChimeraOptimizer(hw).extra_constraint(chain)
        baseline = exhaustive_search_tiles(
            models, capacity, constraint=constraint
        )
        stats = SearchStats()
        pruned = search_tiles(
            models, capacity, constraint=constraint, stats=stats
        )
        assert pruned[0].perm == baseline[0].perm
        assert pruned[1].tiles == baseline[1].tiles
        assert pruned[1].dv == baseline[1].dv
        assert stats.solves < len(models)  # pruning actually engaged


#: Chains the warm-start fuzz searches: GEMM chains with and without
#: softmax, conv chains with the 3x3 kernel first or second, an MLP.
HINT_CHAINS = {
    "gemm": lambda: gemm_chain(512, 256, 128, 384, name="hint_gemm"),
    "batch_gemm": lambda: batch_gemm_chain(4, 256, 64, 64, 256,
                                           name="hint_bgemm"),
    "batch_gemm_softmax": lambda: batch_gemm_chain(
        4, 256, 64, 64, 256, with_softmax=True, name="hint_attn"
    ),
    "conv_3x3_first": lambda: conv_chain(1, 32, 28, 28, 64, 32, 1, 1, 3, 1,
                                         name="hint_conv31"),
    "conv_3x3_second": lambda: conv_chain(1, 32, 28, 28, 64, 32, 1, 1, 1, 3,
                                          name="hint_conv13"),
    "mlp": lambda: mlp_chain(256, 128, 512, 128, name="hint_mlp"),
}


def _hint_outcome(pair):
    model, solution = pair
    return (model.perm, solution.tiles, solution.dv, solution.mu,
            solution.feasible)


class TestWarmStartOrderHint:
    """A neighbor's winning order only reorders the solve sequence.

    Seeded fuzz: for every chain, capacity (tight, medium, loose, and
    below MU at all-ones tiles), the NPU Unified Buffer constraint and an
    inner-level search (parent bounds, hard minimums), the default search
    on a cold memo and again on the warm memo returns exactly what the
    exhaustive oracle returns, and so does a search hinted with a random
    candidate's order, a shuffled loop tuple or foreign names, each on a
    cleared memo (a warm one would answer from the unhinted entries).
    """

    def _assert_hint_free(self, models, capacity, rng, **kwargs):
        oracle = _hint_outcome(
            exhaustive_search_tiles(models, capacity, **kwargs)
        )
        solve_memo().clear()
        cold = search_tiles(models, capacity, **kwargs)
        assert _hint_outcome(cold) == oracle
        warm = search_tiles(models, capacity, **kwargs)
        assert _hint_outcome(warm) == oracle
        names = list(models[0].perm)
        hints = [
            rng.choice(models).perm,
            tuple(rng.sample(names, len(names))),
            ("foreign",) + tuple(names[1:]),
        ]
        for hint in hints:
            solve_memo().clear()
            hinted = search_tiles(
                models, capacity, incumbent_hint=hint, **kwargs
            )
            assert _hint_outcome(hinted) == oracle, hint
        return cold

    @staticmethod
    def _capacities(model):
        extents = model.chain.loop_extents()
        ones = model.usage({name: 1 for name in extents})
        full = model.usage(dict(extents))
        return [ones * (full / ones) ** f for f in (0.15, 0.45, 0.8)] + [
            ones / 2
        ]

    @staticmethod
    def _models(chain, rng, **kwargs):
        models = list(candidate_models(chain, max_orders=2000,
                                       **kwargs).models)
        return rng.sample(models, min(8, len(models)))

    @pytest.mark.parametrize("family", sorted(HINT_CHAINS))
    def test_hint_never_changes_the_winner(self, family):
        rng = random.Random(f"order-hint-{family}")
        chain = HINT_CHAINS[family]()
        models = self._models(chain, rng)
        for capacity in self._capacities(models[0]):
            self._assert_hint_free(models, capacity, rng)

    @pytest.mark.parametrize("family", ["gemm", "batch_gemm_softmax", "mlp"])
    def test_unified_buffer_search(self, family):
        rng = random.Random(f"order-hint-ub-{family}")
        chain = HINT_CHAINS[family]()
        constraint = ChimeraOptimizer(ascend_910()).extra_constraint(chain)
        assert constraint is not None
        models = self._models(chain, rng)
        for capacity in self._capacities(models[0]):
            self._assert_hint_free(
                models, capacity, rng, constraint=constraint
            )

    @pytest.mark.parametrize("family", ["batch_gemm", "conv_3x3_first"])
    def test_inner_level_search(self, family):
        """Outer level with the producer-private reductions pinned (hard
        minimums), then the inner level nested under its tiles."""
        rng = random.Random(f"order-hint-inner-{family}")
        chain = HINT_CHAINS[family]()
        extents = chain.loop_extents()
        pins = {n: extents[n] for n in producer_private_reductions(chain)}
        assert pins
        models = self._models(chain, rng)
        outer_model, outer = self._assert_hint_free(
            models, self._capacities(models[0])[2], rng,
            hard_min_tiles=pins,
        )
        parent = {name: outer.tiles[name] for name in outer_model.perm}
        inner = self._models(
            chain,
            rng,
            prefix=frozenset(n for n, t in parent.items() if t < extents[n]),
            reuse_intermediates=False,
        )
        for capacity in self._capacities(inner[0])[:2]:
            self._assert_hint_free(inner, capacity, rng, max_parent=parent)
