"""Tests for the constrained tile-size solver."""

import contextlib
import math
import random
from unittest import mock

import pytest

import repro.core.solver as solver_module
from repro.core.movement import MovementModel
from repro.core.solver import gemm_chain_closed_form, solve_tiles
from repro.core.tables import FootprintConstraint
from repro.ir.chains import batch_gemm_chain, gemm_chain


@contextlib.contextmanager
def _searches_spied():
    """Record which search stages ``solve_tiles`` runs in the block."""
    searched = []
    minimize = solver_module.optimize.minimize
    refine = solver_module._integer_refine

    def spy_minimize(*args, **kwargs):
        searched.append("slsqp")
        return minimize(*args, **kwargs)

    def spy_refine(*args, **kwargs):
        searched.append("refine")
        return refine(*args, **kwargs)

    with mock.patch.object(
        solver_module.optimize, "minimize", spy_minimize
    ), mock.patch.object(solver_module, "_integer_refine", spy_refine):
        yield searched


@pytest.fixture
def chain():
    return gemm_chain(2048, 2048, 2048, 2048)


@pytest.fixture
def model(chain):
    return MovementModel(chain, ("m", "l", "k", "n"))


class TestClosedForm:
    def test_paper_solution(self):
        # T_M* = T_L* = -alpha + sqrt(alpha^2 + MC), T_N* = T_K* = alpha.
        mc = 1_000_000.0
        tiles = gemm_chain_closed_form(2048, 2048, 2048, 2048, mc, alpha=8)
        t = -8 + math.sqrt(64 + mc)
        assert tiles["m"] == pytest.approx(t)
        assert tiles["l"] == pytest.approx(t)
        assert tiles["n"] == 8 and tiles["k"] == 8

    def test_memory_exactly_consumed(self):
        mc = 500_000.0
        tiles = gemm_chain_closed_form(4096, 4096, 4096, 4096, mc, alpha=8)
        t, a = tiles["m"], tiles["n"]
        # GEMM1 usage: T_M*T_K + T_K*T_L + T_M*T_L = t^2 + 2*alpha*t = MC.
        assert t * t + 2 * a * t == pytest.approx(mc)

    def test_clipped_to_extents(self):
        tiles = gemm_chain_closed_form(64, 64, 64, 64, 1e9, alpha=8)
        assert tiles["m"] == 64 and tiles["l"] == 64

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            gemm_chain_closed_form(64, 64, 64, 64, 0)


class TestSolveTiles:
    def test_matches_closed_form(self, model):
        # The paper's Lagrange solution, floored to integers, is a
        # feasible point of the same problem.  The returned integer tiles
        # sit at the canonical corner of the exact-DV plateau (minimal
        # MU), so they are compared via the DV and MU they achieve rather
        # than by proximity to the continuous point.
        capacity = 1024 * 1024.0  # 1MB
        solution = solve_tiles(
            model, capacity, min_tiles={"m": 8, "n": 8, "k": 8, "l": 8}
        )
        closed = gemm_chain_closed_form(
            2048, 2048, 2048, 2048, capacity / 2, alpha=8
        )
        assert solution.feasible
        assert solution.tiles["n"] == 8 and solution.tiles["k"] == 8
        # Same ceil bucket as the closed-form point -> identical exact DV,
        # and the canonical corner never spends more memory than the
        # floored closed-form tiles would.
        floored = {
            name: max(1, int(value)) for name, value in closed.items()
        }
        assert solution.dv <= model.volume(floored, exact=True)
        assert solution.mu <= model.usage(floored)

    def test_respects_capacity(self, model):
        capacity = 200_000.0
        solution = solve_tiles(model, capacity)
        assert solution.mu <= capacity
        assert solution.feasible

    def test_respects_min_tiles(self, model):
        solution = solve_tiles(
            model, 1024 * 1024.0, min_tiles={"n": 32, "k": 16}
        )
        assert solution.tiles["n"] >= 32
        assert solution.tiles["k"] >= 16

    def test_respects_parent_bounds(self, model):
        parent = {"m": 100, "l": 100, "k": 2048, "n": 2048}
        solution = solve_tiles(model, 1024 * 1024.0, max_parent=parent)
        assert solution.tiles["m"] <= 100
        assert solution.tiles["l"] <= 100

    def test_parent_bound_wins_over_min_tile(self, model):
        solution = solve_tiles(
            model,
            1024 * 1024.0,
            min_tiles={"m": 64},
            max_parent={"m": 16, "l": 2048, "k": 2048, "n": 2048},
        )
        assert solution.tiles["m"] <= 16

    def test_quanta_snapping(self, model):
        solution = solve_tiles(
            model, 1024 * 1024.0, quanta={"m": 16, "l": 16}
        )
        assert solution.tiles["m"] % 16 == 0
        assert solution.tiles["l"] % 16 == 0

    def test_extra_constraint(self, chain, model):
        """An access-group bound on the intermediate ``C[m, l]`` (FP16)."""
        limit = 5_000.0
        write = chain.producers_of("C")[0].access_of("C")
        constraint = FootprintConstraint(chain, [write], limit)
        solution = solve_tiles(model, 1024 * 1024.0, constraint=constraint)
        assert solution.feasible
        assert solution.tiles["m"] * solution.tiles["l"] * 2 <= limit

    def test_infeasible_shrinks_to_ones(self):
        chain = gemm_chain(16, 16, 16, 16)
        model = MovementModel(chain, ("m", "l", "k", "n"))
        ones = {name: 1 for name in chain.loop_extents()}
        capacity = model.usage(ones) / 2  # not even all-ones tiles fit
        solution = solve_tiles(model, capacity)
        assert solution.feasible is False
        assert solution.tiles == ones
        assert solution.mu == model.usage(ones)
        assert solution.dv == model.volume(ones, exact=True)
        # MU is monotone in every tile, so no point fits: the verdict needs
        # neither a continuous solve nor an integer refinement.
        with _searches_spied() as searched:
            assert solve_tiles(model, capacity) == solution
        assert searched == []

    @pytest.mark.parametrize("reuse", [True, False])
    @pytest.mark.parametrize(
        "order",
        [("m", "l", "k", "n"), ("m", "k", "l", "n"), ("l", "m", "n", "k")],
    )
    def test_hard_minimums_are_never_relaxed(self, order, reuse):
        """When no lattice point fits, the fallback shrinks toward the
        lower bounds, hard minimums included; if even the hard-minimum
        point does not fit, the verdict is ``feasible=False`` there."""
        chain = batch_gemm_chain(1, 512, 64, 4096, 512)
        model = MovementModel(chain, order, reuse_intermediates=reuse)
        capacity = 10_000.0
        solution = solve_tiles(
            model,
            capacity,
            hard_min_tiles={"k": 4096},
            min_tiles={"m": 8, "l": 8, "k": 8, "n": 8},
        )
        pinned = {name: 1 for name in chain.loop_extents()}
        pinned["k"] = 4096
        assert model.usage(pinned) > capacity
        assert solution.feasible is False
        assert solution.tiles == pinned
        assert solution.mu == model.usage(pinned)
        assert solution.dv == model.volume(pinned, exact=True)

    def test_hard_minimum_verdict_skips_the_search(self):
        """The hard-minimum point is the smallest legal point, and MU is
        monotone, so when it does not fit the solve returns the verdict
        without running SLSQP or the integer refinement."""
        chain = batch_gemm_chain(1, 512, 64, 4096, 512)
        model = MovementModel(chain, ("m", "l", "k", "n"))
        kwargs = {
            "hard_min_tiles": {"k": 4096},
            "min_tiles": {"m": 8, "l": 8, "k": 8, "n": 8},
        }
        with _searches_spied() as searched:
            solution = solve_tiles(model, 10_000.0, **kwargs)
        assert searched == []
        assert solution.feasible is False
        assert solution.tiles["k"] == 4096
        # With room for the pinned point, the same solve searches.
        pinned = {name: 1 for name in chain.loop_extents()}
        pinned["k"] = 4096
        with _searches_spied() as searched:
            solution = solve_tiles(model, model.usage(pinned), **kwargs)
        assert searched == ["slsqp", "refine"]
        assert solution.feasible is True

    def test_never_worse_than_the_lagrange_point(self):
        """Seeded fuzz of the paper's check over GEMM-chain shapes and
        capacities: the returned DV never exceeds the DV at the floored
        closed-form (Lagrange) tiles whenever those tiles fit."""
        rng = random.Random("lagrange-fuzz")
        sizes = [128, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096]
        checked = 0
        for _ in range(200):
            m, n, k, l = (rng.choice(sizes) for _ in range(4))
            capacity = rng.choice([64, 128, 256, 512, 1024, 2048, 4096]) * 1024.0
            model = MovementModel(gemm_chain(m, n, k, l), ("m", "l", "k", "n"))
            closed = gemm_chain_closed_form(m, n, k, l, capacity / 2, alpha=8)
            floored = {
                name: max(1, int(value)) for name, value in closed.items()
            }
            if model.usage(floored) > capacity:
                continue
            checked += 1
            solution = solve_tiles(
                model, capacity, min_tiles={"m": 8, "n": 8, "k": 8, "l": 8}
            )
            assert solution.feasible
            assert solution.dv <= model.volume(floored, exact=True), (
                (m, n, k, l, capacity), solution.tiles
            )
        assert checked > 100

    def test_larger_capacity_never_hurts(self, model):
        small = solve_tiles(model, 128 * 1024.0)
        large = solve_tiles(model, 2 * 1024 * 1024.0)
        assert large.dv <= small.dv * 1.01

    def test_solution_dv_consistent_with_model(self, model):
        solution = solve_tiles(model, 512 * 1024.0)
        assert solution.dv == pytest.approx(
            model.volume(solution.tiles, exact=True)
        )

    def test_batch_chain_solvable(self):
        chain = batch_gemm_chain(8, 512, 64, 64, 512)
        model = MovementModel(chain, ("b", "m", "l", "k", "n"))
        solution = solve_tiles(model, 1024 * 1024.0)
        assert solution.feasible
        assert all(t >= 1 for t in solution.tiles.values())


class TestDegenerateExtents:
    """Micro-kernel requirements can exceed a small loop's extent; the whole
    loop is then the only sensible tile — never a tile above the extent and
    never an infeasibility verdict."""

    def test_quantum_above_extent_takes_whole_loop(self):
        # n extent 7 with a 16-wide tensor-core quantum: no aligned tile
        # exists below the extent.
        chain = gemm_chain(64, 7, 64, 64)
        model = MovementModel(chain, ("m", "l", "k", "n"))
        solution = solve_tiles(
            model, 1024 * 1024.0, quanta={"n": 16}, min_tiles={"n": 16}
        )
        assert solution.feasible
        assert solution.tiles["n"] == 7

    def test_min_tile_above_extent_clamps_to_extent(self):
        chain = gemm_chain(64, 64, 5, 64)
        model = MovementModel(chain, ("m", "l", "k", "n"))
        solution = solve_tiles(model, 1024 * 1024.0, min_tiles={"k": 16})
        assert solution.feasible
        assert solution.tiles["k"] == 5

    def test_no_candidate_exceeds_extent(self):
        extents = {"m": 64, "n": 7, "k": 5, "l": 3}
        chain = gemm_chain(extents["m"], extents["n"], extents["k"],
                           extents["l"])
        model = MovementModel(chain, ("m", "l", "k", "n"))
        solution = solve_tiles(
            model,
            1024 * 1024.0,
            quanta={"n": 16, "k": 8, "l": 4},
            min_tiles={"n": 16, "k": 8, "l": 4},
        )
        for name, tile in solution.tiles.items():
            assert 1 <= tile <= extents[name]

    def test_quantize_handles_inverted_range(self):
        from repro.core.solver import _quantize

        # lo > hi (quantum-aligned minimum above the extent): resolve to
        # the extent side instead of proposing an out-of-range tile.
        assert _quantize(20.0, 16, lo=16, hi=7) == 7
