"""Multi-level memory hierarchy optimization (Section IV-C, Eq. 2/3).

Each on-chip level ``d`` gets its own decomposition parameters ``S_d`` and
its own Algorithm-1 movement volume ``DV_d``; the movement cost of the
boundary feeding level ``d`` is ``Cost_d = DV_d / bw_d`` and the objective
is to minimize the slowest stage, ``max_d Cost_d``, subject to the per-level
capacity bounds and tile nesting ``S_d <= S_{d+1}``.

Because ``DV_d`` only depends on ``S_d`` and shrinks as tiles grow while
``MU_d`` grows, each level's unconstrained-by-others optimum uses the
largest tiles its own capacity allows; solving the levels outermost-first
and bounding each inner level by its parent's tiles therefore minimizes
every ``Cost_d`` simultaneously, which minimizes the max.  (When a nesting
bound binds, the inner level cannot do better anyway — its movement is at
least the parent's compulsory traffic.)
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence

from ..hardware.spec import HardwareSpec
from .movement import MovementModel
from .plan import LevelSchedule
from .search import SearchPolicy, SearchStats, chain_digest, memoized_solve_tiles
from .solver import ConstraintFn
from .warmstart import PlanHint


def boundary_bandwidth(hardware: HardwareSpec, level_index: int) -> float:
    """Bandwidth of the boundary feeding ``levels[level_index]`` (bytes/s).

    Fills come from the next level out, whose ``bandwidth`` field describes
    this boundary (so the outermost on-chip level is fed at DRAM bandwidth).
    """
    return hardware.levels[level_index + 1].bandwidth


def movement_cost(dv_bytes: float, hardware: HardwareSpec, level_index: int) -> float:
    """Eq. 2: seconds to move ``dv_bytes`` into ``levels[level_index]``."""
    return dv_bytes / boundary_bandwidth(hardware, level_index)


def minimax_cost(schedules: Sequence[LevelSchedule]) -> float:
    """Eq. 3 objective: the slowest data movement stage."""
    return max(sched.cost for sched in schedules)


def solve_hierarchy(
    model: MovementModel,
    hardware: HardwareSpec,
    *,
    min_tiles: Optional[Mapping[str, int]] = None,
    quanta: Optional[Mapping[str, int]] = None,
    constraints: Sequence[ConstraintFn] = (),
    constraints_token: Optional[Hashable] = None,
    capacity_utilization: float = 0.75,
    policy: Optional[SearchPolicy] = None,
    stats: Optional[SearchStats] = None,
    hint: Optional[PlanHint] = None,
) -> List[LevelSchedule]:
    """Solve tile sizes for every on-chip level under one block order.

    Solves are memoized under the exact permutation (ablations comparing
    symmetric orders still report their own order) when ``policy`` allows;
    ``constraints_token`` keeps constrained solves memoizable.  ``hint``
    (a neighboring shape's per-level tiles) warm-starts each level's
    solve, which is meant to keep its result — the solver's canonical
    descent collapses the DV-flat ridge — so the hint stays out of the
    memo key.

    Returns:
        schedules innermost-first (matching ``HardwareSpec.on_chip_levels``).
    """
    schedules_outer_first: List[LevelSchedule] = []
    parent_tiles: Optional[Dict[str, int]] = None
    policy = policy or SearchPolicy()
    digest = chain_digest(model.chain) if policy.memoize else None
    on_chip = hardware.on_chip_levels
    for offset, level in enumerate(reversed(on_chip)):
        level_index = len(on_chip) - 1 - offset
        raw_capacity = hardware.per_block_capacity(level)
        assert raw_capacity is not None  # on-chip levels are bounded
        capacity = raw_capacity * capacity_utilization
        level_hint = hint.level(level.name) if hint is not None else None
        solution = memoized_solve_tiles(
            model,
            float(capacity),
            min_tiles=min_tiles,
            quanta=quanta,
            constraints=constraints,
            constraints_token=constraints_token,
            max_parent=parent_tiles,
            policy=policy,
            digest=digest,
            stats=stats,
            x0_hint=(
                None if level_hint is None else dict(level_hint.tiles)
            ),
        )
        schedules_outer_first.append(
            LevelSchedule(
                level=level.name,
                order=model.perm,
                tiles=solution.tiles,
                predicted_dv=solution.dv,
                predicted_mu=solution.mu,
                capacity=float(capacity),
                bandwidth=boundary_bandwidth(hardware, level_index),
            )
        )
        parent_tiles = {
            name: solution.tiles[name] for name in model.perm
        }
    return list(reversed(schedules_outer_first))
