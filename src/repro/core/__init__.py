"""Chimera's primary contribution: analytical inter-block optimization.

* :mod:`repro.core.footprint` — ``getFootprint`` of Algorithm 1.
* :mod:`repro.core.movement` — Algorithm 1 (DV + MU) and executed flops.
* :mod:`repro.core.tables` — compiled (vectorized) movement tables.
* :mod:`repro.core.reordering` — block order enumeration and dedup.
* :mod:`repro.core.solver` — constrained tile-size optimization.
* :mod:`repro.core.search` — pruned, memoized order search.
* :mod:`repro.core.optimizer` — the end-to-end inter-block pass, one
  memory level at a time (Eq. 2/3).
* :mod:`repro.core.multicore` — block-to-core partitioning (scale-out).
* :mod:`repro.core.fusion` — fuse-or-not profitability decisions.
* :mod:`repro.core.plan` — :class:`FusionPlan` data model.
"""

from .footprint import footprint_bytes, footprint_elements, op_footprint_bytes
from .fusion import FusionDecision, decide_fusion, plan_unfused
from .movement import MovementModel, algorithm1, executed_flops
from .multicore import (
    best_partitioned_plan,
    comm_volume_bytes,
    partition_factors,
    partition_loops,
    shard_chain,
)
from .optimizer import ChimeraConfig, ChimeraOptimizer
from .plan import CorePartition, FusionPlan, LevelSchedule
from .reordering import (
    OrderSpace,
    chain_reduction_loops,
    producer_private_reductions,
    candidate_models,
    count_orders,
    enumerate_orders,
    loop_classes,
    constrained_count,
    ordering_loops,
)
from .search import (
    SearchStats,
    dv_lower_bound,
    reset_search_stats,
    search_stats_snapshot,
    search_tiles,
    solve_memo,
    upper_tile_bounds,
)
from .solver import TileSolution, gemm_chain_closed_form, solve_tiles
from .tables import (
    FootprintConstraint,
    MovementTables,
    clear_tables_memo,
    movement_tables,
    tables_memo_stats,
)

__all__ = [
    "footprint_bytes",
    "footprint_elements",
    "op_footprint_bytes",
    "FusionDecision",
    "decide_fusion",
    "plan_unfused",
    "MovementModel",
    "algorithm1",
    "executed_flops",
    "ChimeraConfig",
    "ChimeraOptimizer",
    "CorePartition",
    "FusionPlan",
    "LevelSchedule",
    "best_partitioned_plan",
    "comm_volume_bytes",
    "partition_factors",
    "partition_loops",
    "shard_chain",
    "OrderSpace",
    "chain_reduction_loops",
    "producer_private_reductions",
    "candidate_models",
    "constrained_count",
    "count_orders",
    "enumerate_orders",
    "loop_classes",
    "ordering_loops",
    "SearchStats",
    "dv_lower_bound",
    "reset_search_stats",
    "search_stats_snapshot",
    "search_tiles",
    "solve_memo",
    "upper_tile_bounds",
    "TileSolution",
    "gemm_chain_closed_form",
    "solve_tiles",
    "FootprintConstraint",
    "MovementTables",
    "clear_tables_memo",
    "movement_tables",
    "tables_memo_stats",
]
