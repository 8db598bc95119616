"""The Chimera inter-block optimizer.

Pipeline per chain (Figure 3 of the paper):

1. enumerate candidate block execution orders (deduplicated by DV
   signature, :mod:`repro.core.reordering`);
2. rank candidates cheaply at a common probe tiling, then run the pruned,
   memoized order search (:mod:`repro.core.search`) over the best
   ``top_candidates`` orders against the outermost on-chip level;
3. repeat 1-2 for each inner level, nested under its parent level's
   tiles (Section IV-C, Eq. 2/3), and assemble a :class:`FusionPlan`.

Intra-block optimization (micro kernel selection) attaches afterwards via
``FusionPlan.with_micro_kernel`` — see :mod:`repro.runtime.pipeline`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Optional

from ..hardware.spec import HardwareSpec
from ..ir.chain import OperatorChain
from .movement import MovementModel, executed_flops
from .plan import FusionPlan, LevelSchedule
from .reordering import candidate_models, producer_private_reductions
from .search import (
    SearchStats,
    chain_digest,
    record_search_stats,
    search_tiles,
)
from .tables import FootprintConstraint
from .warmstart import PlanHint


@dataclasses.dataclass(frozen=True)
class ChimeraConfig:
    """Tunables of the inter-block optimizer.

    Attributes:
        max_orders: cap on scanned canonical permutations.
        alpha: default minimum tile size (the paper's lower bound for free
            variables); individual loops can override via ``min_tiles``.
        min_tiles: per-loop minimum tile sizes (micro-kernel requirements).
        quanta: per-loop tile quanta (e.g. 16 for tensor-core dimensions).
        top_candidates: orders that get the full constrained solve after
            the cheap probe ranking.
        capacity_utilization: fraction of each level's per-block capacity
            the MU constraint may use.  Hardware LRU caches need headroom —
            a working set sized exactly to capacity thrashes — so, like
            production tensor compilers targeting a fraction of shared
            memory, the optimizer plans against ``utilization * capacity``.
    """

    max_orders: Optional[int] = 200_000
    alpha: int = 8
    min_tiles: Optional[Mapping[str, int]] = None
    quanta: Optional[Mapping[str, int]] = None
    top_candidates: int = 64
    capacity_utilization: float = 0.75


class ChimeraOptimizer:
    """Analytical inter-block optimizer for one hardware target."""

    def __init__(
        self,
        hardware: HardwareSpec,
        config: Optional[ChimeraConfig] = None,
    ) -> None:
        self.hardware = hardware
        self.config = config or ChimeraConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def optimize(
        self,
        chain: OperatorChain,
        *,
        stats: Optional[SearchStats] = None,
        hint: Optional[PlanHint] = None,
        partitions: Optional[int] = None,
    ) -> FusionPlan:
        """Pick the block order and tiles minimizing data movement.

        Args:
            stats: optional :class:`SearchStats` accumulator filled with the
                search counters of this run (also available aggregated via
                ``repro.core.search.search_stats_snapshot``).
            hint: a neighboring shape's plan (same chain structure,
                different extents).  Each level's search solves the
                neighbor's winning order first and refines each tile
                solve from its tiles instead of running SLSQP — a speed
                knob: pruning stays admissible and the returned plan is
                meant to be identical to the cold run's.
            partitions: number of concurrently resident blocks to split
                shared-level capacity across, when a chain is sharded over
                that many cores (block-to-core partitioning).  ``None``
                keeps the default one-block-per-core split bit-exactly.

        Returns:
            a fused :class:`FusionPlan` with one schedule per on-chip level.
        """
        min_tiles = self._min_tiles(chain)
        constraint = self.extra_constraint(chain)
        digest = chain_digest(chain)
        search_stats = SearchStats()
        unique = 0
        total_orders = 0

        # Each memory level picks its own sub-block order (Section IV-C):
        # within one level-(d+1) block, level-d sub-blocks may traverse in
        # any order, so every level independently selects the candidate
        # minimizing its own movement volume, bounded by the parent tiles.
        #
        # The objective is Eq. 3, the slowest stage max_d DV_d / bw_d
        # (FusionPlan.movement_cost over each LevelSchedule.cost, Eq. 2).
        # DV_d depends only on level d's tiles and shrinks as they grow
        # while MU_d grows, so each level's own optimum uses the largest
        # tiles its capacity allows.  Solving outermost-first with each
        # inner level bounded by its parent's tiles therefore minimizes
        # every Cost_d at once, which minimizes the max; where a nesting
        # bound binds, the inner level cannot do better anyway — its
        # movement is at least the parent's compulsory traffic.
        on_chip = self.hardware.on_chip_levels
        extents = chain.loop_extents()
        schedules_outer_first: List[LevelSchedule] = []
        chosen_models: List[MovementModel] = []
        parent_tiles: Optional[Dict[str, int]] = None
        for offset, level in enumerate(reversed(on_chip)):
            level_index = len(on_chip) - 1 - offset
            capacity = (
                float(self.hardware.per_block_capacity(level, partitions))
                * self.config.capacity_utilization
            )
            level_min_tiles = dict(min_tiles)
            level_hard_min: Dict[str, int] = {}
            if level_index > 0:
                # A producer's private reduction iterates only at the
                # innermost level: splitting it at an outer level makes
                # the partially accumulated intermediate stream through
                # every inner boundary once per outer trip (CUTLASS B2B
                # / BOLT keep the first GEMM's K whole inside the block
                # for the same reason).  Shared reductions (the second
                # operator's) may split anywhere — their RMW traffic is
                # charged by the model's multipliers.  These pins are
                # HARD minimums: the solver may relax micro-kernel
                # alignment under capacity pressure but never these.
                for loop_name in producer_private_reductions(chain):
                    level_hard_min[loop_name] = extents[loop_name]
            # Hierarchy consistency: a loop an outer level split
            # iterates *above* every loop of this level, so this
            # level's order must place all outer-split loops in its
            # outermost positions — otherwise this level's Algorithm 1
            # would assume reuse across iterations that actually happen
            # at a coarser granularity.
            if parent_tiles is None:
                prefix: frozenset = frozenset()
            else:
                prefix = frozenset(
                    name
                    for name, tile in parent_tiles.items()
                    if tile < extents[name]
                )
            # Intermediates are traffic-free only at the outermost
            # on-chip boundary (that is the fusion benefit: they never
            # reach DRAM).  At inner boundaries the inter-operator data
            # streams between levels like any other tensor — the paper
            # observes exactly this as the fused kernel's L1<->L2
            # traffic increase — so the inner-level models charge
            # intermediates as IO.
            outermost = level_index == len(on_chip) - 1
            space = candidate_models(
                chain,
                max_orders=self.config.max_orders,
                prefix=prefix,
                reuse_intermediates=outermost,
            )
            search_stats.orders_enumerated += space.enumerated
            unique = max(unique, len(space))
            total_orders = max(total_orders, space.total)
            # Hardware LRU levels cannot pin enlarged intermediate
            # buffers (they thrash); only software-managed scratchpads
            # may hold them (persistent-kernel style).
            ranked = space.ranked(
                _probe_point(chain, level_min_tiles, capacity, parent_tiles),
                capacity,
                allow_enlarged=level.software_managed,
            )
            # Only the orders the search keeps become movement models.
            top = [
                space.model(index)
                for index in ranked[: max(1, self.config.top_candidates)]
            ]
            level_hint = hint.level(level.name) if hint is not None else None
            model, solution = search_tiles(
                top,
                capacity,
                min_tiles=level_min_tiles,
                quanta=self.config.quanta,
                constraint=constraint,
                max_parent=parent_tiles,
                hard_min_tiles=level_hard_min,
                stats=search_stats,
                digest=digest,
                x0_hint=None if level_hint is None else dict(level_hint.tiles),
                incumbent_hint=(
                    None if level_hint is None else level_hint.order
                ),
            )
            bandwidth = self.hardware.levels[level_index + 1].bandwidth
            schedules_outer_first.append(
                LevelSchedule(
                    level=level.name,
                    order=model.perm,
                    tiles=solution.tiles,
                    predicted_dv=solution.dv,
                    predicted_mu=solution.mu,
                    capacity=capacity,
                    bandwidth=bandwidth,
                )
            )
            chosen_models.append(model)
            parent_tiles = {name: solution.tiles[name] for name in model.perm}

        schedules = tuple(reversed(schedules_outer_first))
        scanned = search_stats.orders_enumerated
        if stats is not None:
            stats.merge(search_stats)
        # search_tiles folded its own counters into the global aggregate;
        # enumeration happens out here, so account for it separately.
        record_search_stats(SearchStats(orders_enumerated=scanned))

        notes = [
            f"orders: scanned {scanned} (full space {total_orders}), "
            f"up to {unique} unique signatures per level"
        ]
        inner_model = chosen_models[-1]
        flops = executed_flops(chain, inner_model.perm, schedules[0].tiles)
        return FusionPlan(
            chain=chain,
            hardware=self.hardware,
            levels=schedules,
            fused=True,
            executed_flops=flops,
            notes=tuple(notes),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _min_tiles(self, chain: OperatorChain) -> Dict[str, int]:
        extents = chain.loop_extents()
        minimums = {
            name: min(self.config.alpha, extent)
            for name, extent in extents.items()
        }
        for name, value in (self.config.min_tiles or {}).items():
            if name in extents:
                minimums[name] = min(value, extents[name])
        return minimums

    def extra_constraint(
        self, chain: OperatorChain
    ) -> Optional[FootprintConstraint]:
        """The hardware's tile constraint beyond MU, or ``None``.

        On the Ascend NPU, intermediate tiles between fused operators stage
        through the Unified Buffer, so the summed footprint of their
        producer writes must fit it (the bottleneck the paper reports for
        large GEMMs on NPU).
        """
        if self.hardware.unified_buffer is None:
            return None
        intermediates = chain.intermediate_tensors()
        if not intermediates:
            return None
        return FootprintConstraint(
            chain,
            [
                chain.producers_of(tensor)[0].access_of(tensor)
                for tensor in intermediates
            ],
            self.hardware.unified_buffer,
        )


def _probe_point(
    chain: OperatorChain,
    min_tiles: Mapping[str, int],
    capacity: float,
    parent_tiles: Optional[Mapping[str, int]],
) -> Dict[str, float]:
    """The tile point that ranks candidate orders at one memory level.

    The probe assigns every loop the same balanced tile (the square root
    of the per-loop share of capacity, clipped to bounds), which ranks
    orders by their multiplier structure without running the solver
    ``O(signatures)`` times (see :meth:`OrderSpace.ranked
    <repro.core.reordering.OrderSpace.ranked>`).  Orders whose
    loop-distribution buffers alone exceed capacity at this point sort
    last (they would force tiny tiles or be infeasible).
    """
    extents = chain.loop_extents()
    elem_bytes = max(spec.dtype.nbytes for spec in chain.tensors.values())
    # Budget capacity across the largest operator's tensor tiles,
    # assuming square-ish 2D tiles: side ~ sqrt(capacity / (3 * bytes)).
    side = max(2.0, math.sqrt(capacity / (3.0 * elem_bytes)))
    parent = parent_tiles or {}
    probe = {}
    for name in extents:
        bound = min(extents[name], parent.get(name, extents[name]))
        probe[name] = float(max(min(min_tiles.get(name, 1), bound),
                                min(bound, side)))
    return probe
