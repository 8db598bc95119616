"""Fusion profitability decisions.

Fusing a compute-intensive chain is only beneficial when the saved
intermediate round-trips outweigh the costs fusion introduces (recomputation
for sliding windows, smaller per-operator tiles).  The paper observes this
directly: point-wise second convolutions fuse profitably, while a
compute-bound 3x3 second convolution (case C6 on GPU) does not.

:func:`decide_fusion` plans both alternatives with the same analytical
machinery and keeps the faster one — this is Chimera's graph-partitioning
step for a single chain.
"""

from __future__ import annotations

import dataclasses
from typing import List, Mapping, Optional, Tuple

from ..hardware.spec import HardwareSpec
from ..ir.chain import OperatorChain, single_op_chain
from .multicore import best_partitioned_plan
from .optimizer import ChimeraConfig, ChimeraOptimizer
from .plan import FusionPlan
from .warmstart import ChainHints, PlanHint


@dataclasses.dataclass(frozen=True)
class FusionDecision:
    """Outcome of the fuse-or-not comparison for one chain.

    Attributes:
        fused_plan: the whole-chain fused plan.
        unfused_plans: one plan per operator, run as separate kernels.
        use_fusion: whether the fused plan is predicted faster.
    """

    fused_plan: FusionPlan
    unfused_plans: Tuple[FusionPlan, ...]
    use_fusion: bool

    @property
    def chosen(self) -> Tuple[FusionPlan, ...]:
        return (self.fused_plan,) if self.use_fusion else self.unfused_plans

    @property
    def fused_time(self) -> float:
        return self.fused_plan.predicted_time

    @property
    def unfused_time(self) -> float:
        return sum(plan.predicted_time for plan in self.unfused_plans)

    @property
    def predicted_speedup(self) -> float:
        """Unfused over fused time (> 1 means fusion wins)."""
        return self.unfused_time / self.fused_time


def plan_unfused(
    chain: OperatorChain,
    hardware: HardwareSpec,
    config: Optional[ChimeraConfig] = None,
    *,
    hints: Optional[Mapping[str, PlanHint]] = None,
) -> Tuple[FusionPlan, ...]:
    """Plan every operator of ``chain`` as its own kernel.

    Intermediates become each kernel's IO tensors, so their DRAM round-trip
    is charged automatically by Algorithm 1.  ``hints`` (per-operator
    warm-start plans from a neighboring shape, keyed by operator name)
    speed the per-op solves up without changing them.
    """
    optimizer = ChimeraOptimizer(hardware, config)
    plans: List[FusionPlan] = []
    for op in chain.ops:
        sub_chain = single_op_chain(op, chain.tensors)
        plans.append(
            optimizer.optimize(
                sub_chain, hint=(hints or {}).get(op.name)
            )
        )
    return tuple(plans)


def decide_fusion(
    chain: OperatorChain,
    hardware: HardwareSpec,
    config: Optional[ChimeraConfig] = None,
    *,
    hints: Optional[ChainHints] = None,
    cores: Optional[int] = None,
) -> FusionDecision:
    """Plan fused and unfused executions and pick the faster one.

    ``hints`` carries a neighboring shape's fused and per-operator plans;
    both alternatives warm-start from them, and the decision (a comparison
    of the identical resulting plans' predicted times) is unchanged.

    On hardware declaring an inter-core link, the fused alternative also
    searches block-to-core placements (``repro.core.multicore``): the
    chain sharded over ``p`` cores with the communication term priced by
    the link.  A placement replaces the aggregate fused plan only when
    strictly faster, so linkless hardware — and link-bearing hardware
    where no placement wins — keeps today's plans byte-identically.
    ``cores`` forces one placement width (see
    :func:`~repro.core.multicore.partition_factors`); it is inert without
    a link.
    """
    optimizer = ChimeraOptimizer(hardware, config)
    fused = optimizer.optimize(
        chain, hint=hints.fused if hints is not None else None
    )
    if hardware.link is not None:
        partitioned = best_partitioned_plan(
            chain,
            hardware,
            config,
            incumbent_time=fused.predicted_time,
            cores=cores,
        )
        if partitioned is not None:
            fused = partitioned
    unfused = plan_unfused(
        chain,
        hardware,
        config,
        hints=hints.unfused if hints is not None else None,
    )
    fused_time = fused.predicted_time
    unfused_time = sum(plan.predicted_time for plan in unfused)
    return FusionDecision(
        fused_plan=fused,
        unfused_plans=unfused,
        use_fusion=fused_time <= unfused_time,
    )
