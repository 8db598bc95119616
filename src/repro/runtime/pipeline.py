"""The end-to-end Chimera compilation pipeline (Figure 3).

``compile_chain`` is the one-stop user API: block decomposition,
inter-block reordering (analytical model), intra-block scheduling
(replaceable micro kernels), and code generation — returning an executable
:class:`FusedKernel`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Tuple

from .. import microkernel
from ..codegen.kernel import FusedKernel, build_kernel
from ..core.fusion import FusionDecision, decide_fusion
from ..core.warmstart import ChainHints

if TYPE_CHECKING:  # pragma: no cover - import cycle exists only for typing
    from ..service import CompileService
from ..core.optimizer import ChimeraConfig, ChimeraOptimizer
from ..core.plan import FusionPlan
from ..hardware.spec import HardwareSpec
from ..ir.chain import OperatorChain


@dataclasses.dataclass(frozen=True)
class CompileResult:
    """Everything ``compile_chain`` produced.

    Attributes:
        kernels: executable kernels in launch order (one when fused).
        decision: the fuse-or-not comparison, for inspection.
    """

    kernels: Tuple[FusedKernel, ...]
    decision: FusionDecision

    @property
    def fused(self) -> bool:
        return self.decision.use_fusion

    @property
    def predicted_time(self) -> float:
        return sum(kernel.predicted_time for kernel in self.kernels)


def chimera_config(
    chain: OperatorChain,
    hardware: HardwareSpec,
    base: Optional[ChimeraConfig] = None,
) -> ChimeraConfig:
    """A config with micro-kernel tile minimums wired in for ``chain``."""
    micro = microkernel.lower_for_chain(hardware, chain)
    min_tiles = microkernel.chain_min_tiles(chain, micro)
    quanta = microkernel.chain_quanta(chain, micro)
    if base is None:
        return ChimeraConfig(min_tiles=min_tiles, quanta=quanta)
    merged = dict(base.min_tiles or {})
    for name, value in min_tiles.items():
        merged[name] = max(merged.get(name, 1), value)
    merged_quanta = dict(base.quanta or {})
    for name, value in quanta.items():
        merged_quanta[name] = max(merged_quanta.get(name, 1), value)
    return dataclasses.replace(base, min_tiles=merged, quanta=merged_quanta)


def optimize_chain(
    chain: OperatorChain,
    hardware: HardwareSpec,
    config: Optional[ChimeraConfig] = None,
) -> FusionPlan:
    """Run only the inter-block pass (always fusing) and attach the kernel."""
    cfg = chimera_config(chain, hardware, config)
    plan = ChimeraOptimizer(hardware, cfg).optimize(chain)
    return _attach_micro_kernel(
        plan, microkernel.lower_for_chain(hardware, chain)
    )


def compile_chain(
    chain: OperatorChain,
    hardware: HardwareSpec,
    config: Optional[ChimeraConfig] = None,
    *,
    force_fusion: Optional[bool] = None,
    service: Optional["CompileService"] = None,
    hints: Optional[ChainHints] = None,
    cores: Optional[int] = None,
) -> CompileResult:
    """Compile an operator chain for a hardware target.

    Args:
        chain: the compute DAG segment to compile.
        hardware: machine model (selects the micro-kernel backend and the
            memory-hierarchy parameters).
        config: optimizer overrides.
        force_fusion: bypass the fuse-or-not profitability decision.
        service: a :class:`repro.service.CompileService`; when given, the
            request is routed through its plan cache (and coalesced with
            identical concurrent requests) instead of always re-optimizing.
        hints: warm-start hints from a neighboring shape's cached plan
            (see :mod:`repro.core.warmstart`).  A speed knob, not part of
            the service cache key: the returned plan is meant to be
            byte-identical with or without hints.  Ignored on the service
            path: the service derives its own hints from its shape index.
        cores: force one block-to-core placement width on hardware with
            an inter-core link (inert without one).  It changes the plan
            but is not part of the service cache key, so it cannot be
            combined with ``service``.

    Returns:
        executable kernels plus the planning decision.

    Raises:
        ValueError: when both ``service`` and ``cores`` are given, or
            ``cores`` is below 1 on link-bearing hardware.
    """
    if service is not None:
        if cores is not None:
            raise ValueError(
                "cores= changes the plan but not the cache key; "
                "compile without service= to force a placement width"
            )
        return service.compile(chain, hardware, config, force_fusion=force_fusion)
    cfg = chimera_config(chain, hardware, config)
    decision = decide_fusion(chain, hardware, cfg, hints=hints, cores=cores)
    if force_fusion is not None:
        decision = dataclasses.replace(decision, use_fusion=force_fusion)
    return CompileResult(
        kernels=kernels_for_decision(decision, hardware), decision=decision
    )


def kernels_for_decision(
    decision: FusionDecision, hardware: HardwareSpec
) -> Tuple[FusedKernel, ...]:
    """Lower the decision's chosen plans into executable kernels.

    This is the deterministic back half of :func:`compile_chain` — intra-block
    micro-kernel attachment plus code generation, no analytical search.  The
    compilation service replays it when rebuilding a result from a cache hit.
    """
    kernels = []
    for plan in decision.chosen:
        micro = microkernel.lower_for_chain(hardware, plan.chain)
        plan = _attach_micro_kernel(plan, micro)
        kernels.append(build_kernel(plan, micro))
    return tuple(kernels)


def _attach_micro_kernel(
    plan: FusionPlan, micro: microkernel.LoweredMicroKernel
) -> FusionPlan:
    """``plan`` with ``micro``'s name and sustained efficiency.

    ``micro`` is the kernel lowered for ``plan.chain``.
    """
    efficiency = microkernel.chain_efficiency(
        plan.chain, micro, dict(plan.inner.tiles)
    )
    return plan.with_micro_kernel(micro.name, max(efficiency, 1e-3))
