"""Network-level compilation: whole DAGs through the Chimera pipeline.

The paper's end-to-end results (Figure 9 / Table I) come from compiling the
fusable chains *inside* whole networks — Bert, ViT, Transformer — not from
isolated chains.  :func:`compile_network` is that path in production shape:

1. **partition** — :func:`repro.ir.partition_graph` splits the
   :class:`ComputeDAG` into compute-intensive fusable chains and the
   memory-intensive / standalone remainder, validating that every node
   lands in exactly one side;
2. **batch compile** — every node is fanned through
   :meth:`CompileService.compile_batch` (plan cache, request coalescing,
   per-request unfused fallback) or compiled serially when no service is
   given; the per-chain fused-vs-unfused decision is
   :func:`repro.core.fusion.decide_fusion`, exactly as for single chains;
3. **assemble** — the per-node kernels, decisions and timings become a
   serializable :class:`NetworkPlan` whose end-to-end time replaces the
   analytic-only :func:`repro.workloads.network_time` estimate with
   plan-backed chain timings.

Timing modes: ``"predicted"`` (default) sums the compiled kernels'
analytical times — deterministic and cheap, so it is what gets serialized
and cached; ``"simulated"`` additionally runs every node's kernel sequence
through the memory-hierarchy simulator (seconds per node — the fidelity of
the Figure 9 harness, at its cost).
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .. import microkernel
from ..core.fusion import FusionDecision
from ..core.optimizer import ChimeraConfig
from ..core.plan import FusionPlan
from ..hardware.spec import HardwareSpec
from ..ir.graph import ComputeDAG, GraphNode, StitchedOp, partition_graph
from ..workloads.networks import NetworkTiming
from . import pipeline
from .pipeline import CompileResult
from .scheduler import GraphSchedule, schedule_partition

if TYPE_CHECKING:  # pragma: no cover - import cycle exists only for typing
    from ..service import CompileService

#: ``NetworkPlan.timing`` values.
TIMING_PREDICTED = "predicted"
TIMING_SIMULATED = "simulated"


class NetworkCompilationError(RuntimeError):
    """One or more nodes of a network failed to compile."""


@dataclasses.dataclass(frozen=True)
class NodePlan:
    """The compiled artifact for one graph node.

    Attributes:
        name: graph node name.
        repeat: executions per network run (timing multiplies by this).
        fusable: whether the partitioner classified the node as a
            compute-intensive fusable chain.
        fused: the fuse-or-not decision taken for the node.
        plans: the chosen kernel plans in launch order (micro kernels
            attached) — one when fused, one per operator otherwise.
        time: per-execution time of the chosen kernels.
        unfused_time: per-execution time of the all-unfused alternative
            (equals ``time`` when the node runs unfused).
        members: original DAG node names this plan node covers — more than
            one when the partitioner stitched a run of nodes into one
            fused chain.
        stitched: the memory-intensive operators stitched into this node
            (empty for ordinary nodes).
        source: where the compile came from (``"compiled"``, a cache tier,
            ``"coalesced"``, or ``"fallback"``); diagnostic only — it is
            deliberately **not** serialized, so plans stay byte-identical
            across cold and warm caches.
        spill_time: seconds per network run charged for this node's
            output residency decision — the DRAM round trip when its
            intermediate is spilled, or the recompute time when it is
            rematerialized (repeat counts folded in; 0 when kept or when
            scheduling is off).
    """

    name: str
    repeat: int
    fusable: bool
    fused: bool
    plans: Tuple[FusionPlan, ...]
    time: float
    unfused_time: float
    members: Tuple[str, ...] = ()
    stitched: Tuple[StitchedOp, ...] = ()
    source: Optional[str] = None
    spill_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.members:
            object.__setattr__(self, "members", (self.name,))

    @property
    def total_time(self) -> float:
        return self.time * self.repeat + self.spill_time

    @property
    def kernels(self) -> int:
        return len(self.plans)

    @property
    def cores(self) -> int:
        """Cores the node's kernels span (1 unless a plan partitioned).

        Derived from the chosen plans' :class:`repro.core.CorePartition`
        records, so it needs no serialization of its own.
        """
        return max(
            (
                plan.partition.cores
                for plan in self.plans
                if plan.partition is not None
            ),
            default=1,
        )


@dataclasses.dataclass(frozen=True)
class NetworkPlan:
    """End-to-end compiled plan for one network on one machine model.

    The plan is serializable (:func:`repro.runtime.network_plan_to_dict`)
    and deterministic: recompiling the same network — serially, from a
    cold cache or from a warm one — yields a byte-identical encoding.
    """

    network: str
    hardware: HardwareSpec
    nodes: Tuple[NodePlan, ...]
    timing: str = TIMING_PREDICTED
    schedule: Optional[GraphSchedule] = None

    def __post_init__(self) -> None:
        if self.timing not in (TIMING_PREDICTED, TIMING_SIMULATED):
            raise ValueError(f"unknown timing mode {self.timing!r}")

    def node(self, name: str) -> NodePlan:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"plan {self.network!r} has no node {name!r}")

    @property
    def total_time(self) -> float:
        """End-to-end time: every node, times its repeat count."""
        return sum(node.total_time for node in self.nodes)

    @property
    def unfused_total_time(self) -> float:
        """The all-unfused baseline over the same kernels.

        Residency overhead (``spill_time``) charges both sides: the
        execution order and the eviction set are fixed before the
        per-node fuse-or-not choice, so the baseline pays the same
        graph-level traffic.
        """
        return sum(
            node.unfused_time * node.repeat + node.spill_time
            for node in self.nodes
        )

    @property
    def execution_order(self) -> Tuple[str, ...]:
        """Node names in execution order (the plan's node order)."""
        if self.schedule is not None:
            return self.schedule.order
        return tuple(node.name for node in self.nodes)

    @property
    def peak_memory_bytes(self) -> Optional[int]:
        """Scheduled peak resident intermediate bytes (None unscheduled)."""
        return None if self.schedule is None else self.schedule.peak_bytes

    @property
    def memory_budget(self) -> Optional[int]:
        """The residency budget the schedule was solved for."""
        return None if self.schedule is None else self.schedule.memory_budget

    @property
    def spill_total_time(self) -> float:
        """Seconds per run spent on graph-level spills and recomputes."""
        return sum(node.spill_time for node in self.nodes)

    @property
    def speedup_over_unfused(self) -> float:
        return self.unfused_total_time / self.total_time

    @property
    def fused_nodes(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.fused and n.fusable)

    @property
    def stitched_nodes(self) -> Tuple[str, ...]:
        """Plan nodes that merged several graph nodes via stitching."""
        return tuple(n.name for n in self.nodes if n.stitched)

    @property
    def kernel_count(self) -> int:
        return sum(node.kernels for node in self.nodes)

    def timings(self) -> NetworkTiming:
        """Plan-backed :class:`NetworkTiming` (per-node, repeat applied).

        This is the replacement for the analytic-only
        :func:`repro.workloads.network_time` path: the chain entries come
        from compiled plans instead of a baseline system profile.
        """
        return NetworkTiming(
            network=self.network,
            node_times={n.name: n.total_time for n in self.nodes},
        )

    def describe(self) -> str:
        from ..analysis.reporting import network_plan_table

        summary = (
            f"network {self.network} on {self.hardware.name}: "
            f"{len(self.nodes)} nodes, {self.kernel_count} kernels, "
            f"{self.total_time * 1e3:.3f} ms end-to-end "
            f"({self.speedup_over_unfused:.2f}x vs unfused, "
            f"{self.timing} timing)"
        )
        if self.schedule is not None:
            summary += "\n" + self.schedule.describe()
        return network_plan_table(self) + "\n" + summary

    def __str__(self) -> str:
        return (
            f"NetworkPlan({self.network}, {len(self.nodes)} nodes, "
            f"{self.total_time * 1e3:.3f} ms)"
        )


def _plan_sequence_time(
    plans: Tuple[FusionPlan, ...], simulate: bool
) -> float:
    """Per-execution time of a kernel sequence, by the selected mode.

    Simulated timing lowers each plan per query, but the region trace is
    memoized on the plan's compiled schedule (keyed by content digest), so
    repeated nodes of a network — and the fused-vs-unfused pair of one
    node — replay materialized traces instead of re-walking loop trees.
    """
    if simulate:
        from ..sim.profiler import simulate_sequence

        return simulate_sequence(
            list(plans), name="+".join(p.chain.name for p in plans)
        ).time
    return sum(plan.predicted_time for plan in plans)


def _node_plan(
    node: GraphNode,
    result: CompileResult,
    hardware: HardwareSpec,
    fusable: bool,
    source: str,
    simulate: bool,
    members: Tuple[str, ...] = (),
    stitched: Tuple[StitchedOp, ...] = (),
    spill_time: float = 0.0,
) -> NodePlan:
    """Assemble one node's entry from its compile result."""
    decision: FusionDecision = result.decision
    chosen = tuple(kernel.plan for kernel in result.kernels)
    time_chosen = _plan_sequence_time(chosen, simulate)
    if decision.use_fusion:
        unfused = tuple(
            pipeline._attach_micro_kernel(
                plan, microkernel.lower_for_chain(hardware, plan.chain)
            )
            for plan in decision.unfused_plans
        )
        time_unfused = _plan_sequence_time(unfused, simulate)
    else:
        time_unfused = time_chosen
    return NodePlan(
        name=node.name,
        repeat=node.repeat,
        fusable=fusable,
        fused=decision.use_fusion,
        plans=chosen,
        time=time_chosen,
        unfused_time=time_unfused,
        members=members or (node.name,),
        stitched=stitched,
        source=source,
        spill_time=spill_time,
    )


def compile_network(
    dag: ComputeDAG,
    hardware: HardwareSpec,
    *,
    service: Optional["CompileService"] = None,
    config: Optional[ChimeraConfig] = None,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    timing: str = TIMING_PREDICTED,
    stitch: bool = True,
    schedule: bool = True,
    memory_budget: Optional[int] = None,
) -> NetworkPlan:
    """Compile every node of a network DAG into a :class:`NetworkPlan`.

    Args:
        dag: the network graph (e.g. from
            :func:`repro.workloads.build_network`).
        hardware: machine model every node is compiled for.
        service: a :class:`repro.service.CompileService`; when given, the
            nodes are batch-compiled through its cache/coalescing front end
            in parallel.  Without it, nodes compile serially in-process.
        config: optimizer overrides applied to every node.
        max_workers: batch pool size (service path only).
        timeout: per-node compile budget in seconds (service path only).
        timing: ``"predicted"`` (analytical kernel times, default) or
            ``"simulated"`` (memory-hierarchy simulation per node —
            seconds per node).
        stitch: memory-intensive stitching for the partition (default
            on).  Stitched plan nodes cover several graph nodes; see
            :attr:`NodePlan.members`.
        schedule: graph-level execution scheduling (default on).  When
            on, the plan's nodes are ordered by the peak-memory-minimizing
            schedule and ``NetworkPlan.schedule`` carries the residency
            decisions; when off, nodes keep the partition order and
            ``schedule`` is ``None``.
        memory_budget: residency budget in bytes for the scheduler
            (default: the hardware's DRAM-side capacity; see
            :func:`repro.runtime.scheduler.default_memory_budget`).

    Returns:
        the assembled, serializable network plan.

    Raises:
        NetworkCompilationError: when any node fails beyond the service's
            fallback recovery (per-node isolation: one bad node reports all
            failures, it does not corrupt its batch mates).
        ValueError: for an unknown ``timing`` mode.
    """
    if timing not in (TIMING_PREDICTED, TIMING_SIMULATED):
        raise ValueError(
            f"unknown timing mode {timing!r} "
            f"(use {TIMING_PREDICTED!r} or {TIMING_SIMULATED!r})"
        )
    simulate = timing == TIMING_SIMULATED
    partition = partition_graph(dag, stitch=stitch)
    fusable_names = {node.name for node in partition.chains}
    plan_nodes = partition.all_nodes()

    results: Dict[str, Tuple[CompileResult, str]] = {}
    if service is None:
        for node in plan_nodes:
            result = pipeline.compile_chain(node.chain, hardware, config)
            results[node.name] = (result, "compiled")
    else:
        from ..service import CompileRequest

        requests = [
            CompileRequest(chain=node.chain, hardware=hardware, config=config)
            for node in plan_nodes
        ]
        report = service.compile_batch(
            requests, max_workers=max_workers, timeout=timeout
        )
        failures: List[str] = []
        for node, item in zip(plan_nodes, report.items):
            if item.served is None or item.served.result is None:
                failures.append(
                    f"{node.name}: {item.error or item.status}"
                )
                continue
            results[node.name] = (item.served.result, item.source)
        if failures:
            raise NetworkCompilationError(
                f"network {dag.name!r} on {hardware.name}: "
                f"{len(failures)}/{len(plan_nodes)} nodes failed — "
                + "; ".join(failures)
            )

    graph_schedule: Optional[GraphSchedule] = None
    ordered_nodes = list(plan_nodes)
    overheads: Dict[str, float] = {}
    if schedule:
        # Price rematerialization with the kernels' analytical times —
        # available before (and independent of) the simulated lowering,
        # which breaks the schedule-needs-times / times-follow-schedule
        # circularity deterministically.
        node_times = {
            name: sum(kernel.plan.predicted_time for kernel in result.kernels)
            for name, (result, _source) in results.items()
        }
        # Partitioned nodes stage their inter-core transfer buffers while
        # they execute; the scheduler charges those bytes at the node's
        # own step so concurrently-resident blocks on distinct cores are
        # accounted for.
        node_transients = {
            name: sum(
                int(kernel.plan.partition.comm_bytes)
                for kernel in result.kernels
                if kernel.plan.partition is not None
            )
            for name, (result, _source) in results.items()
        }
        graph_schedule = schedule_partition(
            partition,
            hardware,
            node_times=node_times,
            memory_budget=memory_budget,
            dag_order=[node.name for node in dag.nodes],
            node_transients=node_transients,
        )
        by_name = {node.name: node for node in plan_nodes}
        ordered_nodes = [by_name[name] for name in graph_schedule.order]
        overheads = {
            record.producer: record.overhead_time
            for record in graph_schedule.residency
        }

    nodes = []
    for node in ordered_nodes:
        record = partition.stitched_record(node.name)
        nodes.append(
            _node_plan(
                node,
                results[node.name][0],
                hardware,
                node.name in fusable_names,
                results[node.name][1],
                simulate,
                members=partition.members_of(node.name),
                stitched=record.stitched if record is not None else (),
                spill_time=overheads.get(node.name, 0.0),
            )
        )
    if simulate and graph_schedule is not None:
        # The simulated path replays the scheduled order through the
        # residency simulator and refuses to ship a plan whose predicted
        # peak the replay cannot reproduce.
        from ..sim.residency import replay_schedule

        trace = replay_schedule(graph_schedule)
        if (
            trace.peak_bytes != graph_schedule.peak_bytes
            or trace.live_bytes != graph_schedule.live_bytes
        ):
            raise NetworkCompilationError(
                f"network {dag.name!r} on {hardware.name}: schedule "
                f"replay measured peak {trace.peak_bytes} bytes but the "
                f"scheduler predicted {graph_schedule.peak_bytes}"
            )
    return NetworkPlan(
        network=dag.name,
        hardware=hardware,
        nodes=tuple(nodes),
        timing=timing,
        schedule=graph_schedule,
    )


@dataclasses.dataclass(frozen=True)
class NetworkBenchReport:
    """Wall-clock comparison of compile strategies for one network."""

    network: str
    hardware: str
    cold_serial_seconds: float
    cold_batch_seconds: float
    warm_batch_seconds: float

    @property
    def warm_speedup(self) -> float:
        """Warm-cache batch compile versus cold serial compile."""
        return self.cold_serial_seconds / self.warm_batch_seconds

    @property
    def batch_speedup(self) -> float:
        return self.cold_serial_seconds / self.cold_batch_seconds


def benchmark_network_compile(
    dag: ComputeDAG,
    hardware: HardwareSpec,
    service: "CompileService",
    *,
    max_workers: Optional[int] = None,
) -> Tuple[NetworkPlan, NetworkBenchReport]:
    """Time cold-serial, cold-batch, and warm-batch compiles of ``dag``.

    The service's cache must be empty on entry for the cold runs to be
    honest; the warm run replays through whatever the cold batch cached.
    Returns the warm plan plus the timing report (the three plans are
    byte-identical by the determinism guarantee, so only one is returned).
    """
    from ..core.search import solve_memo

    solve_memo().clear()
    started = time.perf_counter()
    compile_network(dag, hardware)
    cold_serial = time.perf_counter() - started

    service.clear_cache()
    solve_memo().clear()
    started = time.perf_counter()
    compile_network(dag, hardware, service=service, max_workers=max_workers)
    cold_batch = time.perf_counter() - started

    started = time.perf_counter()
    plan = compile_network(
        dag, hardware, service=service, max_workers=max_workers
    )
    warm_batch = time.perf_counter() - started
    return plan, NetworkBenchReport(
        network=dag.name,
        hardware=hardware.name,
        cold_serial_seconds=cold_serial,
        cold_batch_seconds=cold_batch,
        warm_batch_seconds=warm_batch,
    )
