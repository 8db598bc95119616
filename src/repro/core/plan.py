"""Fusion plan data model.

A :class:`FusionPlan` is Chimera's inter-block optimization result: per
memory level, the block execution order and the decomposition parameters,
together with the analytically predicted movement volume, memory usage and
per-level cost.  Plans are consumed by code generation, by the simulator and
by the reporting layer.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Tuple

from ..hardware.spec import HardwareSpec
from ..ir.chain import OperatorChain


@dataclasses.dataclass(frozen=True)
class LevelSchedule:
    """Block order and tile sizes targeting one on-chip memory level.

    Attributes:
        level: memory level name (e.g. ``"L2"``).
        order: loop permutation, outermost first; loops with extent 1 are
            omitted (they never cause movement).
        tiles: tile size per ordered loop.
        predicted_dv: Algorithm 1 data movement volume into this level, bytes.
        predicted_mu: peak per-block footprint at this level, bytes.
        capacity: per-block capacity used as the MU constraint, bytes.
        bandwidth: fill bandwidth of this level's outer boundary, bytes/s.
    """

    level: str
    order: Tuple[str, ...]
    tiles: Mapping[str, int]
    predicted_dv: float
    predicted_mu: float
    capacity: float
    bandwidth: float

    @property
    def cost(self) -> float:
        """Data movement cost of Eq. 2: ``DV_d / bw_d`` seconds."""
        return self.predicted_dv / self.bandwidth

    def describe(self) -> str:
        tiles = ", ".join(f"{n}={self.tiles[n]}" for n in self.order)
        return (
            f"{self.level}: order {'/'.join(self.order)} tiles [{tiles}] "
            f"DV={self.predicted_dv / 1e6:.2f}MB MU={self.predicted_mu / 1024:.1f}KB "
            f"cost={self.cost * 1e6:.1f}us"
        )


@dataclasses.dataclass(frozen=True)
class CorePartition:
    """Block-to-core sharding attached to a partitioned plan.

    Records how a fused chain was split over ``cores`` cores along one
    spatial ``loop``, and the inter-core traffic that split causes.  The
    byte and step counts are exact integers.

    Attributes:
        cores: number of cores the chain is sharded over (p).
        loop: name of the partitioned spatial loop.
        full_extent: the loop's original extent.
        shard_extent: per-core extent, ``ceil(full_extent / cores)``.
        comm_bytes: total link bytes per chain execution (replicated
            inputs, gathered intermediates, halo overlap).
        comm_steps: latency-bearing exchange steps on the link.
    """

    cores: int
    loop: str
    full_extent: int
    shard_extent: int
    comm_bytes: int
    comm_steps: int

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("partition needs at least one core")
        if self.shard_extent < 1 or self.full_extent < self.shard_extent:
            raise ValueError(
                f"invalid shard {self.shard_extent}/{self.full_extent} "
                f"for loop {self.loop!r}"
            )
        if self.comm_bytes < 0 or self.comm_steps < 0:
            raise ValueError("communication terms must be non-negative")

    def describe(self) -> str:
        return (
            f"{self.cores} cores along {self.loop} "
            f"({self.full_extent} -> {self.shard_extent}/core), "
            f"comm {self.comm_bytes / 1e6:.2f}MB in {self.comm_steps} steps"
        )


@dataclasses.dataclass(frozen=True)
class FusionPlan:
    """Complete inter-block optimization result for one chain.

    Attributes:
        chain: the (already fused) operator chain.  For partitioned plans
            this is the *sharded* chain — one core's slice.
        hardware: target machine model.
        levels: one schedule per on-chip level, innermost first — mirroring
            ``HardwareSpec.on_chip_levels``.
        fused: False when the planner decided fusion is not profitable and
            the chain should run as separate kernels.
        micro_kernel: name of the selected replaceable micro kernel
            implementation, once intra-block optimization ran.
        compute_efficiency: fraction of peak the selected micro kernel
            sustains (1.0 before intra-block optimization).
        notes: free-form diagnostics from the optimizer.
        partition: block-to-core sharding, or ``None`` for the aggregate
            single-chip model.  ``None`` keeps every timing formula
            byte-identical to the pre-partitioning model.
    """

    chain: OperatorChain
    hardware: HardwareSpec
    levels: Tuple[LevelSchedule, ...]
    fused: bool = True
    micro_kernel: Optional[str] = None
    compute_efficiency: float = 1.0
    executed_flops: Optional[float] = None
    notes: Tuple[str, ...] = ()
    partition: Optional[CorePartition] = None

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a fusion plan needs at least one level schedule")

    @property
    def outer(self) -> LevelSchedule:
        """The schedule facing DRAM (drives off-chip traffic)."""
        return self.levels[-1]

    @property
    def inner(self) -> LevelSchedule:
        """The schedule closest to the compute units."""
        return self.levels[0]

    def level(self, name: str) -> LevelSchedule:
        for sched in self.levels:
            if sched.level == name:
                return sched
        raise KeyError(f"plan has no schedule for level {name!r}")

    @property
    def movement_cost(self) -> float:
        """The slowest data movement stage across levels (Eq. 3 objective).

        Partitioned plans price each boundary at one shard's share of its
        bandwidth: a shared source level (or DRAM) serves the ``p``
        resident shards concurrently, so each sees ``bw / p``; a private
        source level is one of ``num_cores`` per-core slices of the
        chip-aggregate bandwidth the level declares.
        """
        if self.partition is None:
            return max(sched.cost for sched in self.levels)
        p = self.partition.cores
        worst = 0.0
        for index, sched in enumerate(self.levels):
            source = self.hardware.levels[index + 1]
            scale = (
                p if (source.shared or source.is_unbounded)
                else self.hardware.num_cores
            )
            worst = max(worst, scale * sched.cost)
        return worst

    @property
    def unified_buffer_cost(self) -> float:
        """Staging time of fused intermediates through the Unified Buffer.

        The paper identifies the Ascend UB as the NPU's fusion bottleneck:
        every fused intermediate passes through it once on produce and once
        on consume.  Zero on hardware without a UB or for unfused kernels.
        Partitioned plans stage one shard's intermediates through a single
        core's UB (the bandwidth is per-core: chip aggregate / num_cores).
        """
        if self.hardware.unified_buffer is None or not self.fused:
            return 0.0
        inter_bytes = sum(
            self.chain.tensors[t].nbytes
            for t in self.chain.intermediate_tensors()
        )
        cost = 2 * inter_bytes / self.hardware.unified_buffer_bandwidth
        if self.partition is not None:
            cost *= self.hardware.num_cores
        return cost

    @property
    def compute_time(self) -> float:
        flops = (
            self.executed_flops
            if self.executed_flops is not None
            else self.chain.total_flops()
        )
        if self.partition is not None:
            # One shard on one core: a core sustains peak / num_cores, so
            # the shard's flops cost num_cores x the aggregate rate.  At
            # p == num_cores this recovers the whole-chip estimate.
            flops *= self.hardware.num_cores
        return self.hardware.compute_time(flops, self.compute_efficiency)

    @property
    def comm_time(self) -> float:
        """Inter-core link time of a partitioned plan (0 when aggregate)."""
        if self.partition is None:
            return 0.0
        link = self.hardware.link
        if link is None or self.partition.cores <= 1:
            return 0.0
        return (
            self.partition.comm_bytes / link.bandwidth
            + self.partition.comm_steps * link.step_time()
        )

    @property
    def predicted_time(self) -> float:
        """Roofline execution estimate: pipeline stages overlap (max).

        Inter-core communication is charged additively — collectives
        synchronize the shards, so the model conservatively refuses to
        hide them behind compute or movement.
        """
        launches = 1 if self.fused else len(self.chain.ops)
        return (
            max(self.movement_cost, self.compute_time,
                self.unified_buffer_cost)
            + self.comm_time
            + launches * self.hardware.kernel_launch_overhead
        )

    def describe(self) -> str:
        lines = [
            f"FusionPlan for {self.chain.name} on {self.hardware.name} "
            f"({'fused' if self.fused else 'unfused'})"
        ]
        for sched in reversed(self.levels):
            lines.append("  " + sched.describe())
        if self.partition is not None:
            lines.append("  partition: " + self.partition.describe())
        if self.micro_kernel:
            lines.append(
                f"  micro kernel: {self.micro_kernel} "
                f"(eff {self.compute_efficiency:.2f})"
            )
        lines.append(
            f"  predicted: compute {self.compute_time * 1e6:.1f}us, "
            f"movement {self.movement_cost * 1e6:.1f}us, "
            f"total {self.predicted_time * 1e6:.1f}us"
        )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def with_micro_kernel(
        self, name: str, efficiency: float
    ) -> "FusionPlan":
        """Attach the intra-block optimization result."""
        return dataclasses.replace(
            self, micro_kernel=name, compute_efficiency=efficiency
        )
