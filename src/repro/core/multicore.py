"""Block-to-core partitioning: the multi-core scale-out axis.

Chimera's Algorithm 1 prices data movement through one core's slice of
the memory hierarchy; ``HardwareSpec.num_cores`` only splits shared-level
capacity.  When a spec declares an :class:`~repro.hardware.InterCoreLink`,
this module opens a second optimization axis: shard a fused chain over
``p`` cores along one spatial loop, and charge what crossing cores costs.

Following FlashFuser (fusion scale grows once inter-core connections are
modeled) and Blockbuster (communication is just another constraint row),
the model is fully analytical:

* **Sharding** (:func:`shard_chain`) rewrites the chain to one core's
  slice: the partitioned loop's extent becomes ``ceil(E / p)``, flops
  scale proportionally, and tensor dims indexed by the loop shrink by
  exactly the iteration-span delta (padding slack is preserved).
* **Communication** (:func:`comm_volume_bytes`) counts the link traffic
  the shard causes — replicated inputs broadcast to every core, gathered
  intermediates a loop-free consumer needs whole, and halo overlap of
  sliding-window reads — as exact Python integers, per candidate ``p``.
* **Placement search** (:func:`best_partitioned_plan`) enumerates
  ``p ∈ {1, 2, 4, ..., num_cores}`` x partitionable loops, pruning with
  an admissible lower bound (compulsory DRAM traffic, shard compute,
  exact communication time) before paying a full per-placement solve;
  shared-level capacity tightens to ``capacity / p`` for the survivors.

Pass ``cores=<p>`` to force one partition count (inert on hardware
without a link, so single-core planning stays byte-identical).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.spec import HardwareSpec
from ..ir.chain import OperatorChain
from ..ir.loops import Loop
from .optimizer import ChimeraConfig, ChimeraOptimizer
from .plan import CorePartition, FusionPlan


def partition_factors(
    hardware: HardwareSpec, cores: Optional[int] = None
) -> Tuple[int, ...]:
    """Candidate core counts for ``hardware``: powers of two up to the chip.

    ``cores`` forces a single count, clamped to the chip.  Hardware
    without a link has no partitioning axis — the answer is always
    ``(1,)`` there, ``cores`` included, which is what keeps single-core
    planning byte-identical under a forced width.

    Raises:
        ValueError: when ``cores`` is below 1.
    """
    if cores is not None and cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    if hardware.link is None:
        return (1,)
    n = hardware.num_cores
    if cores is not None:
        return (min(cores, n),)
    factors: List[int] = []
    p = 1
    while p <= n:
        factors.append(p)
        p *= 2
    if factors[-1] != n:
        factors.append(n)
    return tuple(factors)


def partition_loops(chain: OperatorChain) -> Tuple[str, ...]:
    """Loops a chain may shard over cores.

    A loop qualifies when it is spatial in *every* operator that has it
    (sharding a reduction would leave partial sums needing a cross-core
    reduce), its extent admits a split, and every owning operator's
    output is indexed by it (otherwise shards would race on the write).
    Operators *without* the loop are replicated per shard; intermediates
    they consume whole are charged as gather traffic by the comm model.
    """
    extents = chain.loop_extents()
    result: List[str] = []
    for name in chain.independent_loops():
        if extents[name] < 2:
            continue
        qualified = True
        for op in chain.ops_with_loop(name):
            if op.loop(name).is_reduction:
                qualified = False
                break
            if not all(write.uses(name) for write in op.writes):
                qualified = False
                break
        if qualified:
            result.append(name)
    return tuple(result)


def shard_extent(full: int, cores: int) -> int:
    """Per-core extent of a loop split ``cores`` ways: ``ceil(full/p)``."""
    return -(-full // cores)


def shard_chain(
    chain: OperatorChain, loop_name: str, cores: int
) -> OperatorChain:
    """One core's slice of ``chain`` sharded ``cores`` ways along a loop.

    Every operator owning the loop gets the shard extent and a
    proportional flop count; tensor dims indexed by the loop shrink by
    exactly the iteration-span delta (a dim with padding slack keeps
    it).  Tensors no access indexes by the loop are untouched — those
    are the replicated ones.
    """
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    extents = chain.loop_extents()
    if loop_name not in extents:
        raise KeyError(f"chain {chain.name!r} has no loop {loop_name!r}")
    full = extents[loop_name]
    new_extent = shard_extent(full, cores)
    if new_extent == full:
        return chain
    sharded_extents = dict(extents)
    sharded_extents[loop_name] = new_extent

    ops = []
    for op in chain.ops:
        if not op.has_loop(loop_name):
            ops.append(op)
            continue
        loops = tuple(
            Loop(l.name, new_extent if l.name == loop_name else l.extent,
                 l.kind)
            for l in op.loops
        )
        flops = op.flops * new_extent // full
        ops.append(dataclasses.replace(op, loops=loops, flops=flops))

    tensors = {}
    for name, spec in chain.tensors.items():
        accesses = [
            a
            for op in chain.ops
            for a in op.all_accesses()
            if a.tensor == name
        ]
        shape = []
        for d, size in enumerate(spec.shape):
            touched = [a.dims[d] for a in accesses if a.dims[d].coeff(loop_name)]
            if not touched:
                shape.append(size)
                continue
            delta = max(
                expr.extent(extents) - expr.extent(sharded_extents)
                for expr in touched
            )
            shape.append(max(1, size - delta))
        tensors[name] = dataclasses.replace(spec, shape=tuple(shape))

    return OperatorChain(
        name=f"{chain.name}@p{cores}", ops=tuple(ops), tensors=tensors
    )


# ----------------------------------------------------------------------
# communication volume
# ----------------------------------------------------------------------
def _comm_components(chain: OperatorChain, loop_name: str):
    """Static ingredients of the comm model for one partitioned loop.

    Returns ``(replicated_bytes, gathered_bytes, halo_terms)`` where
    ``halo_terms`` is a list of ``(elem_bytes, dims)`` per sliding-window
    consumer read, each dim as ``(base, coeff)`` so a shard's span along
    it is ``base + coeff * (E' - 1)``.
    """
    extents = chain.loop_extents()
    inputs = set(chain.input_tensors())
    intermediates = set(chain.intermediate_tensors())

    uses_loop: Dict[str, bool] = {name: False for name in chain.tensors}
    read_without_loop: Dict[str, bool] = {name: False for name in chain.tensors}
    for op in chain.ops:
        for access in op.reads:
            if access.uses(loop_name):
                uses_loop[access.tensor] = True
            else:
                read_without_loop[access.tensor] = True
        for access in op.writes:
            if access.uses(loop_name):
                uses_loop[access.tensor] = True

    # Inputs no access indexes by the loop exist identically on every
    # shard: broadcast once per extra core.
    replicated = sum(
        chain.tensors[t].nbytes for t in inputs if not uses_loop[t]
    )
    # Intermediates produced loop-sharded but consumed whole by an
    # operator without the loop: an all-gather reassembles them.
    gathered = sum(
        chain.tensors[t].nbytes
        for t in intermediates
        if uses_loop[t] and read_without_loop[t]
    )
    # Sliding-window reads of sharded intermediates overlap between
    # neighboring shards: the overlap is produced on one core and read
    # on another.
    halo_terms = []
    for t in sorted(intermediates):
        if not uses_loop[t]:
            continue
        elem = chain.tensors[t].dtype.nbytes
        for op in chain.ops:
            for access in op.reads:
                if access.tensor != t or not access.uses(loop_name):
                    continue
                dims = []
                for expr in access.dims:
                    coeff = expr.coeff(loop_name)
                    base = 1 + expr.offset
                    for name, c in expr.terms:
                        if name != loop_name:
                            base += c * (extents[name] - 1)
                    dims.append((base, coeff))
                halo_terms.append((elem, tuple(dims)))
    return replicated, gathered, halo_terms


def _halo_overlap(term, full_extent: int, p: int) -> int:
    """Overlap elements of one sliding-window read at partition ``p``."""
    elem, dims = term
    eprime = shard_extent(full_extent, p)
    shard_elems = 1
    full_elems = 1
    for base, coeff in dims:
        shard_elems *= base + coeff * (eprime - 1)
        full_elems *= base + coeff * (full_extent - 1)
    return elem * max(0, p * shard_elems - full_elems)


def comm_volume_bytes(
    chain: OperatorChain,
    loop_name: str,
    cores: Sequence[int],
) -> Tuple[int, ...]:
    """Total link bytes per candidate partition count (exact integers)."""
    replicated, gathered, halo_terms = _comm_components(chain, loop_name)
    full = chain.loop_extents()[loop_name]
    results = []
    for p in cores:
        total = (p - 1) * (replicated + gathered)
        for term in halo_terms:
            total += _halo_overlap(term, full, p)
        results.append(total)
    return tuple(results)


def comm_steps(
    chain: OperatorChain,
    loop_name: str,
    hardware: HardwareSpec,
    p: int,
    comm_bytes: int,
) -> int:
    """Latency-bearing exchange steps for one placement.

    One collective sweep of the topology per traffic class present
    (broadcast of replicated inputs, gather of whole intermediates,
    neighbor halo exchange).
    """
    link = hardware.link
    if link is None or p <= 1 or comm_bytes <= 0:
        return 0
    replicated, gathered, halo_terms = _comm_components(chain, loop_name)
    full = chain.loop_extents()[loop_name]
    phases = int(replicated > 0) + int(gathered > 0)
    if any(_halo_overlap(t, full, p) > 0 for t in halo_terms):
        phases += 1
    return phases * link.collective_steps(p)


# ----------------------------------------------------------------------
# placement search
# ----------------------------------------------------------------------
def partition_lower_bound(
    shard: OperatorChain,
    hardware: HardwareSpec,
    p: int,
    comm_time: float,
) -> float:
    """Admissible lower bound on a placement's predicted time.

    Every term underestimates its counterpart in
    :attr:`FusionPlan.predicted_time`: DV at the DRAM boundary is at
    least the compulsory IO bytes, a shard's flops run on one core at
    ``peak / num_cores`` and efficiency <= 1, communication is exact,
    and a fused plan launches once.  Pruning on it never discards a
    winning placement.
    """
    compute = shard.total_flops() * hardware.num_cores / hardware.peak_flops
    movement = p * shard.io_bytes() / hardware.dram_bandwidth
    return (
        max(compute, movement)
        + comm_time
        + hardware.kernel_launch_overhead
    )


def best_partitioned_plan(
    chain: OperatorChain,
    hardware: HardwareSpec,
    config: Optional[ChimeraConfig] = None,
    *,
    incumbent_time: float = math.inf,
    cores: Optional[int] = None,
) -> Optional[FusionPlan]:
    """Best block-to-core placement of the fused chain, or ``None``.

    Enumerates candidate core counts x partitionable loops.  For each
    placement the comm term is computed exactly, an admissible lower bound
    prunes placements that cannot beat the incumbent, and survivors pay
    a full per-level solve with shared capacity tightened to the
    ``1/p`` share.  Ties keep the earlier candidate (smaller ``p``,
    earlier loop), so the search is deterministic.

    Args:
        incumbent_time: predicted time of the aggregate (unpartitioned)
            fused plan; placements must beat it strictly.
        cores: force one partition count (see :func:`partition_factors`).
    """
    link = hardware.link
    if link is None:
        return None
    factors = [p for p in partition_factors(hardware, cores) if p > 1]
    if not factors:
        return None
    loops = partition_loops(chain)
    if not loops:
        return None

    extents = chain.loop_extents()
    optimizer = ChimeraOptimizer(hardware, config)
    best: Optional[FusionPlan] = None
    best_time = incumbent_time
    for loop_name in loops:
        volumes = comm_volume_bytes(chain, loop_name, factors)
        for p, volume in zip(factors, volumes):
            steps = comm_steps(chain, loop_name, hardware, p, volume)
            comm_time = (
                volume / link.bandwidth + steps * link.step_time()
            )
            shard = shard_chain(chain, loop_name, p)
            bound = partition_lower_bound(shard, hardware, p, comm_time)
            if bound >= best_time:
                continue
            plan = optimizer.optimize(shard, partitions=p)
            partition = CorePartition(
                cores=p,
                loop=loop_name,
                full_extent=extents[loop_name],
                shard_extent=shard_extent(extents[loop_name], p),
                comm_bytes=int(volume),
                comm_steps=steps,
            )
            plan = dataclasses.replace(
                plan,
                partition=partition,
                notes=plan.notes
                + (f"partitioned over {p} cores along {loop_name}",),
            )
            time = plan.predicted_time
            if time < best_time:
                best = plan
                best_time = time
    return best
