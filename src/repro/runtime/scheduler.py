"""Graph-level execution scheduling: peak-memory-minimizing order search.

Chimera's inter-block order search is per-chain; at the network level the
``ComputeDAG`` nodes of a :class:`~repro.ir.graph.GraphPartition` used to
execute in naive topological order.  For graphs with parallel structure —
multi-branch networks, or several tenants' networks packed into one DAG —
that order interleaves independent branches and keeps every branch's
intermediates live at once, spilling working sets a better linear
arrangement keeps resident.

:func:`schedule_partition` chooses the execution order analytically, in
three stages (following the in-memory-tables minimum-linear-arrangement
approach and the inter-kernel locality arguments of FlashFuser /
FusionStitching):

1. **Seed** — an iterative memory-prioritized DFS topological order:
   depth-first from the heaviest producers so each branch retires its
   intermediates before the next branch starts.  The DFS uses an explicit
   stack — deep linear graphs (thousands of nodes) must not hit Python's
   recursion limit.
2. **Refine** — deterministic seeded simulated annealing over adjacent
   transpositions that preserve topological legality, minimizing the peak
   resident intermediate bytes.  The emitted order is never worse than
   the naive topological order (the incumbent only improves).
3. **Residency** — when the peak still exceeds the ``memory_budget``
   (default: the capacity of the hardware level feeding DRAM), evict
   tensors at the peak until it fits, choosing per tensor between
   **rematerialize** (recompute the producer before each consumer, priced
   by the producer's node-plan time) and **spill** (a DRAM round trip,
   priced by the movement model's
   :func:`~repro.core.movement.spill_round_trip_bytes` over the DRAM
   bandwidth — the same pricing that charges tile movement).

Everything is deterministic: same partition, hardware and ``seed``
produce a byte-identical :class:`GraphSchedule` (and therefore a
byte-identical serialized ``NetworkPlan``).  Scheduling is disabled
entirely with ``compile_network(..., schedule=False)``.

The live-set model counts one network pass: a kept tensor occupies its
``output_bytes`` from its producer's step through its last consumer's
step; an evicted tensor occupies memory only transiently at its producer
and consumer steps.  Node ``repeat`` counts multiply the eviction
overhead (every pass pays the round trip), not the per-pass peak.
Rematerialization is priced first-order: the producer re-runs once per
consumer; its own inputs are assumed fetchable (they are graph inputs or
scheduled tensors themselves).
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.movement import spill_round_trip_bytes
from ..hardware.spec import HardwareSpec
from ..ir.graph import GraphPartition

#: Residency decisions.
KEEP = "keep"
SPILL = "spill"
REMATERIALIZE = "rematerialize"

DECISIONS = (KEEP, SPILL, REMATERIALIZE)


def default_memory_budget(hardware: HardwareSpec) -> int:
    """The DRAM-side residency budget of a machine model, in bytes.

    Graph-level intermediates wait for their consumers in the outermost
    bounded level — the one that fills from DRAM.  Private (per-core)
    levels aggregate across cores, since graph execution is sequential
    and the whole chip's capacity is available to the resident set.
    """
    level = hardware.levels[-2]
    assert level.capacity is not None  # guaranteed by HardwareSpec
    if level.shared:
        return level.capacity
    return level.capacity * hardware.num_cores


@dataclasses.dataclass(frozen=True)
class TensorResidency:
    """The residency decision for one graph-level intermediate.

    Attributes:
        producer: partition node whose output this is.
        tensor: the chain output tensor name(s) behind the bytes.
        nbytes: footprint while resident.
        consumers: partition nodes that read it, in execution order.
        decision: ``"keep"``, ``"spill"`` or ``"rematerialize"``.
        overhead_time: seconds per network run charged for the decision
            (0 for keep; repeat counts folded in).
    """

    producer: str
    tensor: str
    nbytes: int
    consumers: Tuple[str, ...]
    decision: str
    overhead_time: float = 0.0

    def __post_init__(self) -> None:
        if self.decision not in DECISIONS:
            raise ValueError(
                f"unknown residency decision {self.decision!r} "
                f"(use one of {DECISIONS})"
            )


@dataclasses.dataclass(frozen=True)
class GraphSchedule:
    """A scheduled execution order plus residency decisions.

    Attributes:
        graph: name of the scheduled graph.
        order: partition node names in execution order (a legal
            topological order of the partition).
        live_bytes: resident intermediate bytes at each execution step,
            under the residency decisions.
        peak_bytes: ``max(live_bytes)``.
        naive_peak_bytes: the peak of the naive topological order with
            every intermediate kept — the baseline scheduling beats.
        memory_budget: the residency budget the schedule was solved for.
        seed: annealing seed used.
        residency: one record per graph-level intermediate.
        transients: sorted ``(node, nbytes)`` pairs of extra bytes resident
            only at that node's own step — communication staging of
            partitioned (multi-core) nodes.  Empty on linkless hardware.
    """

    graph: str
    order: Tuple[str, ...]
    live_bytes: Tuple[int, ...]
    peak_bytes: int
    naive_peak_bytes: int
    memory_budget: int
    seed: int
    residency: Tuple[TensorResidency, ...]
    transients: Tuple[Tuple[str, int], ...] = ()

    @property
    def overhead_time(self) -> float:
        """Seconds per network run spent on spills and recomputation."""
        return sum(r.overhead_time for r in self.residency)

    @property
    def evictions(self) -> Tuple[TensorResidency, ...]:
        return tuple(r for r in self.residency if r.decision != KEEP)

    @property
    def within_budget(self) -> bool:
        return self.peak_bytes <= self.memory_budget

    @property
    def peak_reduction(self) -> float:
        """Naive-over-scheduled peak ratio (>= 1 by construction)."""
        if self.peak_bytes == 0:
            return 1.0 if self.naive_peak_bytes == 0 else math.inf
        return self.naive_peak_bytes / self.peak_bytes

    def residency_of(self, producer: str) -> Optional[TensorResidency]:
        for record in self.residency:
            if record.producer == producer:
                return record
        return None

    def position(self, name: str) -> int:
        try:
            return self.order.index(name)
        except ValueError:
            raise KeyError(
                f"schedule of {self.graph!r} has no node {name!r}"
            ) from None

    def describe(self) -> str:
        state = "within" if self.within_budget else "EXCEEDS"
        return (
            f"schedule {self.graph}: {len(self.order)} nodes, peak "
            f"{_format_bytes(self.peak_bytes)} (naive "
            f"{_format_bytes(self.naive_peak_bytes)}, "
            f"{self.peak_reduction:.2f}x reduction), {state} budget "
            f"{_format_bytes(self.memory_budget)}, "
            f"{len(self.evictions)} eviction(s), overhead "
            f"{self.overhead_time * 1e6:.2f} us"
        )


def _format_bytes(value: float) -> str:
    """Human-readable byte count (also used by the plan report table)."""
    for unit, scale in (("GB", 1024 ** 3), ("MB", 1024 ** 2), ("KB", 1024)):
        if value >= scale:
            return f"{value / scale:.2f}{unit}"
    return f"{value:.0f}B"


# ----------------------------------------------------------------------
# live-set profile
# ----------------------------------------------------------------------
def _live_profile(
    order: Sequence[str],
    footprints: Mapping[str, int],
    consumers: Mapping[str, Tuple[str, ...]],
    decisions: Mapping[str, str],
    transients: Mapping[str, int] = (),
) -> List[int]:
    """Resident intermediate bytes at each step of ``order``.

    Kept tensors contribute over [producer, last consumer]; evicted ones
    (spilled or rematerialized) only at the producer and consumer steps —
    in between they exist in DRAM (spill) or not at all (rematerialize).
    ``transients`` adds per-node bytes resident only while that node
    executes (multi-core communication staging buffers).
    """
    position = {name: index for index, name in enumerate(order)}
    deltas = [0] * (len(order) + 1)
    points = [0] * len(order)
    if transients:
        for name, nbytes in dict(transients).items():
            if name in position:
                points[position[name]] += nbytes
    for producer, nbytes in footprints.items():
        users = consumers.get(producer, ())
        if not users or nbytes == 0:
            continue
        start = position[producer]
        if decisions.get(producer, KEEP) == KEEP:
            end = max(position[user] for user in users)
            deltas[start] += nbytes
            deltas[end + 1] -= nbytes
        else:
            steps = {start}
            steps.update(position[user] for user in users)
            for step in steps:
                points[step] += nbytes
    live: List[int] = []
    running = 0
    for index in range(len(order)):
        running += deltas[index]
        live.append(running + points[index])
    return live


def _peak(live: Sequence[int]) -> int:
    return max(live) if live else 0


# ----------------------------------------------------------------------
# stage 1: memory-prioritized DFS seed
# ----------------------------------------------------------------------
def _dfs_seed(
    names: Sequence[str],
    consumers: Mapping[str, Tuple[str, ...]],
    footprints: Mapping[str, int],
) -> List[str]:
    """Reverse-postorder DFS, heaviest producers and successors first.

    Starting the DFS at the nodes with the largest live footprints (and
    descending into heavy successors first) retires big intermediates
    quickly: a branch completes before the next one starts.  Reverse
    postorder of any DFS over a DAG is a valid topological order, so the
    seed is always legal.

    Implemented with an explicit stack: a linear graph of a few thousand
    nodes would blow ``sys.getrecursionlimit()`` under the textbook
    recursive formulation.
    """
    position = {name: index for index, name in enumerate(names)}

    def weight(name: str) -> Tuple[int, int]:
        # Heaviest first; DAG position breaks ties deterministically.
        return (-footprints.get(name, 0), position[name])

    roots = sorted(names, key=weight)
    sorted_children = {
        name: sorted(consumers.get(name, ()), key=weight) for name in names
    }
    visited: Set[str] = set()
    postorder: List[str] = []
    for root in roots:
        if root in visited:
            continue
        visited.add(root)
        stack: List[Tuple[str, int]] = [(root, 0)]
        while stack:
            name, child_index = stack[-1]
            children = sorted_children[name]
            advanced = False
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in visited:
                    visited.add(child)
                    stack[-1] = (name, child_index)
                    stack.append((child, 0))
                    advanced = True
                    break
            else:
                postorder.append(name)
                stack.pop()
                continue
            if not advanced:  # pragma: no cover - loop structure guard
                break
    postorder.reverse()
    return postorder


# ----------------------------------------------------------------------
# stage 2: simulated annealing over adjacent transpositions
# ----------------------------------------------------------------------
def _anneal(
    order: List[str],
    edges: Set[Tuple[str, str]],
    footprints: Mapping[str, int],
    consumers: Mapping[str, Tuple[str, ...]],
    rng: random.Random,
    iterations: int,
    transients: Mapping[str, int] = (),
) -> Tuple[List[str], int]:
    """Minimize the all-keep peak by legal adjacent swaps.

    A swap of adjacent positions ``(i, i+1)`` preserves topological
    legality exactly when there is no edge between the two nodes — every
    other precedence is untouched.  Adjacent transpositions connect the
    space of topological orders, so the walk can in principle reach any
    of them.  Returns the best order/peak seen (never worse than the
    start).

    The live profile is kept between moves rather than rebuilt: such a
    swap changes only steps ``i`` and ``i+1``.  The right node's output
    becomes live a step earlier and the left node's a step later, their
    transients trade steps, and a producer whose last use moves between
    the two steps gains or loses step ``i+1``.  The updated profile is
    exactly the rebuilt one, so the peaks, the RNG draws and the returned
    order are those of the full rebuild (``tests/schedule_oracle.py``).
    """
    current = list(order)
    live = _live_profile(current, footprints, consumers, {}, transients)
    position = {name: index for index, name in enumerate(current)}
    transient = dict(transients)
    # The producers the profile counts: their bytes, their users, and the
    # position of their last user; per node, the counted producers it reads.
    kept = {
        name: nbytes
        for name, nbytes in footprints.items()
        if nbytes and consumers.get(name)
    }
    users = {name: set(consumers[name]) for name in kept}
    last_use = {
        name: max(position[user] for user in users[name]) for name in kept
    }
    reads: Dict[str, List[str]] = {name: [] for name in current}
    for name in kept:
        for user in users[name]:
            reads[user].append(name)

    current_peak = _peak(live)
    best = list(current)
    best_peak = current_peak
    count = len(current)
    if count < 2 or iterations <= 0:
        return best, best_peak
    t_start = max(1.0, 0.05 * max(best_peak, 1))
    t_end = max(1.0, 1e-3 * t_start)
    for step in range(iterations):
        index = rng.randrange(count - 1)
        left, right = current[index], current[index + 1]
        if (left, right) in edges:
            continue
        # Producers whose last use moves: left's step moves to index + 1;
        # right's moves to index unless left reads the producer too.
        later = [name for name in reads[left] if last_use[name] == index]
        earlier = [
            name
            for name in reads[right]
            if last_use[name] == index + 1 and left not in users[name]
        ]
        low, high = live[index], live[index + 1]
        left_transient = transient.get(left, 0)
        right_transient = transient.get(right, 0)
        live[index] = (
            low - kept.get(left, 0) + kept.get(right, 0)
            - left_transient + right_transient
        )
        live[index + 1] = (
            high + left_transient - right_transient
            + sum(kept[name] for name in later)
            - sum(kept[name] for name in earlier)
        )
        peak = max(live)
        temperature = t_start * (t_end / t_start) ** (
            step / max(1, iterations - 1)
        )
        delta = peak - current_peak
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current[index], current[index + 1] = right, left
            for name in later:
                last_use[name] = index + 1
            for name in earlier:
                last_use[name] = index
            current_peak = peak
            if peak < best_peak:
                best = list(current)
                best_peak = peak
        else:
            live[index], live[index + 1] = low, high
    return best, best_peak


# ----------------------------------------------------------------------
# stage 3: rematerialize-vs-keep under the budget
# ----------------------------------------------------------------------
def _decide_residency(
    order: Sequence[str],
    footprints: Mapping[str, int],
    consumers: Mapping[str, Tuple[str, ...]],
    repeats: Mapping[str, int],
    node_times: Mapping[str, float],
    hardware: HardwareSpec,
    budget: int,
    transients: Mapping[str, int] = (),
) -> Tuple[Dict[str, str], Dict[str, float]]:
    """Greedy eviction at the peak until the budget holds (or none helps).

    Each round finds the highest step of the live profile and evicts the
    cheapest-per-byte tensor that actually relieves it (kept, spanning
    the step, neither produced nor consumed there).  Per tensor the
    cheaper of the two eviction modes wins: rematerialization costs the
    producer's time once per consumer; a spill costs the movement-model
    round trip (one DRAM fill plus one read per consumer) at DRAM
    bandwidth.  Both multiply by the producer's repeat count.
    """
    decisions: Dict[str, str] = {}
    overheads: Dict[str, float] = {}
    position = {name: index for index, name in enumerate(order)}
    while True:
        live = _live_profile(
            order, footprints, consumers, decisions, transients
        )
        peak = _peak(live)
        if peak <= budget or not live:
            break
        hot = live.index(peak)
        candidates = []
        for producer, nbytes in footprints.items():
            users = consumers.get(producer, ())
            if not users or nbytes == 0 or producer in decisions:
                continue
            start = position[producer]
            end = max(position[user] for user in users)
            if not start < hot <= end:
                continue
            if hot in {position[user] for user in users}:
                continue  # resident at `hot` either way (read back there)
            repeat = repeats.get(producer, 1)
            spill_cost = (
                hardware.memory_time(
                    spill_round_trip_bytes(nbytes, len(users)), "DRAM"
                )
                * repeat
            )
            produce_time = node_times.get(producer)
            if produce_time is None:
                remat_cost = math.inf
            else:
                remat_cost = produce_time * len(users) * repeat
            cost = min(spill_cost, remat_cost)
            decision = REMATERIALIZE if remat_cost < spill_cost else SPILL
            candidates.append(
                (cost / nbytes, -nbytes, producer, decision, cost)
            )
        if not candidates:
            break  # nothing left to evict at the hot step: budget binds
        candidates.sort()
        _, _, producer, decision, cost = candidates[0]
        decisions[producer] = decision
        overheads[producer] = cost
    return decisions, overheads


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def schedule_partition(
    partition: GraphPartition,
    hardware: HardwareSpec,
    *,
    node_times: Optional[Mapping[str, float]] = None,
    memory_budget: Optional[int] = None,
    seed: int = 0,
    anneal_iters: Optional[int] = None,
    dag_order: Optional[Sequence[str]] = None,
    node_transients: Optional[Mapping[str, int]] = None,
) -> GraphSchedule:
    """Schedule a partition's nodes to minimize peak resident bytes.

    Args:
        partition: the validated graph partition to order.
        hardware: machine model supplying the DRAM bandwidth (spill
            pricing) and the default budget.
        node_times: per-execution node times (``NodePlan.time``), used to
            price rematerialization; producers missing here can only
            spill.
        memory_budget: residency budget in bytes (default:
            :func:`default_memory_budget`).
        seed: annealing seed.
        anneal_iters: annealing iterations (default scales with the node
            count).
        dag_order: the original DAG's node names in graph order; when
            given, the naive baseline order replays the DAG's own
            interleaving (what an order-oblivious executor runs).
            Without it the baseline is reconstructed from the partition's
            chains-then-remainder layout.
        node_transients: extra bytes resident only while a node executes
            (multi-core communication staging of partitioned kernels);
            counted in every live profile, including the naive baseline,
            so the peak comparison stays apples-to-apples.

    Returns:
        a deterministic :class:`GraphSchedule`; its order is always a
        legal topological order of the partition and its peak is never
        above the naive topological order's.
    """
    if memory_budget is None:
        memory_budget = default_memory_budget(hardware)
    if memory_budget <= 0:
        raise ValueError(f"memory_budget must be positive, got {memory_budget}")
    nodes = partition.all_nodes()
    by_name = {node.name: node for node in nodes}
    consumers = partition.edges()
    footprints = {node.name: node.output_bytes() for node in nodes}
    repeats = {node.name: node.repeat for node in nodes}
    times = dict(node_times or {})
    transients = {
        name: int(nbytes)
        for name, nbytes in (node_transients or {}).items()
        if name in by_name and nbytes > 0
    }

    naive = _naive_order(partition, dag_order)
    naive_peak = _peak(
        _live_profile(naive, footprints, consumers, {}, transients)
    )

    seeded = _dfs_seed(naive, consumers, footprints)
    seeded_peak = _peak(
        _live_profile(seeded, footprints, consumers, {}, transients)
    )
    if seeded_peak < naive_peak:
        incumbent, incumbent_peak = seeded, seeded_peak
    else:
        incumbent, incumbent_peak = list(naive), naive_peak

    edge_pairs = {
        (producer, user)
        for producer, users in consumers.items()
        for user in users
    }
    if anneal_iters is None:
        anneal_iters = min(3000, max(200, 60 * len(nodes)))
    rng = random.Random(seed)
    order, _ = _anneal(
        incumbent, edge_pairs, footprints, consumers, rng, anneal_iters,
        transients,
    )

    decisions, overheads = _decide_residency(
        order, footprints, consumers, repeats, times, hardware,
        memory_budget, transients,
    )
    live = _live_profile(order, footprints, consumers, decisions, transients)
    position = {name: index for index, name in enumerate(order)}
    residency = []
    for producer in order:
        users = consumers.get(producer, ())
        if not users:
            continue
        node = by_name[producer]
        residency.append(
            TensorResidency(
                producer=producer,
                tensor="+".join(node.chain.output_tensors()),
                nbytes=footprints[producer],
                consumers=tuple(
                    sorted(users, key=lambda name: position[name])
                ),
                decision=decisions.get(producer, KEEP),
                overhead_time=overheads.get(producer, 0.0),
            )
        )
    return GraphSchedule(
        graph=partition.graph,
        order=tuple(order),
        live_bytes=tuple(live),
        peak_bytes=_peak(live),
        naive_peak_bytes=naive_peak,
        memory_budget=memory_budget,
        seed=seed,
        residency=tuple(residency),
        transients=tuple(sorted(transients.items())),
    )


def _naive_order(
    partition: GraphPartition,
    dag_order: Optional[Sequence[str]] = None,
) -> List[str]:
    """The baseline order: Kahn's algorithm, earliest DAG position first.

    With ``dag_order`` (the original DAG's member names in graph order),
    this reproduces the DAG's own node order whenever that order is
    itself legal for the partition (the common case), and repairs it
    deterministically when stitched nodes straddle it.  Without it, the
    partition's chains-then-remainder layout stands in for the positions.
    Iterative — no recursion, by the same explicit-stack policy as the
    DFS seed.
    """
    nodes = partition.all_nodes()
    consumers = partition.edges()
    indegree = {node.name: 0 for node in nodes}
    for users in consumers.values():
        for user in users:
            indegree[user] += 1
    member_rank: Dict[str, int] = {}
    if dag_order is not None:
        for cursor, member in enumerate(dag_order):
            member_rank[member] = cursor
    else:
        cursor = 0
        for node in nodes:
            for member in partition.members_of(node.name):
                member_rank[member] = cursor
                cursor += 1
    rank: Dict[str, int] = {}
    for node in nodes:
        rank[node.name] = min(
            member_rank[member]
            for member in partition.members_of(node.name)
        )
    ready = sorted(
        (name for name, degree in indegree.items() if degree == 0),
        key=lambda name: rank[name],
    )
    order: List[str] = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        changed = False
        for user in consumers.get(name, ()):
            indegree[user] -= 1
            if indegree[user] == 0:
                ready.append(user)
                changed = True
        if changed:
            ready.sort(key=lambda name: rank[name])
    if len(order) != len(nodes):
        raise ValueError(
            f"partition of {partition.graph!r} has a dependency cycle "
            f"across its nodes"
        )
    return order
