"""Compute DAGs for whole networks.

End-to-end evaluation (Figure 9) runs full Transformer/Bert/ViT graphs.  A
:class:`ComputeDAG` is a thin topological container whose nodes are either
fusable operator chains or standalone operators; the runtime times each node
independently and sums (single-stream execution, as on the paper's devices).

:func:`partition_graph` is Chimera's graph-partitioning step at network
granularity: it splits a DAG into the compute-intensive chains the fusion
pipeline targets and the memory-intensive / standalone remainder, with the
partition validated to cover every node exactly once in topological order.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .chain import OperatorChain, single_op_chain
from .operator import OperatorKind, OperatorSpec
from .stitch import StitchError, find_bridge, stitch_nodes
from .tensor import TensorSpec


@dataclasses.dataclass(frozen=True)
class GraphNode:
    """One schedulable unit of a network graph.

    Attributes:
        name: unique node name.
        chain: the operator chain this node executes (single-op chains wrap
            standalone operators).
        deps: names of nodes that must run first.
        repeat: how many times this node executes in the network (e.g. one
            attention chain per layer); timing multiplies by this.
    """

    name: str
    chain: OperatorChain
    deps: Tuple[str, ...] = ()
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.repeat < 1:
            raise ValueError(f"node {self.name!r} repeat must be >= 1")

    def output_bytes(self) -> int:
        """Bytes of the chain's output tensors (dtype-scaled extents).

        This is the footprint the node's result occupies while it waits
        for downstream consumers — the quantity the graph-level scheduler
        accounts as live between producer and last consumer.
        """
        return sum(
            self.chain.tensors[name].nbytes
            for name in self.chain.output_tensors()
        )

    def input_bytes(self) -> int:
        """Bytes of the chain's input tensors."""
        return sum(
            self.chain.tensors[name].nbytes
            for name in self.chain.input_tensors()
        )


@dataclasses.dataclass(frozen=True)
class ComputeDAG:
    """A topologically ordered network graph."""

    name: str
    nodes: Tuple[GraphNode, ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for node in self.nodes:
            missing = set(node.deps) - seen
            if missing:
                raise ValueError(
                    f"graph {self.name!r}: node {node.name!r} depends on "
                    f"{sorted(missing)} which do not precede it"
                )
            if node.name in seen:
                raise ValueError(
                    f"graph {self.name!r}: duplicate node {node.name!r}"
                )
            seen.add(node.name)

    def node(self, name: str) -> GraphNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"graph {self.name!r} has no node {name!r}")

    def total_flops(self) -> int:
        return sum(n.chain.total_flops() * n.repeat for n in self.nodes)

    def chains(self) -> Tuple[OperatorChain, ...]:
        return tuple(n.chain for n in self.nodes)

    def consumers(self) -> Dict[str, Tuple[str, ...]]:
        """Node name -> names of the nodes that depend on it (DAG order)."""
        table: Dict[str, List[str]] = {node.name: [] for node in self.nodes}
        for node in self.nodes:
            for dep in node.deps:
                table[dep].append(node.name)
        return {name: tuple(users) for name, users in table.items()}

    def intermediate_bytes(self) -> int:
        """Total bytes of node outputs consumed elsewhere in the graph.

        Nodes without consumers are network outputs; their results go
        straight to DRAM and never occupy scheduler-managed residency, so
        they are excluded (as are graph inputs, which no node produces).
        """
        consumed = self.consumers()
        return sum(
            node.output_bytes()
            for node in self.nodes
            if consumed[node.name]
        )

    def __str__(self) -> str:
        return f"ComputeDAG({self.name}, {len(self.nodes)} nodes)"


def is_fusable(chain: OperatorChain) -> bool:
    """Whether a chain is a compute-intensive fusion target.

    Chimera fuses chains of two or more compute-intensive operators
    (Section IV); single operators and memory-intensive glue run under the
    host compiler in the paper's end-to-end setup.  Stitching (below)
    additionally admits chains with one CI operator plus attached
    memory-intensive glue.
    """
    return len(chain.compute_intensive_ops()) >= 2


#: Memory-intensive tags the stitcher may fold into a CI block schedule.
#: All five have executor support inside a fused loop nest: the
#: elementwise three run in place per block, softmax runs as a two-pass
#: epilogue (exp + row-sum per block, deferred division), and layer_norm
#: accumulates per-row sum/sum-of-squares and normalizes at kernel end.
STITCHABLE_TAGS = frozenset(
    {"relu", "gelu", "bias_add", "softmax", "layer_norm"}
)


@dataclasses.dataclass(frozen=True)
class StitchedOp:
    """One memory-intensive operator folded into a stitched chain.

    Attributes:
        node: name of the original graph node the operator came from.
        op: the operator's name inside the merged chain.
        tag: executor tag (``"softmax"``, ``"gelu"``, ...).
        role: ``"prologue"`` (before the first CI member), ``"epilogue"``
            (after the last), or ``"sandwich"`` (between CI members).
    """

    node: str
    op: str
    tag: str
    role: str


@dataclasses.dataclass(frozen=True)
class StitchedChain:
    """A run of graph nodes merged into one fused chain node.

    Attributes:
        node: the synthetic merged :class:`GraphNode` (name joins the
            member names with ``+``).
        members: original node names, in producer-to-consumer order.
        stitched: the memory-intensive ops that were folded in.
    """

    node: GraphNode
    members: Tuple[str, ...]
    stitched: Tuple[StitchedOp, ...]


@dataclasses.dataclass(frozen=True)
class GraphPartition:
    """A validated split of a DAG into fusable chains and the remainder.

    Attributes:
        graph: name of the partitioned :class:`ComputeDAG`.
        chains: nodes holding compute-intensive fusable chains (including
            synthetic stitched nodes), in topological order.
        remainder: every other node (standalone operators and
            memory-intensive glue), in topological order.
        stitched: membership records for every synthetic node in
            ``chains`` that merged a run of original nodes.
    """

    graph: str
    chains: Tuple[GraphNode, ...]
    remainder: Tuple[GraphNode, ...]
    stitched: Tuple[StitchedChain, ...] = ()

    def all_nodes(self) -> Tuple[GraphNode, ...]:
        """Every node of the partition (chains first, then remainder)."""
        return self.chains + self.remainder

    def members_of(self, name: str) -> Tuple[str, ...]:
        """Original DAG node names covered by partition node ``name``."""
        for record in self.stitched:
            if record.node.name == name:
                return record.members
        return (name,)

    def stitched_record(self, name: str) -> Optional[StitchedChain]:
        for record in self.stitched:
            if record.node.name == name:
                return record
        return None

    def edges(self) -> Dict[str, Tuple[str, ...]]:
        """Producer -> consumers over *partition* nodes.

        Node ``deps`` reference original DAG node names; stitched nodes
        cover several of those, so each dep is first resolved to the
        partition node owning it.  Self-edges (a dep satisfied inside the
        same merged node) are dropped.  Consumers are listed in partition
        order (chains first, then remainder), deduplicated.
        """
        owner: Dict[str, str] = {}
        for node in self.all_nodes():
            for member in self.members_of(node.name):
                owner[member] = node.name
        table: Dict[str, List[str]] = {
            node.name: [] for node in self.all_nodes()
        }
        for node in self.all_nodes():
            for dep in node.deps:
                producer = owner.get(dep)
                if producer is None or producer == node.name:
                    continue
                if node.name not in table[producer]:
                    table[producer].append(node.name)
        return {name: tuple(users) for name, users in table.items()}

    def total_flops(self) -> int:
        return sum(
            n.chain.total_flops() * n.repeat for n in self.all_nodes()
        )

    def validate(self, dag: "ComputeDAG") -> None:
        """Check the partition is exact for ``dag``.

        Every original node must appear in exactly one side (stitched
        nodes cover all their members), both sides must preserve the
        DAG's topological order, stitched members must be mutually
        reachable in order, and no flops may be lost.

        Raises:
            ValueError: describing the first violation found.
        """
        order = {node.name: index for index, node in enumerate(dag.nodes)}
        seen: set = set()
        for side, nodes in (("chains", self.chains),
                            ("remainder", self.remainder)):
            last = -1
            for node in nodes:
                members = self.members_of(node.name)
                member_last = -1
                for member in members:
                    if member not in order:
                        raise ValueError(
                            f"partition of {self.graph!r}: {side} node "
                            f"{member!r} is not in the graph"
                        )
                    if member in seen:
                        raise ValueError(
                            f"partition of {self.graph!r}: node {member!r} "
                            f"appears in more than one partition"
                        )
                    seen.add(member)
                    if order[member] < member_last:
                        raise ValueError(
                            f"partition of {self.graph!r}: stitched node "
                            f"{node.name!r} breaks topological order at "
                            f"{member!r}"
                        )
                    member_last = order[member]
                first = order[members[0]]
                if first < last:
                    raise ValueError(
                        f"partition of {self.graph!r}: {side} breaks "
                        f"topological order at {node.name!r}"
                    )
                last = first
        missing = set(order) - seen
        if missing:
            raise ValueError(
                f"partition of {self.graph!r} misses nodes "
                f"{sorted(missing)}"
            )
        if self.total_flops() != dag.total_flops():
            raise ValueError(
                f"partition of {self.graph!r} loses flops: "
                f"{self.total_flops()} != {dag.total_flops()}"
            )


def _glue_tag(node: GraphNode) -> Optional[str]:
    """The stitchable tag of a single-op memory-intensive node, else None."""
    if len(node.chain.ops) != 1:
        return None
    op = node.chain.ops[0]
    if op.kind != OperatorKind.MEMORY_INTENSIVE:
        return None
    return op.tag if op.tag in STITCHABLE_TAGS else None


def _is_glue(node: GraphNode) -> bool:
    return _glue_tag(node) is not None


def _has_ci(node: GraphNode) -> bool:
    return bool(node.chain.compute_intensive_ops())


def _is_single_ci_matmul(node: GraphNode) -> bool:
    """A lone gemm/batch_gemm node — the only legal follower of softmax.

    The executor realizes stitched softmax by deferring the row division
    past its consumer (Section VI-B's computation-reordering trick),
    which is only algebraically sound when the consumer is linear in the
    softmax output and its result is the chain output.  Closing the run
    right after a single matmul consumer guarantees both.
    """
    ops = node.chain.ops
    return (
        len(ops) == 1
        and ops[0].is_compute_intensive
        and ops[0].tag in ("gemm", "batch_gemm")
    )


def _bridge_feasible(producer: GraphNode, consumer: GraphNode) -> bool:
    inputs = {
        name: consumer.chain.tensors[name]
        for name in consumer.chain.input_tensors()
    }
    try:
        find_bridge(producer.chain, inputs)
    except StitchError:
        return False
    return True


def _stitch_runs(dag: ComputeDAG) -> List[List[GraphNode]]:
    """Greedy producer->consumer runs eligible for stitching.

    A run extends from ``last`` to its sole consumer ``nxt`` when the two
    repeat together, at least one endpoint is memory-intensive glue (CI
    nodes never merge directly — that is ordinary chain fusion, done at
    build time), the bridge tensor is structurally unambiguous, and the
    glue state machine allows it: elementwise glue anywhere, softmax
    followed by at most one linear consumer (then the run closes), and
    layer_norm only as the final member (its normalization is deferred to
    kernel end, so nothing in-chain may read its output).
    """
    by_name = {node.name: node for node in dag.nodes}
    consumers: Dict[str, List[str]] = {node.name: [] for node in dag.nodes}
    for node in dag.nodes:
        for dep in node.deps:
            consumers[dep].append(node.name)
    assigned: set = set()
    runs: List[List[GraphNode]] = []
    for node in dag.nodes:
        if node.name in assigned:
            continue
        run = [node]
        assigned.add(node.name)
        pending_softmax = _glue_tag(node) == "softmax"
        closed = _glue_tag(node) == "layer_norm"
        while not closed:
            last = run[-1]
            names = consumers[last.name]
            if len(names) != 1 or names[0] in assigned:
                break
            nxt = by_name[names[0]]
            if nxt.repeat != last.repeat:
                break
            if pending_softmax and not _is_single_ci_matmul(nxt):
                break
            if not pending_softmax and not (_is_glue(last) or _is_glue(nxt)):
                break
            if not _bridge_feasible(last, nxt):
                break
            run.append(nxt)
            assigned.add(nxt.name)
            if pending_softmax:
                pending_softmax = False
                closed = True
            elif _glue_tag(nxt) == "softmax":
                pending_softmax = True
            elif _glue_tag(nxt) == "layer_norm":
                closed = True
        runs.append(run)
    return runs


def _merge_run(
    run: Sequence[GraphNode],
) -> Optional[Tuple[GraphNode, StitchedChain]]:
    """Merge a run into one stitched node, or None when not worthwhile."""
    if len(run) < 2 or not any(_has_ci(node) for node in run):
        return None
    name = "+".join(node.name for node in run)
    try:
        chain = stitch_nodes(name, [(node.name, node.chain) for node in run])
    except StitchError:
        return None
    members = tuple(node.name for node in run)
    member_set = set(members)
    deps: List[str] = []
    for node in run:
        for dep in node.deps:
            if dep not in member_set and dep not in deps:
                deps.append(dep)
    merged = GraphNode(name, chain, tuple(deps), run[0].repeat)
    ci_indices = [i for i, node in enumerate(run) if _has_ci(node)]
    first_ci, last_ci = ci_indices[0], ci_indices[-1]
    stitched_ops: List[StitchedOp] = []
    for index, member in enumerate(run):
        if not _is_glue(member):
            continue
        op = member.chain.ops[0]
        if index < first_ci:
            role = "prologue"
        elif index > last_ci:
            role = "epilogue"
        else:
            role = "sandwich"
        stitched_ops.append(StitchedOp(member.name, op.name, op.tag, role))
    return merged, StitchedChain(merged, members, tuple(stitched_ops))


def partition_graph(
    dag: ComputeDAG,
    predicate: Optional[Callable[[OperatorChain], bool]] = None,
    *,
    stitch: bool = True,
) -> GraphPartition:
    """Split a DAG into fusable chain nodes and the remainder.

    With stitching on (the default), memory-intensive glue nodes
    adjacent to compute-intensive work are merged into the neighboring
    chain node — prologue, sandwich, or epilogue — so their bridge
    tensors become on-chip chain intermediates instead of DRAM
    round-trips.  Any run that cannot be
    merged structurally falls back to individual classification, so the
    partition always succeeds.

    Args:
        dag: the network graph.
        predicate: chain classifier (default :func:`is_fusable`).
            Passing an explicit predicate disables stitching: the caller
            has taken over classification entirely.
        stitch: stitch MI glue into adjacent chains (default on).
            ``False`` leaves MI nodes in the unfused remainder; both
            settings produce correct executions.

    Returns:
        a :class:`GraphPartition` that has been validated against ``dag``.
    """
    classify = is_fusable if predicate is None else predicate
    do_stitch = stitch and predicate is None
    runs = _stitch_runs(dag) if do_stitch else [[node] for node in dag.nodes]
    # A run may skip over unrelated nodes (its members need only be in
    # producer->consumer order), so emit every partition node at its first
    # member's DAG position to keep both sides topologically ordered.
    position = {node.name: index for index, node in enumerate(dag.nodes)}
    chains: List[Tuple[int, GraphNode]] = []
    remainder: List[Tuple[int, GraphNode]] = []
    stitched: List[StitchedChain] = []
    for run in runs:
        merged = _merge_run(run) if len(run) > 1 else None
        if merged is not None:
            node, record = merged
            chains.append((position[record.members[0]], node))
            stitched.append(record)
            continue
        for node in run:
            side = chains if classify(node.chain) else remainder
            side.append((position[node.name], node))
    partition = GraphPartition(
        graph=dag.name,
        chains=tuple(node for _, node in sorted(chains, key=lambda e: e[0])),
        remainder=tuple(
            node for _, node in sorted(remainder, key=lambda e: e[0])
        ),
        stitched=tuple(stitched),
    )
    partition.validate(dag)
    return partition


class GraphBuilder:
    """Incremental builder enforcing topological insertion order."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._nodes: List[GraphNode] = []

    def add_chain(
        self,
        chain: OperatorChain,
        deps: Sequence[str] = (),
        repeat: int = 1,
        name: Optional[str] = None,
    ) -> str:
        node_name = name or chain.name
        self._nodes.append(
            GraphNode(node_name, chain, tuple(deps), repeat)
        )
        return node_name

    def add_op(
        self,
        op: OperatorSpec,
        tensors: Mapping[str, TensorSpec],
        deps: Sequence[str] = (),
        repeat: int = 1,
        name: Optional[str] = None,
    ) -> str:
        return self.add_chain(
            single_op_chain(op, tensors), deps=deps, repeat=repeat, name=name
        )

    def build(self) -> ComputeDAG:
        return ComputeDAG(self._name, tuple(self._nodes))
