"""Whole-network graphs: Transformer, Bert, ViT (Figure 9 / Table I).

Each encoder layer contributes:

* the QKV projection and output projection (compute-intensive GEMMs),
* the attention score/softmax/value operators (stitched into one fused
  chain by the partitioner — the paper's Figure 2 workload),
* the two FFN GEMMs with a GELU between,
* residual LayerNorms (memory-intensive).

The graph carries each operator as its own node; it is
:func:`repro.ir.graph.partition_graph` that decides what fuses.  With
stitching on, attention compiles as one chain with softmax on-chip, and
the FFN/LayerNorm glue rides along with the adjacent GEMMs.
:func:`network_time` times the partition's chain nodes and remainder
nodes with independently chosen systems, mirroring the paper's
Relay+Chimera end-to-end setup.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..baselines.systems import get_system
from ..hardware.spec import HardwareSpec
from ..ir import builders
from ..ir.dtypes import FP16
from ..ir.graph import (
    ComputeDAG,
    GraphBuilder,
    GraphNode,
    GraphPartition,
    is_fusable,
    partition_graph,
)


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """Transformer-family network hyperparameters.

    Attributes:
        name: display name (e.g. ``"Bert-Base"``).
        layers: encoder layer count.
        heads: attention heads (the batch of the BMM chain).
        seq: sequence length (tokens or patches).
        head_dim: per-head dimension.
        ffn_mult: FFN expansion factor.
    """

    name: str
    layers: int
    heads: int
    seq: int
    head_dim: int
    ffn_mult: int = 4

    def __post_init__(self) -> None:
        # Degenerate configs (layers=1, heads=1, tiny seq) are legitimate —
        # tests and ablations use them — but non-positive hyperparameters
        # would otherwise surface as obscure loop-extent errors deep in the
        # builders.  Fail here, naming the field.
        for field in ("layers", "heads", "seq", "head_dim", "ffn_mult"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(
                    f"network {self.name!r}: {field} must be >= 1, "
                    f"got {value}"
                )

    @property
    def hidden(self) -> int:
        return self.heads * self.head_dim


NETWORKS: Dict[str, NetworkConfig] = {
    "TF-Small": NetworkConfig("TF-Small", 6, 8, 512, 64),
    "TF-Base": NetworkConfig("TF-Base", 12, 12, 512, 64),
    "TF-Large": NetworkConfig("TF-Large", 24, 16, 512, 64),
    "Bert-Small": NetworkConfig("Bert-Small", 4, 8, 512, 64),
    "Bert-Base": NetworkConfig("Bert-Base", 12, 12, 512, 64),
    "Bert-Large": NetworkConfig("Bert-Large", 24, 16, 512, 64),
    "ViT-Base/14": NetworkConfig("ViT-Base/14", 12, 12, 256, 64),
    "ViT-Large/14": NetworkConfig("ViT-Large/14", 24, 16, 256, 64),
    "ViT-Huge/14": NetworkConfig("ViT-Huge/14", 32, 16, 256, 80),
}


def network_config(name: str) -> NetworkConfig:
    """Look up a network preset (case-insensitive).

    Raises:
        KeyError: listing known names.
    """
    config = NETWORKS.get(name)
    if config is None:
        folded = {key.lower(): cfg for key, cfg in NETWORKS.items()}
        config = folded.get(name.lower())
    if config is None:
        raise KeyError(
            f"unknown network {name!r}; known: {sorted(NETWORKS)}"
        )
    return config


def build_network(config: NetworkConfig) -> ComputeDAG:
    """One encoder layer's graph, with ``repeat=layers`` on every node."""
    builder = GraphBuilder(config.name)
    seq, hidden = config.seq, config.hidden
    repeat = config.layers

    qkv_op, qkv_tensors = builders.gemm(
        "qkv_proj", seq, hidden, 3 * hidden, dtype=FP16
    )
    qkv = builder.add_op(qkv_op, qkv_tensors, repeat=repeat)

    # Attention as three graph nodes (QK^T, softmax, AV).  The stitching
    # partitioner merges them back into one fused chain — softmax rides
    # inside the batch-GEMM block schedule instead of round-tripping its
    # (heads, seq, seq) score matrix through DRAM.
    score_op, score_tensors = builders.batch_gemm(
        "attention_score", config.heads, seq, config.head_dim, seq
    )
    score = builder.add_op(score_op, score_tensors, deps=[qkv], repeat=repeat)

    sm_op, sm_tensors = builders.softmax(
        "attention_softmax", (config.heads, seq, seq)
    )
    sm = builder.add_op(sm_op, sm_tensors, deps=[score], repeat=repeat)

    value_op, value_tensors = builders.batch_gemm(
        "attention_value", config.heads, seq, seq, config.head_dim
    )
    attn = builder.add_op(value_op, value_tensors, deps=[sm], repeat=repeat)

    out_op, out_tensors = builders.gemm("out_proj", seq, hidden, hidden)
    out = builder.add_op(out_op, out_tensors, deps=[attn], repeat=repeat)

    ln1_op, ln1_tensors = builders.layer_norm("ln1", (seq, hidden))
    ln1 = builder.add_op(ln1_op, ln1_tensors, deps=[out], repeat=repeat)

    ffn1_op, ffn1_tensors = builders.gemm(
        "ffn1", seq, hidden, config.ffn_mult * hidden
    )
    ffn1 = builder.add_op(ffn1_op, ffn1_tensors, deps=[ln1], repeat=repeat)

    gelu_op, gelu_tensors = builders.gelu(
        "ffn_gelu", (seq, config.ffn_mult * hidden)
    )
    act = builder.add_op(gelu_op, gelu_tensors, deps=[ffn1], repeat=repeat)

    ffn2_op, ffn2_tensors = builders.gemm(
        "ffn2", seq, config.ffn_mult * hidden, hidden
    )
    ffn2 = builder.add_op(ffn2_op, ffn2_tensors, deps=[act], repeat=repeat)

    ln2_op, ln2_tensors = builders.layer_norm("ln2", (seq, hidden))
    builder.add_op(ln2_op, ln2_tensors, deps=[ffn2], repeat=repeat)

    return builder.build()


def pack_networks(
    dags: Sequence[ComputeDAG],
    *,
    name: Optional[str] = None,
    interleave: bool = True,
) -> ComputeDAG:
    """Combine several networks into one multi-tenant graph.

    The serving scenario behind graph-level scheduling: one box hosts
    several tenants' networks, compiled and executed as a single DAG.
    Node names get a ``t{i}.`` tenant prefix (deps rewritten to match);
    chains are shared untouched, so identical tenants still hit the same
    plan-cache entries.

    Args:
        dags: the tenant graphs, one entry per tenant.
        interleave: emit nodes round-robin across tenants (the order a
            naive scheduler executes them in, keeping every tenant's
            working set live at once — the baseline the memory-minimizing
            scheduler improves on).  ``False`` concatenates tenant by
            tenant instead.  Both orders are valid topological orders;
            per-tenant relative order is preserved either way.

    Raises:
        ValueError: for an empty tenant list.
    """
    if not dags:
        raise ValueError("pack_networks needs at least one network")
    packed_name = name or "+".join(dag.name for dag in dags)
    per_tenant: List[List[GraphNode]] = []
    for index, dag in enumerate(dags):
        prefix = f"t{index}."
        per_tenant.append(
            [
                GraphNode(
                    name=prefix + node.name,
                    chain=node.chain,
                    deps=tuple(prefix + dep for dep in node.deps),
                    repeat=node.repeat,
                )
                for node in dag.nodes
            ]
        )
    nodes: List[GraphNode] = []
    if interleave:
        depth = max(len(tenant) for tenant in per_tenant)
        for step in range(depth):
            for tenant in per_tenant:
                if step < len(tenant):
                    nodes.append(tenant[step])
    else:
        for tenant in per_tenant:
            nodes.extend(tenant)
    return ComputeDAG(packed_name, tuple(nodes))


def build_multibranch_network(
    *,
    branches: int = 8,
    seq: int = 512,
    width: int = 2048,
    reduce_dim: int = 64,
    name: Optional[str] = None,
) -> ComputeDAG:
    """A synthetic wide graph: one stem fanning into parallel GEMM branches.

    Each branch expands the stem activation to a ``seq x width`` working
    tensor and immediately reduces it back to ``seq x reduce_dim``; a head
    GEMM joins every branch result.  The graph is emitted breadth-first
    (all expands, then all reduces) — the naive topological order, which
    keeps every branch's wide intermediate live simultaneously.  A
    depth-first schedule retires each branch before starting the next, so
    the peak drops by roughly the branch count: the stress shape for the
    graph-level scheduler benchmarks.

    Raises:
        ValueError: for a non-positive branch count.
    """
    if branches < 1:
        raise ValueError(f"branches must be >= 1, got {branches}")
    builder = GraphBuilder(name or f"MultiBranch-{branches}x")
    stem_op, stem_tensors = builders.gemm(
        "stem", seq, reduce_dim, reduce_dim, dtype=FP16
    )
    stem = builder.add_op(stem_op, stem_tensors)
    expands = []
    for index in range(branches):
        op, tensors = builders.gemm(
            f"b{index}.expand", seq, reduce_dim, width, dtype=FP16
        )
        expands.append(builder.add_op(op, tensors, deps=[stem]))
    reduces = []
    for index in range(branches):
        op, tensors = builders.gemm(
            f"b{index}.reduce", seq, width, reduce_dim, dtype=FP16
        )
        reduces.append(builder.add_op(op, tensors, deps=[expands[index]]))
    head_op, head_tensors = builders.gemm(
        "head", seq, branches * reduce_dim, reduce_dim, dtype=FP16
    )
    builder.add_op(head_op, head_tensors, deps=reduces)
    return builder.build()


def is_fusable_chain(node: GraphNode) -> bool:
    """Whether a node is a compute-intensive chain (Chimera's target).

    Delegates to :func:`repro.ir.graph.is_fusable`, the predicate the
    network-level partitioner uses, so the two classifications can never
    drift apart.
    """
    return is_fusable(node.chain)


@dataclasses.dataclass(frozen=True)
class NetworkTiming:
    """Per-node measured times for one (network, system pairing) run."""

    network: str
    node_times: Mapping[str, float] = dataclasses.field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.node_times.values())


def network_time(
    dag: ComputeDAG,
    hardware: HardwareSpec,
    *,
    base_system: str,
    chain_system: Optional[str] = None,
    chain_times: Optional[Mapping[str, float]] = None,
    partition: Optional[GraphPartition] = None,
    schedule: Optional[Any] = None,
) -> "NetworkTiming":
    """Time a network with one system for chains and one for the rest.

    This mirrors the paper's Figure 9 setup, where Relay hosts the graph
    and the attention batch GEMM chain kernels come from TensorRT, cuDNN,
    Ansor or Chimera.

    Args:
        dag: the network graph.
        hardware: machine model to time on.
        base_system: registry key timing the non-chain nodes.
        chain_system: registry key timing the fusable chains analytically.
        chain_times: per-execution chain times by *partition* node name —
            typically ``{n.name: n.time for n in network_plan.nodes}``
            from a compiled :class:`repro.runtime.NetworkPlan`, replacing
            the analytic chain model with plan-backed timings.  Exactly
            one of ``chain_system`` / ``chain_times`` must be given.
        partition: the graph partition to time (defaults to
            ``partition_graph(dag)``, which stitches MI glue).  Pass the
            partition a plan was compiled from so ``chain_times`` keys
            line up with stitched node names.
        schedule: a :class:`repro.runtime.scheduler.GraphSchedule` (or
            anything with its ``residency`` records); each evicted
            intermediate's spill/recompute overhead is charged to its
            producer node, so the timing reflects the scheduled
            residency, not free infinite memory.

    Raises:
        ValueError: when neither or both chain sources are given, when
            ``chain_times`` misses a fusable chain node, or when
            ``schedule`` charges a node the partition does not have.
    """
    if (chain_system is None) == (chain_times is None):
        raise ValueError(
            "pass exactly one of chain_system= or chain_times="
        )
    if partition is None:
        partition = partition_graph(dag)
    base = get_system(base_system)
    chain_sys = None if chain_system is None else get_system(chain_system)
    chain_names = {node.name for node in partition.chains}
    node_times: Dict[str, float] = {}
    for node in partition.all_nodes():
        if node.name in chain_names:
            if chain_sys is not None:
                per_exec = chain_sys.run(node.chain, hardware).time
            else:
                if node.name not in chain_times:
                    raise ValueError(
                        f"chain_times misses fusable chain node "
                        f"{node.name!r}"
                    )
                per_exec = chain_times[node.name]
        else:
            per_exec = base.run(node.chain, hardware).time
        node_times[node.name] = per_exec * node.repeat
    if schedule is not None:
        for record in schedule.residency:
            if record.overhead_time == 0:
                continue
            if record.producer not in node_times:
                raise ValueError(
                    f"schedule charges node {record.producer!r} which the "
                    f"partition of {dag.name!r} does not have"
                )
            # overhead_time is per network run with repeats folded in.
            node_times[record.producer] += record.overhead_time
    return NetworkTiming(network=dag.name, node_times=node_times)
