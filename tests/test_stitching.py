"""Differential suite for memory-intensive op stitching (Section VI-B).

The partitioner folds elementwise/softmax/layer_norm glue into adjacent
compute-intensive chains so the bridge tensors become on-chip chain
intermediates.  This suite gates the feature three ways, per chain
family x hardware preset:

1. **Numerics** — the fused-with-stitching program must match the
   whole-operator numpy reference (``execute_reference``).
2. **Traffic** — simulated DRAM-boundary traffic of the stitched
   schedule must be strictly below the unstitched per-node schedules
   (the round trip of every bridge tensor disappears).
3. **Determinism** — plans must stay byte-identical across cold/warm
   service caches.

It also fuzzes the stitching partitioner over random DAGs with
interleaved memory-intensive ops, pins the prologue regression
(an elementwise producer in front of a fusable chain must not drop
fusion), and checks the Bert-Base attention acceptance criterion.
"""

import random

import numpy as np
import pytest

from repro.codegen import execute_reference, random_inputs
from repro.codegen.executor import execute_program
from repro.codegen.program import lower_plan
from repro.hardware import ascend_910, xeon_gold_6240
from repro.ir import builders
from repro.ir.chains import gemm_chain
from repro.ir.graph import ComputeDAG, GraphBuilder, partition_graph
from repro.ir.stitch import StitchError, stitch_nodes
from repro.runtime.network import compile_network
from repro.runtime.serialization import network_plan_json
from repro.service import CompileService
from repro.sim.linecache import boundary_fill_traffic, measure_movement_lines
from repro.workloads import build_network, network_config


# ----------------------------------------------------------------------
# Chain families: one small DAG per stitching role
# ----------------------------------------------------------------------
def _attention_dag() -> ComputeDAG:
    """batch_gemm -> softmax -> batch_gemm (the sandwich role)."""
    b = GraphBuilder("fam_attention")
    score = b.add_op(*builders.batch_gemm("score", 2, 16, 8, 16))
    sm = b.add_op(*builders.softmax("sm", (2, 16, 16)), deps=[score])
    b.add_op(*builders.batch_gemm("value", 2, 16, 16, 8), deps=[sm])
    return b.build()


def _epilogue_dag() -> ComputeDAG:
    """gemm -> layer_norm (the epilogue role, deferred normalization)."""
    b = GraphBuilder("fam_epilogue")
    g = b.add_op(*builders.gemm("proj", 16, 12, 8))
    b.add_op(*builders.layer_norm("ln", (16, 8)), deps=[g])
    return b.build()


def _prologue_dag() -> ComputeDAG:
    """gelu -> two-GEMM chain (the prologue role)."""
    b = GraphBuilder("fam_prologue")
    act = b.add_op(*builders.gelu("pre", (12, 10)))
    b.add_chain(gemm_chain(12, 8, 10, 9), deps=[act])
    return b.build()


def _sandwich_dag() -> ComputeDAG:
    """gemm -> gelu -> gemm -> layer_norm (every elementwise role)."""
    b = GraphBuilder("fam_sandwich")
    g1 = b.add_op(*builders.gemm("f1", 16, 10, 12))
    act = b.add_op(*builders.gelu("act", (16, 12)), deps=[g1])
    g2 = b.add_op(*builders.gemm("f2", 16, 12, 8), deps=[act])
    b.add_op(*builders.layer_norm("ln", (16, 8)), deps=[g2])
    return b.build()


FAMILIES = {
    "attention": _attention_dag,
    "epilogue": _epilogue_dag,
    "prologue": _prologue_dag,
    "sandwich": _sandwich_dag,
}

PRESETS = {"xeon": xeon_gold_6240, "ascend": ascend_910}


def _stitched_chain_node(partition):
    """The single stitched chain node these family DAGs produce."""
    stitched = [
        node
        for node in partition.chains
        if partition.stitched_record(node.name) is not None
    ]
    assert len(stitched) == 1, [n.name for n in partition.chains]
    return stitched[0]


def _dram_boundary(hw) -> str:
    """Traffic through the outermost on-chip level crosses to DRAM."""
    return hw.on_chip_levels[-1].name


def _plan_traffic(plan, hw) -> float:
    """Simulated per-execution DRAM-boundary bytes for a network plan."""
    level = _dram_boundary(hw)
    total = 0.0
    for node in plan.nodes:
        for fusion_plan in node.plans:
            program = lower_plan(fusion_plan)
            total += measure_movement_lines(
                fusion_plan.chain, hw, program, level
            )
    return total


class TestDifferentialStitching:
    """Per family x preset: numerics, traffic, and plan determinism."""

    @pytest.mark.parametrize("preset", sorted(PRESETS), ids=str)
    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=str)
    def test_stitched_execution_matches_reference(self, family, preset):
        dag = FAMILIES[family]()
        hw = PRESETS[preset]()
        partition = partition_graph(dag)
        node = _stitched_chain_node(partition)
        plan = compile_network(dag, hw)
        compiled = plan.node(node.name)
        assert compiled.stitched  # glue was folded, not dropped
        for fusion_plan in compiled.plans:
            chain = fusion_plan.chain
            program = lower_plan(fusion_plan)
            inputs = random_inputs(chain, seed=11)
            got = execute_program(program, inputs)
            reference = execute_reference(chain, inputs)
            for name, expected in reference.items():
                np.testing.assert_allclose(
                    got[name], expected, rtol=1e-6, atol=1e-9,
                    err_msg=f"{family}/{preset} tensor {name}",
                )

    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=str)
    def test_stitched_dram_traffic_below_unstitched(self, family):
        dag = FAMILIES[family]()
        hw = xeon_gold_6240()
        stitched = compile_network(dag, hw, stitch=True)
        unstitched = compile_network(dag, hw, stitch=False)
        stitched_bytes = _plan_traffic(stitched, hw)
        unstitched_bytes = _plan_traffic(unstitched, hw)
        assert stitched_bytes < unstitched_bytes, (
            f"{family}: stitched {stitched_bytes} >= "
            f"unstitched {unstitched_bytes}"
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=str)
    def test_plans_byte_identical_across_caches(self, family, tmp_path):
        dag = FAMILIES[family]()
        hw = xeon_gold_6240()
        baseline = network_plan_json(compile_network(dag, hw))

        service = CompileService(cache_dir=tmp_path / "plans")
        cold = compile_network(dag, hw, service=service)
        warm = compile_network(dag, hw, service=service)
        assert network_plan_json(cold) == baseline
        assert network_plan_json(warm) == baseline
        assert service.stats()["hits"] == len(warm.nodes)


# ----------------------------------------------------------------------
# Fuzzed partitioner properties over DAGs with interleaved MI ops
# ----------------------------------------------------------------------
def _random_mi_dag(rng: random.Random, index: int) -> ComputeDAG:
    """Random DAG interleaving CI single ops with stitchable MI glue."""
    b = GraphBuilder(f"stitch_fuzz_{index}")
    names = []
    rows, cols = 8, 8
    for node_index in range(rng.randint(3, 9)):
        deps = rng.sample(names, k=min(len(names), rng.randint(0, 2)))
        repeat = rng.choice([1, 1, 2])
        roll = rng.random()
        if roll < 0.35:
            op, tensors = builders.gemm(
                f"gemm{node_index}", rows, rng.choice([4, 8]), cols
            )
        elif roll < 0.45:
            op, tensors = builders.batch_gemm(
                f"bmm{node_index}", 2, rows, 4, cols
            )
        elif roll < 0.65:
            kind = rng.choice([builders.relu, builders.gelu, builders.bias_add])
            op, tensors = kind(f"ew{node_index}", (rows, cols))
        elif roll < 0.85:
            op, tensors = builders.softmax(f"sm{node_index}", (rows, cols))
        else:
            op, tensors = builders.layer_norm(f"ln{node_index}", (rows, cols))
        names.append(b.add_op(op, tensors, deps=deps, repeat=repeat))
    return b.build()


@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_stitching_properties(seed):
    rng = random.Random(1000 + seed)
    dag = _random_mi_dag(rng, seed)
    partition = partition_graph(dag)
    partition.validate(dag)  # exactly-one membership + topological order

    by_name = {node.name: node for node in dag.nodes}
    for record in partition.stitched:
        # A stitched node folds >= 2 members around >= 1 CI op, and all
        # members share the repeat count (they run as one kernel).
        assert len(record.members) >= 2
        assert record.stitched
        assert len(record.node.chain.compute_intensive_ops()) >= 1
        repeats = {by_name[m].repeat for m in record.members}
        assert len(repeats) == 1
        assert record.node.repeat in repeats
        # Role labels are consistent with member positions.
        for op in record.stitched:
            assert op.role in ("prologue", "epilogue", "sandwich")
            assert op.node in record.members
        # Folding conserves flops member by member.
        member_flops = sum(
            by_name[m].chain.total_flops() for m in record.members
        )
        assert record.node.chain.total_flops() == member_flops
    assert partition.total_flops() == dag.total_flops()

    # The stitched chains themselves execute correctly when fused.
    hw = xeon_gold_6240()
    for record in partition.stitched[:2]:
        plan = compile_network(dag, hw)
        compiled = plan.node(record.node.name)
        for fusion_plan in compiled.plans:
            chain = fusion_plan.chain
            program = lower_plan(fusion_plan)
            inputs = random_inputs(chain, seed=seed)
            got = execute_program(program, inputs)
            for name, expected in execute_reference(chain, inputs).items():
                np.testing.assert_allclose(
                    got[name], expected, rtol=1e-6, atol=1e-9,
                    err_msg=f"seed {seed} node {record.node.name} {name}",
                )
        break  # one compile per seed keeps the fuzz cheap


# ----------------------------------------------------------------------
# Prologue regression: leading elementwise glue must not drop fusion
# ----------------------------------------------------------------------
class TestPrologueRegression:
    def test_leading_elementwise_keeps_chain_fusable(self):
        dag = _prologue_dag()
        partition = partition_graph(dag)
        node = _stitched_chain_node(partition)
        record = partition.stitched_record(node.name)
        assert record.members[0] == "pre"
        assert [s.role for s in record.stitched] == ["prologue"]
        # Both GEMMs of the would-be chain survive the fold.
        assert len(node.chain.compute_intensive_ops()) == 2
        assert partition.remainder == ()

    def test_prologue_fusion_decision_not_dropped(self):
        """The fused-vs-unfused decision must still see the CI chain."""
        dag = _prologue_dag()
        hw = xeon_gold_6240()
        plan = compile_network(dag, hw)
        node = _stitched_chain_node(partition_graph(dag))
        compiled = plan.node(node.name)
        assert compiled.fusable
        # The same chain without the prologue fuses; attaching glue must
        # not flip that decision (same movement structure, less traffic).
        bare = compile_network(dag, hw, stitch=False)
        bare_chain = bare.node(gemm_chain(12, 8, 10, 9).name)
        assert compiled.fused == bare_chain.fused

    def test_stitch_nodes_rejects_single_stage(self):
        dag = _prologue_dag()
        with pytest.raises(StitchError, match="two"):
            stitch_nodes("solo", [dag.nodes[0]])


# ----------------------------------------------------------------------
# Acceptance: Bert-Base attention with the softmax on chip
# ----------------------------------------------------------------------
class TestBertBaseAcceptance:
    def test_attention_softmax_is_stitched_on_chip(self):
        dag = build_network(network_config("Bert-Base"))
        partition = partition_graph(dag)
        names = [n.name for n in partition.chains]
        merged = "attention_score+attention_softmax+attention_value"
        assert merged in names
        record = partition.stitched_record(merged)
        assert [s.tag for s in record.stitched] == ["softmax"]
        assert [s.role for s in record.stitched] == ["sandwich"]
        # The softmax bridge tensors are chain intermediates now: neither
        # its input nor its output crosses the kernel boundary.
        chain = record.node.chain
        io = set(chain.input_tensors()) | set(chain.output_tensors())
        softmax_tensors = {
            access.tensor
            for op in chain.ops
            if op.tag == "softmax"
            for access in (*op.reads, *op.writes)
        }
        assert softmax_tensors.isdisjoint(io)

    def test_attention_dram_traffic_eliminated(self):
        """Line-cache simulation: stitching removes the softmax
        intermediate's DRAM reads entirely (with the full shared LLC,
        the fused kernel's fills are the compulsory IO bytes only), and
        total DRAM-boundary traffic drops strictly even under the
        per-core capacity split."""
        from repro.runtime.pipeline import compile_chain

        dag = build_network(network_config("Bert-Base"))
        hw = xeon_gold_6240()
        level = _dram_boundary(hw)

        merged_chain = partition_graph(dag).chains[0].chain
        assert "softmax" in {op.tag for op in merged_chain.ops}
        kernels = compile_chain(merged_chain, hw).kernels
        stitched_fills: dict = {}
        stitched_total = 0.0
        for k in kernels:
            stitched_total += measure_movement_lines(
                k.chain, hw, k.program, level
            )
            per_tensor = boundary_fill_traffic(
                k.chain, hw, k.program, shared_capacity_per_core=False
            )
            for tensor, fills in per_tensor.items():
                stitched_fills[tensor] = stitched_fills.get(tensor, 0) + fills
        # The softmax bridge tensors never cross the DRAM boundary.
        for tensor in merged_chain.intermediate_tensors():
            assert stitched_fills[tensor] == 0, (tensor, stitched_fills)

        unstitched = partition_graph(dag, stitch=False)
        members = ("attention_score", "attention_softmax", "attention_value")
        unstitched_total = 0.0
        bridge_reads = 0
        for node in unstitched.remainder:
            if node.name not in members:
                continue
            for k in compile_chain(node.chain, hw).kernels:
                unstitched_total += measure_movement_lines(
                    k.chain, hw, k.program, level
                )
                per_tensor = boundary_fill_traffic(
                    k.chain, hw, k.program, shared_capacity_per_core=False
                )
                for tensor in k.chain.input_tensors():
                    if node.name in ("attention_softmax", "attention_value"):
                        bridge_reads += per_tensor[tensor]
        # Unstitched, the bridge is re-read cold from DRAM: at least one
        # full fetch of the softmax input and of the softmax output.
        softmax_chain = dag.node("attention_softmax").chain
        bridge_nbytes = sum(
            softmax_chain.tensors[t].nbytes
            for t in softmax_chain.input_tensors()
        )
        assert bridge_reads >= 2 * bridge_nbytes
        assert stitched_total < unstitched_total
