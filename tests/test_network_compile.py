"""Network-level compilation: partitioner, differential execution,
serialization round-trips, cold/warm determinism, and the stitch x
schedule off paths on Bert-Small.

The differential suite compiles a 1-layer tiny Transformer, executes every
compiled kernel plan through the block-program interpreter, and checks the
numbers against the whole-operator numpy reference — the end-to-end
analogue of the per-chain correctness tests.
"""

import json
import random

import numpy as np
import pytest

from repro.codegen import execute_reference, random_inputs
from repro.codegen.executor import execute_program
from repro.codegen.program import lower_plan
from repro.hardware import xeon_gold_6240
from repro.ir import builders
from repro.ir.chains import batch_gemm_chain
from repro.ir.graph import (
    ComputeDAG,
    GraphBuilder,
    GraphPartition,
    is_fusable,
    partition_graph,
)
from repro.runtime.network import (
    NetworkCompilationError,
    compile_network,
)
from repro.runtime.serialization import (
    PlanFormatError,
    load_network_plan,
    network_plan_from_dict,
    network_plan_json,
    network_plan_to_dict,
    plan_to_dict,
    save_network_plan,
)
from repro.service import CompileService
from repro.sim.residency import replay_schedule
from repro.workloads import build_network, network_config
from repro.workloads.networks import NetworkConfig

#: Operator tags the numerical executor implements.
EXECUTABLE_TAGS = frozenset(
    ["gemm", "batch_gemm", "conv2d", "depthwise_conv2d",
     "relu", "bias_add", "gelu", "softmax", "layer_norm"]
)

#: The stitched Bert/Transformer partition (see build_network): attention
#: fuses score+softmax+value, the projections pick up their layer norms,
#: and the FFN block fuses end to end.  Only the QKV projection remains.
STITCHED_BERT_CHAINS = [
    "attention_score+attention_softmax+attention_value",
    "out_proj+ln1",
    "ffn1+ffn_gelu+ffn2+ln2",
]

TINY = NetworkConfig("Tiny-TF", layers=1, heads=2, seq=16, head_dim=8)


@pytest.fixture(scope="module")
def tiny_plan():
    dag = build_network(TINY)
    return dag, compile_network(dag, xeon_gold_6240())


class TestPartitioner:
    def test_bert_partition_shape(self):
        dag = build_network(network_config("Bert-Small"))
        partition = partition_graph(dag)
        assert [n.name for n in partition.chains] == STITCHED_BERT_CHAINS
        assert [n.name for n in partition.remainder] == ["qkv_proj"]
        # Every original graph node lands in exactly one stitched member set.
        covered = [
            member
            for node in partition.all_nodes()
            for member in partition.members_of(node.name)
        ]
        assert sorted(covered) == sorted(n.name for n in dag.nodes)
        assert partition.total_flops() == dag.total_flops()

    def test_bert_partition_without_stitching(self):
        dag = build_network(network_config("Bert-Small"))
        partition = partition_graph(dag, stitch=False)
        assert partition.stitched == ()
        # The attention matmuls are single-op graph nodes, so nothing in
        # the unstitched Transformer graph forms a fusable chain.
        assert partition.chains == ()
        assert len(partition.remainder) == len(dag.nodes)
        assert partition.total_flops() == dag.total_flops()

    def test_validate_rejects_missing_node(self):
        dag = build_network(TINY)
        partition = partition_graph(dag)
        broken = GraphPartition(
            graph=partition.graph,
            chains=partition.chains,
            remainder=partition.remainder[:-1],
            stitched=partition.stitched,
        )
        with pytest.raises(ValueError, match="misses"):
            broken.validate(dag)

    def test_validate_rejects_duplicates(self):
        dag = build_network(TINY)
        partition = partition_graph(dag)
        broken = GraphPartition(
            graph=partition.graph,
            chains=partition.chains + partition.chains[-1:],
            remainder=partition.remainder,
            stitched=partition.stitched,
        )
        with pytest.raises(ValueError, match="more than one"):
            broken.validate(dag)

    def test_validate_rejects_order_violation(self):
        dag = build_network(TINY)
        partition = partition_graph(dag)
        broken = GraphPartition(
            graph=partition.graph,
            chains=tuple(reversed(partition.chains)),
            remainder=partition.remainder,
            stitched=partition.stitched,
        )
        with pytest.raises(ValueError, match="topological"):
            broken.validate(dag)

    def test_custom_predicate(self):
        dag = build_network(TINY)
        everything = partition_graph(dag, predicate=lambda chain: True)
        assert len(everything.chains) == len(dag.nodes)
        assert everything.remainder == ()


def _random_dag(rng: random.Random, index: int) -> ComputeDAG:
    """A random DAG mixing fusable chains, single ops, and random deps."""
    builder = GraphBuilder(f"fuzz_dag_{index}")
    names = []
    for node_index in range(rng.randint(2, 7)):
        repeat = rng.choice([1, 1, 2, 4])
        deps = rng.sample(names, k=min(len(names), rng.randint(0, 2)))
        kind = rng.random()
        if kind < 0.4:
            chain = batch_gemm_chain(
                rng.choice([1, 2]),
                rng.choice([8, 16]),
                8,
                8,
                rng.choice([8, 16]),
                with_softmax=rng.random() < 0.5,
                name=f"chain{node_index}",
            )
            names.append(
                builder.add_chain(chain, deps=deps, repeat=repeat)
            )
        elif kind < 0.7:
            op, tensors = builders.gemm(
                f"gemm{node_index}", rng.choice([8, 16]), 8, 8
            )
            names.append(
                builder.add_op(op, tensors, deps=deps, repeat=repeat)
            )
        else:
            op, tensors = builders.gelu(f"act{node_index}", (8, 8))
            names.append(
                builder.add_op(op, tensors, deps=deps, repeat=repeat)
            )
    return builder.build()


@pytest.mark.parametrize("seed", range(15))
def test_fuzzed_partition_properties(seed):
    rng = random.Random(seed)
    dag = _random_dag(rng, seed)
    partition = partition_graph(dag)
    partition.validate(dag)

    # Every original graph node belongs to exactly one partition node
    # (stitched nodes expand to their member lists).
    membership = [
        member
        for node in partition.all_nodes()
        for member in partition.members_of(node.name)
    ]
    assert sorted(membership) == sorted(n.name for n in dag.nodes)

    # Both sides preserve topological order (by first stitched member).
    order = {node.name: i for i, node in enumerate(dag.nodes)}
    for side in (partition.chains, partition.remainder):
        firsts = [order[partition.members_of(n.name)[0]] for n in side]
        assert firsts == sorted(firsts)

    # Unstitched chain nodes still satisfy the fusability predicate, and
    # every stitched node folds at least one compute-intensive member.
    stitched_names = {record.node.name for record in partition.stitched}
    for node in partition.chains:
        if node.name not in stitched_names:
            assert is_fusable(node.chain)
        else:
            record = partition.stitched_record(node.name)
            assert len(record.members) >= 2
            assert record.stitched  # at least one glue op was folded
            assert len(node.chain.compute_intensive_ops()) >= 1
    for node in partition.remainder:
        assert node.name not in stitched_names
        assert not is_fusable(node.chain)

    # No flops are lost, and stitching never changes the total.
    assert partition.total_flops() == dag.total_flops()
    unstitched = partition_graph(dag, stitch=False)
    assert unstitched.total_flops() == dag.total_flops()


class TestDifferentialExecution:
    def test_every_executable_node_matches_reference(self, tiny_plan):
        dag, plan = tiny_plan
        executed = []
        for node in plan.nodes:
            for fusion_plan in node.plans:
                chain = fusion_plan.chain
                if not all(op.tag in EXECUTABLE_TAGS for op in chain.ops):
                    continue
                program = lower_plan(fusion_plan)
                inputs = random_inputs(chain, seed=7)
                got = execute_program(program, inputs)
                reference = execute_reference(chain, inputs)
                for name, expected in reference.items():
                    np.testing.assert_allclose(
                        got[name], expected, rtol=1e-6, atol=1e-9,
                        err_msg=f"node {node.name} tensor {name}",
                    )
                executed.append(node.name)
        # The stitched attention chain must be among the verified kernels,
        # and every node in the plan executes (layer norms included).
        assert any("attention" in name for name in executed)
        assert set(executed) == {n.name for n in plan.nodes}

    def test_fused_attention_chain_is_compiled_fused(self, tiny_plan):
        _, plan = tiny_plan
        name = "attention_score+attention_softmax+attention_value"
        attention = plan.node(name)
        assert attention.fusable
        assert attention.kernels == len(attention.plans)
        assert attention.members == (
            "attention_score", "attention_softmax", "attention_value",
        )
        assert [s.tag for s in attention.stitched] == ["softmax"]
        assert [s.role for s in attention.stitched] == ["sandwich"]

    def test_network_time_not_worse_than_unfused(self, tiny_plan):
        _, plan = tiny_plan
        assert plan.total_time <= plan.unfused_total_time * (1 + 1e-12)
        assert plan.total_time > 0
        assert plan.speedup_over_unfused >= 1.0


class TestSerialization:
    def test_round_trip_byte_identical(self, tiny_plan, tmp_path):
        _, plan = tiny_plan
        path = tmp_path / "tiny.network.json"
        save_network_plan(plan, path)
        reloaded = load_network_plan(path)
        assert network_plan_json(reloaded) == network_plan_json(plan)
        # And the file itself is stable across a save-load-save cycle.
        path2 = tmp_path / "tiny2.network.json"
        save_network_plan(reloaded, path2)
        assert path.read_text() == path2.read_text()

    def test_dict_round_trip_preserves_times(self, tiny_plan):
        _, plan = tiny_plan
        reloaded = network_plan_from_dict(network_plan_to_dict(plan))
        assert reloaded.total_time == plan.total_time
        assert reloaded.unfused_total_time == plan.unfused_total_time
        assert [n.name for n in reloaded.nodes] == [
            n.name for n in plan.nodes
        ]
        # Volatile source fields are not serialized.
        assert all(n.source is None for n in reloaded.nodes)

    def test_unknown_version_rejected(self, tiny_plan):
        _, plan = tiny_plan
        data = network_plan_to_dict(plan)
        data["format_version"] = 999
        with pytest.raises(PlanFormatError, match="999"):
            network_plan_from_dict(data)

    def test_missing_field_rejected(self, tiny_plan):
        _, plan = tiny_plan
        data = network_plan_to_dict(plan)
        del data["nodes"][0]["repeat"]
        with pytest.raises(PlanFormatError, match="repeat"):
            network_plan_from_dict(data)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PlanFormatError, match="not valid JSON"):
            load_network_plan(path)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(PlanFormatError, match="JSON object"):
            load_network_plan(path)


class TestDeterminism:
    """Cold and warm caches must agree byte for byte with the serial
    compile on Bert-Base (extends the test_search_equivalence contract to
    whole networks)."""

    @pytest.fixture(scope="class")
    def bert(self):
        dag = build_network(network_config("Bert-Base"))
        return dag, xeon_gold_6240()

    def test_cold_warm_and_serial_agree(self, bert, tmp_path_factory):
        dag, hw = bert
        cache_dir = tmp_path_factory.mktemp("plans")
        serial = compile_network(dag, hw)

        service = CompileService(cache_dir=cache_dir)
        cold = compile_network(dag, hw, service=service)
        assert service.stats()["misses"] == len(cold.nodes)

        warm = compile_network(dag, hw, service=service)
        assert service.stats()["hits"] == len(cold.nodes)

        fresh = CompileService(cache_dir=cache_dir)  # disk tier
        disk = compile_network(dag, hw, service=fresh)

        baseline = network_plan_json(serial)
        assert network_plan_json(cold) == baseline
        assert network_plan_json(warm) == baseline
        assert network_plan_json(disk) == baseline
        # Cache provenance is visible in memory but never serialized.
        assert all(n.source in ("memory", "disk") for n in warm.nodes)


class TestOffPaths:
    """Stitching and scheduling on and off, as explicit arguments, on
    Bert-Small: each variant is deterministic across the serial and the
    warm-service path, executes correctly, and replays its schedule."""

    @pytest.fixture(scope="class")
    def bert_small(self):
        return build_network(network_config("Bert-Small")), xeon_gold_6240()

    @pytest.fixture(scope="class")
    def executed(self):
        """Plans already checked against the reference (scheduling only
        reorders nodes, so both schedule variants share their plans)."""
        return set()

    @pytest.mark.parametrize("schedule", [True, False],
                             ids=["schedule", "no_schedule"])
    @pytest.mark.parametrize("stitch", [True, False],
                             ids=["stitch", "no_stitch"])
    def test_variant(self, bert_small, executed, stitch, schedule):
        dag, hw = bert_small
        options = dict(stitch=stitch, schedule=schedule)
        serial = compile_network(dag, hw, **options)
        service = CompileService()
        compile_network(dag, hw, service=service, **options)
        warm = compile_network(dag, hw, service=service, **options)
        assert all(n.source == "memory" for n in warm.nodes)
        assert network_plan_json(warm) == network_plan_json(serial)
        assert bool(serial.stitched_nodes) == stitch

        # Every Bert-Small node executes (no tag outside EXECUTABLE_TAGS).
        for node in serial.nodes:
            for fusion_plan in node.plans:
                key = json.dumps(plan_to_dict(fusion_plan), sort_keys=True)
                if key in executed:
                    continue
                chain = fusion_plan.chain
                inputs = random_inputs(chain, seed=7)
                got = execute_program(lower_plan(fusion_plan), inputs)
                reference = execute_reference(chain, inputs)
                for name, expected in reference.items():
                    np.testing.assert_allclose(
                        got[name], expected, rtol=1e-6, atol=1e-9,
                        err_msg=f"node {node.name} tensor {name}",
                    )
                executed.add(key)

        if schedule:
            replayed = replay_schedule(serial.schedule)
            assert replayed.peak_bytes == serial.schedule.peak_bytes
        else:
            assert serial.schedule is None


class TestFailureIsolation:
    def test_unknown_timing_mode_rejected(self):
        dag = build_network(TINY)
        with pytest.raises(ValueError, match="timing"):
            compile_network(dag, xeon_gold_6240(), timing="exact")

    def test_batch_failure_reports_all_nodes(self, monkeypatch):
        dag = build_network(TINY)
        hw = xeon_gold_6240()
        service = CompileService(retries=0, fallback=False)

        from repro.runtime import pipeline as pipeline_module

        real = pipeline_module.compile_chain

        def exploding(chain, hardware, config=None, **kwargs):
            if "attention" in chain.name:
                raise RuntimeError("boom")
            return real(chain, hardware, config, **kwargs)

        monkeypatch.setattr(pipeline_module, "compile_chain", exploding)
        with pytest.raises(NetworkCompilationError, match="attention"):
            compile_network(dag, hw, service=service)
