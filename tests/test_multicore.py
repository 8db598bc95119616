"""Tests for block-to-core partitioning (``repro.core.multicore``).

The contract under test, in the order the module builds it up:

* candidate enumeration (``partition_factors``, forced widths included)
  is inert without an inter-core link;
* ``partition_loops`` admits only spatial, write-covering loops;
* ``shard_chain`` rewrites extents/flops/shapes proportionally and
  leaves replicated tensors untouched;
* the communication model is exact integer arithmetic, pinned against
  hand-derived replicated and halo byte counts;
* the placement lower bound is admissible (never above the solved
  plan's predicted time);
* ``decide_fusion`` picks a partitioned plan only on link-bearing
  hardware and only when strictly faster — linkless plans stay
  byte-identical, ``cores=`` given or not;
* partitions, links and schedule transients survive serialization
  (format v5) and the scheduler charges staging bytes correctly.
"""

import dataclasses
import json

import pytest

from repro.core.fusion import decide_fusion
from repro.core.multicore import (
    best_partitioned_plan,
    comm_steps,
    comm_volume_bytes,
    partition_factors,
    partition_loops,
    partition_lower_bound,
    shard_chain,
    shard_extent,
)
from repro.core.optimizer import ChimeraOptimizer
from repro.core.plan import CorePartition
from repro.hardware import (
    InterCoreLink,
    a100,
    a100_nvlinked_sms,
    all_presets,
    ascend_910_cluster,
    mesh_npu_16,
    xeon_gold_6240,
)
from repro.ir.chains import (
    attention_chain,
    batch_gemm_chain,
    conv_chain,
    mlp_chain,
)
from repro.runtime.serialization import (
    hardware_from_dict,
    hardware_to_dict,
    plan_from_dict,
    plan_to_dict,
)


def small_attention():
    return batch_gemm_chain(8, 256, 64, 64, 256, with_softmax=True)


class TestPartitionFactors:
    def test_no_link_is_single_core(self):
        assert partition_factors(xeon_gold_6240()) == (1,)
        assert partition_factors(a100()) == (1,)

    def test_no_link_ignores_forced_cores(self):
        assert partition_factors(a100(), cores=8) == (1,)

    def test_powers_of_two_up_to_chip(self):
        assert partition_factors(mesh_npu_16()) == (1, 2, 4, 8, 16)
        # 108 SMs: powers of two plus the full chip.
        factors = partition_factors(a100_nvlinked_sms())
        assert factors[-1] == 108
        assert factors[:-1] == (1, 2, 4, 8, 16, 32, 64)

    def test_forced_cores_with_link(self):
        assert partition_factors(mesh_npu_16(), cores=4) == (4,)
        # clamped to the chip
        assert partition_factors(mesh_npu_16(), cores=64) == (16,)

    def test_forced_cores_validation(self):
        for hw in (a100(), mesh_npu_16()):
            with pytest.raises(ValueError, match=">= 1"):
                partition_factors(hw, cores=0)
        with pytest.raises(ValueError, match=">= 1"):
            decide_fusion(small_attention(), mesh_npu_16(), cores=0)

    def test_forced_cores_decision(self):
        chain = small_attention()
        hw = mesh_npu_16()
        forced = decide_fusion(chain, hw, cores=8).fused_plan.partition
        assert forced is not None and forced.cores == 8
        # A forced width that loses to the aggregate plan is not taken.
        assert decide_fusion(chain, hw, cores=2).fused_plan.partition is None


class TestPartitionLoops:
    def test_attention_batch_is_partitionable(self):
        loops = partition_loops(small_attention())
        assert "b" in loops
        # Reductions (k, l) can never shard without a cross-core reduce.
        assert "k" not in loops and "l" not in loops

    def test_write_coverage_required(self):
        # In an MLP chain, ``m`` indexes every write; ``n`` misses the
        # first GEMM's output H[m, h] but that op doesn't own ``n``, so
        # both qualify.  The reduction ``h``/``k`` never do.
        loops = partition_loops(mlp_chain(256, 128, 512, 128))
        assert "m" in loops
        assert "h" not in loops and "k" not in loops

    def test_unit_extents_excluded(self):
        chain = batch_gemm_chain(1, 128, 64, 64, 128)
        assert "b" not in partition_loops(chain)


class TestShardChain:
    def test_shard_extent_is_ceil_div(self):
        assert shard_extent(16, 4) == 4
        assert shard_extent(17, 4) == 5
        assert shard_extent(3, 8) == 1

    def test_shard_rewrites_extents_and_flops(self):
        chain = small_attention()
        shard = shard_chain(chain, "b", 4)
        assert shard.name == f"{chain.name}@p4"
        assert shard.loop_extents()["b"] == 2
        assert shard.total_flops() * 4 == chain.total_flops()
        # Tensors indexed by b shrink proportionally; dims not touched
        # by b are unchanged.
        assert shard.tensors["A"].shape[0] == 2
        assert shard.tensors["A"].shape[1:] == chain.tensors["A"].shape[1:]

    def test_replicated_tensors_untouched(self):
        chain = mlp_chain(256, 128, 512, 128)
        shard = shard_chain(chain, "m", 4)
        assert shard.tensors["W1"].shape == chain.tensors["W1"].shape
        assert shard.tensors["W2"].shape == chain.tensors["W2"].shape
        assert shard.tensors["X"].shape[0] == 64

    def test_degenerate_split_returns_chain_unchanged(self):
        chain = small_attention()
        assert shard_chain(chain, "b", 1) is chain

    def test_validation(self):
        chain = small_attention()
        with pytest.raises(ValueError, match="cores"):
            shard_chain(chain, "b", 0)
        with pytest.raises(KeyError, match="no loop"):
            shard_chain(chain, "zz", 2)


class TestCommVolume:
    def workloads(self):
        return [
            (small_attention(), "b"),
            (mlp_chain(256, 128, 512, 128), "m"),
            (batch_gemm_chain(4, 96, 48, 48, 96, with_softmax=True), "b"),
            (conv_chain(1, 16, 28, 28, 24, 16, 1, 1, 3, 1), "x"),
        ]

    def test_single_core_is_free(self):
        for chain, loop in self.workloads():
            if loop not in chain.loop_extents():
                continue
            assert comm_volume_bytes(chain, loop, (1,))[0] == 0

    def test_conv_halo_bytes_pinned(self):
        # 1x1 then 3x3 conv on 16x16, 8 channels, FP16, sharded along oh.
        # Each extra core receives both weights (128 + 1152 = 1280 B), and
        # each shard reads 16/p + 2 rows x 18 columns x 8 channels of the
        # intermediate where the whole chain reads 18 rows.
        chain = conv_chain(1, 8, 16, 16, 8, 8, 1, 1, 1, 3)
        volumes = comm_volume_bytes(chain, "oh", (1, 2, 4))
        assert volumes == tuple(
            (p - 1) * 1280 + (p * (16 // p + 2) - 18) * 8 * 18 * 2
            for p in (1, 2, 4)
        )
        assert volumes == (0, 1856, 5568)

    def test_replicated_weights_broadcast(self):
        # MLP sharded along m replicates W1 and W2: (p-1) * their bytes.
        chain = mlp_chain(256, 128, 512, 128)
        weights = (
            chain.tensors["W1"].nbytes + chain.tensors["W2"].nbytes
        )
        one, two, four = comm_volume_bytes(chain, "m", (1, 2, 4))
        assert one == 0
        assert two == weights
        assert four == 3 * weights

    def test_fully_sharded_chain_is_free(self):
        # Every tensor of a batch GEMM chain carries b: no replication,
        # no gather, no halo — partitioning along b moves zero bytes.
        chain = small_attention()
        assert set(comm_volume_bytes(chain, "b", (2, 4, 8))) == {0}

    def test_comm_steps_topologies(self):
        chain = mlp_chain(256, 128, 512, 128)
        volume = comm_volume_bytes(chain, "m", (4,))[0]
        assert volume > 0
        ring = ascend_910_cluster()
        mesh = mesh_npu_16()
        direct = a100_nvlinked_sms()
        # One broadcast phase times the topology's collective steps.
        assert comm_steps(chain, "m", ring, 4, volume) == 3
        assert comm_steps(chain, "m", mesh, 4, volume) == 2
        assert comm_steps(chain, "m", direct, 4, volume) == 1
        assert comm_steps(chain, "m", mesh, 1, 0) == 0

    def test_halo_overlap_on_sliding_windows(self):
        # A 3x3 second conv re-reads a one-pixel halo of the sharded
        # intermediate from the neighboring core.
        chain = conv_chain(1, 16, 28, 28, 24, 16, 1, 1, 3, 1)
        loops = partition_loops(chain)
        spatial = [l for l in loops if l in ("oh", "ow")]
        assert spatial, f"no spatial loop in {loops}"
        volumes = comm_volume_bytes(chain, spatial[0], (2, 4))
        assert volumes[0] > 0
        assert volumes[1] > volumes[0]


class TestPlacementSearch:
    def test_lower_bound_is_admissible(self):
        hw = mesh_npu_16()
        chain = small_attention()
        optimizer = ChimeraOptimizer(hw)
        link = hw.link
        for p in (2, 4, 8):
            volume = comm_volume_bytes(chain, "b", (p,))[0]
            steps = comm_steps(chain, "b", hw, p, volume)
            comm_time = volume / link.bandwidth + steps * link.step_time()
            shard = shard_chain(chain, "b", p)
            bound = partition_lower_bound(shard, hw, p, comm_time)
            plan = optimizer.optimize(shard, partitions=p)
            extents = chain.loop_extents()
            plan = dataclasses.replace(
                plan,
                partition=CorePartition(
                    cores=p,
                    loop="b",
                    full_extent=extents["b"],
                    shard_extent=shard_extent(extents["b"], p),
                    comm_bytes=int(volume),
                    comm_steps=steps,
                ),
            )
            assert bound <= plan.predicted_time + 1e-12

    def test_no_link_returns_none(self):
        assert best_partitioned_plan(small_attention(), a100()) is None

    def test_beaten_incumbent_returns_none(self):
        # An already-instant incumbent can't be beaten by any placement.
        plan = best_partitioned_plan(
            small_attention(), mesh_npu_16(), incumbent_time=0.0
        )
        assert plan is None

    def test_decide_fusion_partitions_attention_on_mesh(self):
        hw = mesh_npu_16()
        chain = small_attention()
        decision = decide_fusion(chain, hw)
        part = decision.fused_plan.partition
        assert decision.use_fusion
        assert part is not None
        assert part.cores > 1
        assert part.loop == "b"
        assert part.full_extent == 8
        assert part.shard_extent == shard_extent(8, part.cores)
        assert any("partitioned over" in n for n in decision.fused_plan.notes)
        # The partitioned fused plan beats the aggregate fused plan.
        aggregate = ChimeraOptimizer(hw).optimize(chain)
        assert decision.fused_time < aggregate.predicted_time

    def test_partitioned_plan_prices_comm_time(self):
        hw = ascend_910_cluster()
        chain = mlp_chain(256, 128, 512, 128)
        plan = best_partitioned_plan(chain, hw)
        if plan is None:
            pytest.skip("no placement beats the aggregate on this shape")
        assert plan.comm_time > 0
        assert plan.partition.comm_bytes > 0

    def test_unpartitioned_plan_has_zero_comm_time(self):
        plan = ChimeraOptimizer(xeon_gold_6240()).optimize(
            mlp_chain(256, 128, 512, 128)
        )
        assert plan.partition is None
        assert plan.comm_time == 0.0


class TestByteIdentity:
    """No link (or no win) ⇒ plans identical to the pre-multicore model."""

    def canonical(self, decision):
        return json.dumps(
            {
                "use_fusion": decision.use_fusion,
                "fused": plan_to_dict(decision.fused_plan),
                "unfused": [
                    plan_to_dict(p) for p in decision.unfused_plans
                ],
            },
            sort_keys=True,
        )

    @pytest.mark.parametrize(
        "hw",
        [hw for hw in all_presets() if hw.link is None],
        ids=lambda h: h.name,
    )
    def test_forced_cores_inert_without_link(self, hw):
        chain = small_attention()
        baseline = self.canonical(decide_fusion(chain, hw))
        forced = self.canonical(decide_fusion(chain, hw, cores=8))
        assert forced == baseline

    def test_linked_preset_without_win_keeps_aggregate_plan(self):
        # When no placement beats the aggregate, decide_fusion on the
        # linked preset returns the plain optimizer plan untouched.
        chain = batch_gemm_chain(1, 64, 32, 32, 64)
        hw = a100_nvlinked_sms()
        base = ChimeraOptimizer(hw).optimize(chain)
        linked = decide_fusion(chain, hw).fused_plan
        if linked.partition is not None:
            pytest.skip("placement won; identity doesn't apply")
        assert json.dumps(plan_to_dict(linked), sort_keys=True) == (
            json.dumps(plan_to_dict(base), sort_keys=True)
        )


class TestSerializationV5:
    def test_hardware_link_round_trip(self):
        for hw in (mesh_npu_16(), a100_nvlinked_sms(), xeon_gold_6240()):
            restored = hardware_from_dict(hardware_to_dict(hw))
            assert restored == hw
        assert hardware_from_dict(hardware_to_dict(a100())).link is None

    def test_partitioned_plan_round_trip(self):
        hw = mesh_npu_16()
        decision = decide_fusion(small_attention(), hw)
        plan = decision.fused_plan
        assert plan.partition is not None
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.partition == plan.partition
        assert plan_to_dict(restored) == plan_to_dict(plan)

    def test_core_partition_validation(self):
        with pytest.raises(ValueError):
            CorePartition(
                cores=0, loop="b", full_extent=8, shard_extent=8,
                comm_bytes=0, comm_steps=0,
            )
        with pytest.raises(ValueError):
            CorePartition(
                cores=4, loop="b", full_extent=8, shard_extent=2,
                comm_bytes=-1, comm_steps=0,
            )


class TestSchedulerTransients:
    def _packed_partition(self):
        from repro.ir.graph import partition_graph
        from repro.workloads import build_multibranch_network, pack_networks

        wide = build_multibranch_network(
            branches=2, seq=32, width=64, reduce_dim=16
        )
        packed = pack_networks([wide] * 2, name="wide-x2")
        return packed, partition_graph(packed)

    def test_transients_raise_live_profile(self):
        from repro.runtime.scheduler import schedule_partition
        from repro.sim.residency import replay_schedule

        packed, partition = self._packed_partition()
        hw = mesh_npu_16()
        dag_order = [n.name for n in packed.nodes]
        plain = schedule_partition(partition, hw, dag_order=dag_order)
        # Two tenants' copies of the same node both stage comm buffers —
        # the residency accounting must charge each at its own step.
        staging = {"t0.stem": 1 << 20, "t1.stem": 1 << 20}
        staged = schedule_partition(
            partition, hw, dag_order=dag_order, node_transients=staging
        )
        assert staged.transients == (
            ("t0.stem", 1 << 20), ("t1.stem", 1 << 20),
        )
        for name, nbytes in staging.items():
            step = staged.position(name)
            assert staged.live_bytes[step] >= nbytes
        assert staged.peak_bytes >= plain.peak_bytes
        # The replay measures exactly the predicted profile, staging in.
        trace = replay_schedule(staged)
        assert trace.live_bytes == staged.live_bytes
        assert trace.peak_bytes == staged.peak_bytes

    def test_zero_and_unknown_transients_filtered(self):
        from repro.runtime.scheduler import schedule_partition

        packed, partition = self._packed_partition()
        hw = xeon_gold_6240()
        schedule = schedule_partition(
            partition,
            hw,
            dag_order=[n.name for n in packed.nodes],
            node_transients={"t0.stem": 0, "no-such-node": 512},
        )
        assert schedule.transients == ()

    def test_replay_rejects_transient_for_missing_node(self):
        from repro.runtime.scheduler import schedule_partition
        from repro.sim.residency import ScheduleReplayError, replay_schedule

        packed, partition = self._packed_partition()
        schedule = schedule_partition(
            partition,
            xeon_gold_6240(),
            dag_order=[n.name for n in packed.nodes],
        )
        corrupt = dataclasses.replace(
            schedule, transients=(("ghost", 1024),)
        )
        with pytest.raises(ScheduleReplayError, match="ghost"):
            replay_schedule(corrupt)


class TestReporting:
    def test_network_plan_table_has_cores_column(self):
        from repro.analysis.reporting import network_plan_table
        from repro.runtime.network import compile_network
        from repro.workloads import build_multibranch_network

        dag = build_multibranch_network(
            branches=2, seq=32, width=64, reduce_dim=16
        )
        plan = compile_network(dag, xeon_gold_6240())
        table = network_plan_table(plan)
        assert "cores" in table.splitlines()[0]
        assert all(node.cores == 1 for node in plan.nodes)
