"""Graph-level execution scheduling: order legality, peaks, residency.

Covers the scheduler's contract (ISSUE 9): fuzzed topological legality
and peak dominance over the naive order, determinism under a fixed seed,
rematerialize-vs-spill pricing under a binding budget, serialization
round trips of residency decisions, the ``schedule=False`` escape hatch,
the residency replay cross-check, and the explicit-stack DFS surviving a
5000-node linear chain (the recursive exemplar idiom would blow
``sys.getrecursionlimit()`` there).
"""

import hashlib
import random

import pytest

from repro.analysis.reporting import network_plan_table
from repro.core.movement import spill_round_trip_bytes
from repro.hardware import ascend_910, xeon_gold_6240
from repro.ir import builders
from repro.ir.dtypes import FP16
from repro.ir.graph import GraphBuilder, partition_graph
from repro.hardware import a100
from repro.runtime.network import compile_network
from repro.runtime.scheduler import (
    GraphSchedule,
    TensorResidency,
    _anneal,
    default_memory_budget,
    schedule_partition,
)
from repro.service import CompileService
from repro.runtime.serialization import (
    network_plan_from_dict,
    network_plan_json,
    network_plan_to_dict,
)
from repro.sim.residency import ScheduleReplayError, replay_schedule
from repro.workloads import (
    build_multibranch_network,
    build_network,
    network_config,
    pack_networks,
    network_time,
)
from tests.schedule_oracle import anneal_by_rebuild

HW = xeon_gold_6240()


def _random_dag(rng, name="fuzz"):
    """A random GEMM DAG: varied sizes, random deps to earlier nodes."""
    builder = GraphBuilder(name)
    count = rng.randint(3, 12)
    names = []
    for index in range(count):
        size = rng.choice((8, 16, 32))
        op, tensors = builders.gemm(
            f"n{index}", size, size, rng.choice((8, 16, 32)), dtype=FP16
        )
        pool = [n for n in names if rng.random() < 0.4]
        names.append(
            builder.add_op(
                op, tensors, deps=pool, repeat=rng.randint(1, 3)
            )
        )
    return builder.build()


def _assert_legal_order(schedule, partition):
    nodes = [node.name for node in partition.all_nodes()]
    assert sorted(schedule.order) == sorted(nodes)
    position = {name: i for i, name in enumerate(schedule.order)}
    for producer, users in partition.edges().items():
        for user in users:
            assert position[producer] < position[user], (
                f"{user} runs before its producer {producer}"
            )


def test_fuzzed_orders_legal_and_never_worse_than_naive():
    for seed in range(25):
        rng = random.Random(seed)
        dag = _random_dag(rng, name=f"fuzz{seed}")
        partition = partition_graph(dag)
        schedule = schedule_partition(
            partition, HW, seed=seed, anneal_iters=80,
            dag_order=[n.name for n in dag.nodes],
        )
        _assert_legal_order(schedule, partition)
        assert schedule.peak_bytes <= schedule.naive_peak_bytes
        assert len(schedule.live_bytes) == len(schedule.order)
        assert schedule.peak_bytes == max(schedule.live_bytes)


def test_same_seed_same_schedule():
    dag = build_multibranch_network(branches=4, seq=64, width=256,
                                    reduce_dim=32)
    partition = partition_graph(dag)
    first = schedule_partition(partition, HW, seed=11)
    second = schedule_partition(partition, HW, seed=11)
    assert first == second


def test_five_thousand_node_chain_no_recursion_error():
    # A linear chain 5x deeper than the default recursion limit: the
    # explicit-stack DFS and Kahn baseline must both survive it.
    builder = GraphBuilder("deep-chain")
    previous = []
    for index in range(5000):
        op, tensors = builders.gemm(f"n{index}", 4, 4, 4, dtype=FP16)
        previous = [builder.add_op(op, tensors, deps=previous)]
    partition = partition_graph(builder.build(), stitch=False)
    schedule = schedule_partition(partition, HW, anneal_iters=0)
    assert len(schedule.order) == 5000
    # A path graph has exactly one topological order.
    assert schedule.order == tuple(f"n{i}" for i in range(5000))
    assert schedule.peak_bytes == schedule.naive_peak_bytes


def test_default_budget_semantics():
    # xeon L3 is chip-shared: the budget is its capacity, once.
    assert default_memory_budget(HW) == HW.levels[-2].capacity
    # ascend L1 is per-core: sequential graph execution sees all cores.
    ascend = ascend_910()
    assert default_memory_budget(ascend) == (
        ascend.levels[-2].capacity * ascend.num_cores
    )


def test_budget_binding_prefers_cheaper_eviction():
    dag = build_multibranch_network(branches=4, seq=128, width=1024,
                                    reduce_dim=64)
    partition = partition_graph(dag)
    free = schedule_partition(partition, HW)
    budget = int(free.peak_bytes * 0.9)
    # Expensive recompute (100us per node): spilling wins.
    spilled = schedule_partition(
        partition, HW, memory_budget=budget,
        node_times={n.name: 1e-4 for n in partition.all_nodes()},
    )
    assert spilled.evictions
    assert all(r.decision == "spill" for r in spilled.evictions)
    for record in spilled.evictions:
        expected = HW.memory_time(
            spill_round_trip_bytes(record.nbytes, len(record.consumers)),
            "DRAM",
        )
        assert record.overhead_time == pytest.approx(expected)
    # Near-free recompute: rematerialization wins.
    remat = schedule_partition(
        partition, HW, memory_budget=budget,
        node_times={n.name: 1e-12 for n in partition.all_nodes()},
    )
    assert remat.evictions
    assert all(r.decision == "rematerialize" for r in remat.evictions)
    for record in remat.evictions:
        assert record.overhead_time == pytest.approx(
            1e-12 * len(record.consumers)
        )
    # Without node times, rematerialization is unpriceable: spill only.
    no_times = schedule_partition(partition, HW, memory_budget=budget)
    assert no_times.evictions
    assert all(r.decision == "spill" for r in no_times.evictions)
    assert spilled.peak_bytes <= budget


def test_eviction_lowers_peak_and_replay_confirms():
    dag = build_multibranch_network(branches=4, seq=128, width=1024,
                                    reduce_dim=64)
    partition = partition_graph(dag)
    free = schedule_partition(partition, HW)
    bound = schedule_partition(
        partition, HW, memory_budget=int(free.peak_bytes * 0.9)
    )
    assert bound.peak_bytes < free.peak_bytes
    trace = replay_schedule(bound)
    assert trace.peak_bytes == bound.peak_bytes
    assert trace.live_bytes == bound.live_bytes
    assert trace.spill_bytes == sum(
        spill_round_trip_bytes(r.nbytes, len(r.consumers))
        for r in bound.evictions
        if r.decision == "spill"
    )


def test_replay_rejects_corrupt_schedule():
    dag = build_multibranch_network(branches=2, seq=64, width=256,
                                    reduce_dim=32)
    partition = partition_graph(dag)
    schedule = schedule_partition(partition, HW)
    backwards = GraphSchedule(
        graph=schedule.graph,
        order=tuple(reversed(schedule.order)),
        live_bytes=schedule.live_bytes,
        peak_bytes=schedule.peak_bytes,
        naive_peak_bytes=schedule.naive_peak_bytes,
        memory_budget=schedule.memory_budget,
        seed=schedule.seed,
        residency=schedule.residency,
    )
    with pytest.raises(ScheduleReplayError):
        replay_schedule(backwards)


def test_residency_decision_validated():
    with pytest.raises(ValueError, match="unknown residency decision"):
        TensorResidency(
            producer="a", tensor="a.C", nbytes=4, consumers=("b",),
            decision="teleport",
        )


def test_compiled_plan_carries_schedule_and_round_trips():
    dag = build_multibranch_network(branches=3, seq=64, width=256,
                                    reduce_dim=32)
    plan = compile_network(dag, HW, memory_budget=96 * 1024)
    assert plan.schedule is not None
    assert plan.execution_order == plan.schedule.order
    assert tuple(n.name for n in plan.nodes) == plan.schedule.order
    assert plan.peak_memory_bytes == plan.schedule.peak_bytes
    assert plan.memory_budget == 96 * 1024
    rebuilt = network_plan_from_dict(network_plan_to_dict(plan))
    assert rebuilt.schedule == plan.schedule
    assert network_plan_json(rebuilt) == network_plan_json(plan)


def test_spill_overhead_charges_both_sides():
    dag = build_multibranch_network(branches=4, seq=128, width=1024,
                                    reduce_dim=64)
    free = compile_network(dag, HW)
    bound = compile_network(
        dag, HW, memory_budget=int(free.peak_memory_bytes * 0.9)
    )
    assert bound.spill_total_time > 0
    assert bound.total_time > free.total_time
    # The fused-vs-unfused invariant must survive residency charges.
    assert bound.total_time <= bound.unfused_total_time
    charged = {
        r.producer: r.overhead_time for r in bound.schedule.evictions
    }
    for node in bound.nodes:
        assert node.spill_time == charged.get(node.name, 0.0)
        assert node.total_time == (
            node.time * node.repeat + node.spill_time
        )


def test_explicit_seed_and_schedule_off():
    dag = build_multibranch_network(branches=3, seq=64, width=256,
                                    reduce_dim=32)
    partition = partition_graph(dag)
    first = schedule_partition(partition, HW, seed=7)
    second = schedule_partition(partition, HW, seed=7)
    assert first.seed == 7
    assert first == second

    off = compile_network(dag, HW, schedule=False)
    off_again = compile_network(dag, HW, schedule=False)
    assert off.schedule is None
    assert off.peak_memory_bytes is None
    assert network_plan_json(off) == network_plan_json(off_again)
    # Unscheduled plans keep the partition's own node order.
    assert tuple(n.name for n in off.nodes) == tuple(
        n.name for n in partition.all_nodes()
    )
    assert all(n.spill_time == 0.0 for n in off.nodes)


def test_simulated_timing_replays_schedule():
    dag = build_multibranch_network(branches=2, seq=32, width=64,
                                    reduce_dim=16)
    plan = compile_network(dag, HW, timing="simulated")
    assert plan.schedule is not None
    trace = replay_schedule(plan.schedule)
    assert trace.peak_bytes == plan.schedule.peak_bytes


def test_network_time_charges_residency_overhead():
    dag = build_multibranch_network(branches=4, seq=128, width=1024,
                                    reduce_dim=64)
    partition = partition_graph(dag)
    free = schedule_partition(partition, HW)
    bound = schedule_partition(
        partition, HW, memory_budget=int(free.peak_bytes * 0.9)
    )
    assert bound.evictions
    base = network_time(dag, HW, base_system="relay", chain_system="chimera",
                        partition=partition)
    timed = network_time(dag, HW, base_system="relay", chain_system="chimera",
                         partition=partition, schedule=bound)
    assert timed.total == pytest.approx(
        base.total + bound.overhead_time
    )
    bad = GraphSchedule(
        graph=bound.graph, order=bound.order, live_bytes=bound.live_bytes,
        peak_bytes=bound.peak_bytes,
        naive_peak_bytes=bound.naive_peak_bytes,
        memory_budget=bound.memory_budget, seed=bound.seed,
        residency=(TensorResidency(
            producer="ghost", tensor="ghost.C", nbytes=8,
            consumers=("head",), decision="spill", overhead_time=1e-6,
        ),),
    )
    with pytest.raises(ValueError, match="ghost"):
        network_time(dag, HW, base_system="relay", chain_system="chimera",
                     partition=partition, schedule=bad)


def test_report_table_has_residency_columns():
    dag = build_multibranch_network(branches=3, seq=64, width=256,
                                    reduce_dim=32)
    plan = compile_network(dag, HW)
    table = network_plan_table(plan)
    for column in ("pos", "live", "residency"):
        assert column in table.splitlines()[0]
    assert "keep" in table
    off = compile_network(dag, HW, schedule=False)
    off_table = network_plan_table(off)
    assert "keep" not in off_table

    described = plan.describe()
    assert "peak" in described and "budget" in described


def test_packed_networks_schedule_beats_interleaved_naive():
    bert = build_network(network_config("Bert-Small"))
    packed = pack_networks([bert] * 2, name="Bert-Small-x2")
    # Tenant prefixes keep node names unique; deps stay tenant-local.
    assert packed.nodes[0].name.startswith("t0.")
    assert all(
        dep.split(".")[0] == node.name.split(".")[0]
        for node in packed.nodes for dep in node.deps
    )
    partition = partition_graph(packed)
    schedule = schedule_partition(
        partition, HW, dag_order=[n.name for n in packed.nodes]
    )
    assert schedule.peak_bytes < schedule.naive_peak_bytes
    assert schedule.peak_reduction >= 1.3
    _assert_legal_order(schedule, partition)


def test_invalid_inputs():
    dag = build_multibranch_network(branches=2, seq=32, width=64,
                                    reduce_dim=16)
    partition = partition_graph(dag)
    with pytest.raises(ValueError, match="memory_budget"):
        schedule_partition(partition, HW, memory_budget=0)
    with pytest.raises(ValueError, match="pack_networks"):
        pack_networks([])
    with pytest.raises(ValueError, match="branches"):
        build_multibranch_network(branches=0)
    with pytest.raises(KeyError):
        schedule_partition(partition, HW).position("nope")


# ----------------------------------------------------------------------
# incremental anneal against the full-rebuild oracle
# ----------------------------------------------------------------------
def _anneal_inputs(rng, count, with_transients):
    """A random DAG in a random topological order, as ``_anneal`` takes it.

    Footprints include zero-byte producers, and some producers have no
    consumers; transients, when drawn, include zero and a name outside
    the order (both of which the profile ignores).
    """
    names = [f"v{index}" for index in range(count)]
    consumers = {}
    for index, name in enumerate(names):
        later = names[index + 1:]
        fanout = rng.choice((0, 1, 1, 2, 3))
        users = rng.sample(later, min(fanout, len(later)))
        if users:
            consumers[name] = tuple(users)
    footprints = {
        name: rng.choice((0, 0, 64, 512, 4096, rng.randint(1, 1 << 20)))
        for name in names
    }
    indegree = {name: 0 for name in names}
    for users in consumers.values():
        for user in users:
            indegree[user] += 1
    ready = [name for name in names if indegree[name] == 0]
    order = []
    while ready:
        name = ready.pop(rng.randrange(len(ready)))
        order.append(name)
        for user in consumers.get(name, ()):
            indegree[user] -= 1
            if indegree[user] == 0:
                ready.append(user)
    transients = {}
    if with_transients:
        transients = {
            name: rng.choice((0, 128, 8192, 1 << 16))
            for name in rng.sample(names, count // 2 + 1)
        }
        transients["not-in-order"] = 1 << 30
    edges = {
        (producer, user)
        for producer, users in consumers.items()
        for user in users
    }
    return order, edges, footprints, consumers, transients


def _assert_anneal_matches_oracle(order, edges, footprints, consumers,
                                  transients, seed, iterations):
    fast_rng = random.Random(seed)
    oracle_rng = random.Random(seed)
    fast = _anneal(order, edges, footprints, consumers, fast_rng,
                   iterations, transients)
    oracle = anneal_by_rebuild(order, edges, footprints, consumers,
                               oracle_rng, iterations, transients)
    assert fast == oracle
    # The same number of draws: the walk took the same path.
    assert fast_rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("with_transients", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_incremental_anneal_matches_full_rebuild(seed, with_transients):
    rng = random.Random(f"anneal:{seed}:{with_transients}")
    for count in (2, 3, 5, 9, 17, 33, 60):
        inputs = _anneal_inputs(rng, count, with_transients)
        for iterations in (0, 1, 40, 300):
            _assert_anneal_matches_oracle(
                *inputs, seed=seed * 1000 + count, iterations=iterations
            )


@pytest.mark.parametrize("interleaved", [False, True])
def test_incremental_anneal_matches_full_rebuild_on_5000_nodes(interleaved):
    # A path (no legal swap), and two interleaved 2,500-node chains, where
    # every adjacent swap of the start order is legal.
    rng = random.Random(5000)
    names = [f"n{index}" for index in range(5000)]
    stride = 2 if interleaved else 1
    consumers = {
        name: (names[index + stride],)
        for index, name in enumerate(names[:-stride])
    }
    edges = {(producer, users[0]) for producer, users in consumers.items()}
    footprints = {name: rng.randint(0, 1 << 20) for name in names}
    transients = {name: rng.randint(1, 1 << 12) for name in names[::7]}
    _assert_anneal_matches_oracle(
        names, edges, footprints, consumers, transients, seed=7,
        iterations=200,
    )


#: sha256 over the four ``network_plan_json`` digests (default budget,
#: then 1, 16 and 256 MiB) of each network on each preset, as compiled
#: through one ``CompileService``.  Recorded before the anneal kept its
#: live profile between moves; the schedule must not change.
NETWORK_PLAN_DIGESTS = {
    ("Bert-Small", "xeon-gold-6240"):
        "d99bbd870976cb840f74aa18eb1658b79cfe35dfdd370b99362d09d44e2839ca",
    ("Bert-Small", "a100"):
        "ee2e97b34d86712a7d070b7a4a6378bdb509b2688284843c03fddccfd7886523",
    ("Bert-Base", "xeon-gold-6240"):
        "d2ce804532db3ae1c61f3f7e813b6a06df0e2e1f00595bb38ca4b62dc9ed5c4d",
    ("Bert-Base", "a100"):
        "40ce87434478a295f6b83060d0d2a26fab79f95427f48e4aa4f62530b4685612",
    ("ViT-Base/14", "xeon-gold-6240"):
        "81710a9459a3f934eea421b0678c1c281852933aa1c9071af896bfaed7c33a5f",
    ("ViT-Base/14", "a100"):
        "14bd6bc3f94064800124187037f4df9a8ac99a5e0f7bd117ba856ed7c08ca0cf",
    ("Bert-Base+Bert-Base+Bert-Base", "xeon-gold-6240"):
        "269fe01c34c46b042b68b17623230e23ce45bcc05770a2cfbb295c3e77843bc2",
    ("Bert-Base+Bert-Base+Bert-Base", "a100"):
        "ebb6e9219c0390fa0cb4831ed97e25a8bf8a66db24623cf677769731f05bc3c2",
    ("MultiBranch-2x", "xeon-gold-6240"):
        "b4cfed6d3ba28d66b9f133e8c24d3a184c2fee29f0a2ab62d3f779edb959455b",
    ("MultiBranch-2x", "a100"):
        "6d92edf379bd0a52bc90b5fe8785c254fc4d2beb898e680097ad433b3ac73527",
    ("MultiBranch-4x", "xeon-gold-6240"):
        "468d6a655f0182961ca9104481b192b23597121cbd31d549b93f30123ab5bfd0",
    ("MultiBranch-4x", "a100"):
        "4506fe826196d09d6a7fb831dfd786d00bab7e4cd3ece79a0a7ba64e1f9167f3",
    ("MultiBranch-8x", "xeon-gold-6240"):
        "d9eb344ee021888eb08e4d3eeaa5180e226a94b96a4707522a894bf37769938a",
    ("MultiBranch-8x", "a100"):
        "f7eb292d34fcebb7e1c3425d1241e6bf4bc2087d126c21ff8f1e205710e6ae99",
    ("MultiBranch-16x", "xeon-gold-6240"):
        "80b1927f2646065b5163efce353377d388a5781508783965afd1f362850c296f",
    ("MultiBranch-16x", "a100"):
        "951689055fccae9f95f2d00930a1060e5f4d68a8ebe9b8144e22444df9252f89",
}


def _pinned_dags():
    dags = [
        build_network(network_config(name))
        for name in ("Bert-Small", "Bert-Base", "ViT-Base/14")
    ]
    bert = build_network(network_config("Bert-Base"))
    dags.append(pack_networks([bert, bert, bert]))
    dags.extend(
        build_multibranch_network(branches=branches)
        for branches in (2, 4, 8, 16)
    )
    return dags


def test_network_plan_digests_pinned():
    mib = 1 << 20
    service = CompileService()
    digests = {}
    for dag in _pinned_dags():
        for hardware in (HW, a100()):
            combined = hashlib.sha256()
            for budget in (None, mib, 16 * mib, 256 * mib):
                plan = compile_network(
                    dag, hardware, service=service, memory_budget=budget
                )
                text = network_plan_json(plan)
                combined.update(
                    hashlib.sha256(text.encode()).hexdigest().encode()
                )
            digests[(dag.name, hardware.name)] = combined.hexdigest()
    assert digests == NETWORK_PLAN_DIGESTS
