"""The benchmark's four workloads.

Every workload builds its inputs from the seed alone, and calls ``repro``
through module attributes so the wrappers of :mod:`layers` see the calls.

A workload has ``setup()`` (input generation, service/server start and
fill, one warm-up op), ``run(seconds, min_ops)`` returning the timed
:class:`Op` records, ``after(ops)`` for checks made once the timed phase
is over, and ``teardown()``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.codegen.executor as executor
import repro.codegen.program as cg_program
import repro.codegen.schedule as cg_schedule
import repro.core.search as search
import repro.core.tables as tables
import repro.ir.chains as ir_chains
import repro.runtime.network as rt_network
import repro.runtime.pipeline as pipeline
import repro.runtime.serialization as serialization
import repro.service.keys as keys
import repro.sim.linecache as linecache
import repro.sim.residency as residency
from repro.hardware import preset
from repro.service import CompileService, decode_plan_entry
from repro.serving import AsyncServingClient, BackgroundServer, ServerConfig
from repro.workloads import (
    TABLE_IV,
    TABLE_V,
    build_multibranch_network,
    build_network,
    network_config,
    pack_networks,
)

#: Load width: one generating process, at most this many threads and
#: in-flight requests, and no pool wider than it.
NPROC = len(os.sched_getaffinity(0))
WIDTH = max(1, min(2, NPROC))

#: Ops every timed phase runs at least, so the 90th percentile has ten ops
#: beyond it; counts and ``plan_model_us`` cover exactly these first ops.
MIN_OPS = 100

CHAIN_PRESETS = ("xeon-gold-6240", "a100", "ascend-910", "mesh-npu-16")
SERVE_PRESETS = ("a100", "xeon-gold-6240")
NETWORKS = ("Bert-Small", "Bert-Base", "ViT-Base/14")


@dataclasses.dataclass
class Op:
    """One timed operation and what its checks found."""

    index: int
    start: float = 0.0
    end: float = 0.0
    error: Optional[str] = None
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    plan_times: List[float] = dataclasses.field(default_factory=list)
    reply: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def clear_process_memos() -> None:
    """Empty every process-global memo so the next compile is cold."""
    search.solve_memo().clear()
    tables.clear_tables_memo()
    cg_schedule.clear_schedule_memo()


def process_counters(tracer) -> Dict[str, float]:
    """Process-global counters whose per-op deltas are exact counts."""
    snap = search.search_stats_snapshot()
    counts = tracer.snapshot()
    return {
        "core.search.candidates": snap["candidates"],
        "core.search.pruned": snap["pruned"],
        "core.search.solves": snap["solves"],
        "core.search.memo_hits": snap["memo_hits"],
        "core.reordering.orders": snap["orders_enumerated"],
        "core.tables.compiled": snap["tables_memo"]["misses"],
        "codegen.schedule.builds": cg_schedule.schedule_memo_stats()["misses"],
        "core.solver.slsqp_calls": counts["slsqp_calls"],
        "core.solver.slsqp_nfev": counts["slsqp_nfev"],
        "microkernel.lowerings": counts["lowerings"],
    }


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before[name] for name in after}


def _partitioned(plans) -> int:
    return int(any(
        plan.partition is not None and plan.partition.cores > 1
        for plan in plans
    ))


def _check_capacity(plans) -> Optional[str]:
    for plan in plans:
        for level in plan.levels:
            if level.predicted_mu > level.capacity * (1 + 1e-9):
                return (f"{plan.chain.name}: level {level.level} MU "
                        f"{level.predicted_mu} exceeds capacity "
                        f"{level.capacity}")
    return None


class Workload:
    """Shared sequential timed loop; subclasses define one op."""

    name = ""
    #: Count keys read as whole-phase deltas instead of per-op deltas
    #: (ops overlap, so process-global counters cannot be split per op).
    phase_counts: Tuple[str, ...] = ()

    def __init__(self, seed: int, tracer, scratch: str) -> None:
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def size(self) -> int:
        raise NotImplementedError

    def prepare(self, index: int) -> Any:
        """Untimed per-op input preparation."""
        return index

    def op(self, index: int, args: Any) -> Any:
        raise NotImplementedError

    def check(self, op: Op, output: Any) -> None:
        raise NotImplementedError

    def after(self, ops: List[Op]) -> None:
        pass

    def run(self, seconds: float, min_ops: int) -> List[Op]:
        ops: List[Op] = []
        began = time.perf_counter()
        index = 0
        while index < self.size() and (
            index < min_ops or time.perf_counter() - began < seconds
        ):
            args = self.prepare(index)
            self.tracer.op = index
            before = process_counters(self.tracer)
            record = Op(index)
            output = None
            record.start = time.perf_counter()
            try:
                output = self.op(index, args)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                record.error = f"{type(exc).__name__}: {exc}"
            record.end = time.perf_counter()
            if record.error is None:
                try:
                    self.check(record, output)
                except Exception as exc:  # noqa: BLE001
                    record.error = f"check {type(exc).__name__}: {exc}"
            record.counts.update(delta(process_counters(self.tracer), before))
            ops.append(record)
            index += 1
        self.tracer.op = None
        return ops


# ----------------------------------------------------------------------
# chain_cold
# ----------------------------------------------------------------------
class ChainCold(Workload):
    """Cold ``compile_chain`` over Table IV x Table V x four presets.

    Sweep one compiles every (chain, preset) pair once in its plain form;
    sweep two compiles the softmax GEMM variants, then the ReLU conv
    variants.  Every run's first 100 ops are therefore sweep one plus five
    softmax GEMM pairs per preset, whatever the seed, so runs are
    comparable while the seed still changes the order and the op set.
    """

    name = "chain_cold"

    def setup(self) -> None:
        self.hardware = {name: preset(name) for name in CHAIN_PRESETS}
        rng = random.Random(f"{self.name}:{self.seed}")

        def sweep(chains):
            """Every (chain, preset) pair, in rounds that visit each preset
            once, so any prefix holds the presets in equal shares."""
            per_preset = []
            for hw in CHAIN_PRESETS:
                order = list(chains)
                rng.shuffle(order)
                per_preset.append([(chain, hw) for chain in order])
            pairs = []
            for round_ in zip(*per_preset):
                round_ = list(round_)
                rng.shuffle(round_)
                pairs.extend(round_)
            return pairs

        self.sequence = (
            sweep([row.build() for row in TABLE_IV + TABLE_V])
            + sweep([row.build(with_softmax=True) for row in TABLE_IV])
            + sweep([row.build(with_relu=True) for row in TABLE_V])
        )
        warm = ir_chains.batch_gemm_chain(2, 96, 32, 32, 96, name="warmup")
        pipeline.compile_chain(warm, self.hardware["xeon-gold-6240"])

    def size(self) -> int:
        return len(self.sequence)

    def prepare(self, index: int) -> Any:
        chain, hw = self.sequence[index]
        return chain, self.hardware[hw]

    def op(self, index: int, args: Any) -> Any:
        return pipeline.compile_chain(*args)

    def check(self, op: Op, result) -> None:
        chosen = result.decision.chosen
        if not result.kernels or len(result.kernels) != len(chosen):
            op.error = f"{len(result.kernels)} kernels for {len(chosen)} plans"
            return
        for kernel, plan in zip(result.kernels, chosen):
            # A program's levels run outermost first, a plan's innermost first.
            program = kernel.program
            lowered = [(lv.order, dict(lv.tiles)) for lv in program.levels]
            planned = [(lv.order, dict(lv.tiles)) for lv in plan.levels[::-1]]
            if program.chain is not plan.chain or lowered != planned:
                op.error = (f"{plan.chain.name}: kernel not lowered from "
                            "its plan")
                return
        op.error = _check_capacity(chosen)
        op.plan_times.append(result.predicted_time)
        op.counts["core.multicore.partitioned"] = _partitioned(chosen)


# ----------------------------------------------------------------------
# network_warm
# ----------------------------------------------------------------------
class NetworkWarm(Workload):
    """Warm ``compile_network`` + ``network_plan_json`` through one service.

    After one seeded lead-in op, ops cycle through the ten (network,
    preset) pairs, reshuffled every cycle, so every prefix of the stream
    holds nearly the same mix whatever the seed.
    """

    name = "network_warm"

    def setup(self) -> None:
        dags = [build_network(network_config(name)) for name in NETWORKS]
        bert = build_network(network_config("Bert-Base"))
        dags.append(pack_networks([bert, bert, bert]))
        dags.append(build_multibranch_network(branches=8))
        self.pairs = [(dag, preset(hw)) for dag in dags
                      for hw in ("xeon-gold-6240", "a100")]
        rng = random.Random(f"{self.name}:{self.seed}")
        self.order = [rng.randrange(len(self.pairs))]
        while len(self.order) < 20_000:
            cycle = list(range(len(self.pairs)))
            rng.shuffle(cycle)
            self.order.extend(cycle)
        self.service = CompileService()
        self.expected = {}
        for index, (dag, hw) in enumerate(self.pairs):
            plan = rt_network.compile_network(dag, hw, service=self.service,
                                              max_workers=WIDTH)
            self.expected[index] = serialization.network_plan_json(plan)
        self.op(-1, self.pairs[0])

    def teardown(self) -> None:
        self.service = None

    def size(self) -> int:
        return len(self.order)

    def prepare(self, index: int) -> Any:
        metrics = self.service.metrics
        self._before = {name: metrics.get(name) for name in (
            "requests", "hits_memory", "hits_disk", "coalesced", "warm_near",
            "misses", "failures", "retries", "fallbacks")}
        return self.pairs[self.order[index]]

    def op(self, index: int, args: Any) -> Any:
        dag, hw = args
        plan = rt_network.compile_network(dag, hw, service=self.service,
                                          max_workers=WIDTH)
        return plan, serialization.network_plan_json(plan)

    def check(self, op: Op, output) -> None:
        plan, text = output
        if text != self.expected[self.order[op.index]]:
            op.error = f"{plan.network}/{plan.hardware.name}: plan JSON differs"
            return
        schedule = plan.schedule
        replayed = residency.replay_schedule(schedule)
        if replayed.peak_bytes != schedule.peak_bytes:
            op.error = (f"{plan.network}: replayed peak {replayed.peak_bytes}"
                        f" != scheduled {schedule.peak_bytes}")
            return
        op.plan_times.append(plan.total_time)
        op.counts["runtime.scheduler.peak_ratio"] = (
            schedule.peak_bytes / schedule.naive_peak_bytes
        )
        op.counts["runtime.scheduler.scheduled"] = 1
        op.counts["core.multicore.partitioned"] = int(
            any(node.cores > 1 for node in plan.nodes))
        metrics = self.service.metrics
        delta = {name: metrics.get(name) - value
                 for name, value in self._before.items()}
        op.counts["service.requests"] = delta["requests"]
        op.counts["service.hits"] = delta["hits_memory"] + delta["hits_disk"]
        op.counts["service.coalesced"] = delta["coalesced"]
        op.counts["service.near"] = delta["warm_near"]
        op.counts["service.cold"] = delta["misses"] - delta["warm_near"]
        op.counts["service.failures"] = (
            delta["failures"] + delta["retries"] + delta["fallbacks"])


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
async def _gather(coroutines) -> list:
    return await asyncio.gather(*coroutines)


class ServeMixed(Workload):
    """A closed loop of ``WIDTH`` in-flight requests to an in-process server.

    About three quarters of the requests are exact hits on the warmed
    Table IV pool; the rest are never-seen shapes of the same structures,
    which the shape index warm-starts.
    """

    name = "serve_mixed"
    phase_counts = (
        "core.search.candidates", "core.search.pruned", "core.search.solves",
        "core.search.memo_hits", "core.reordering.orders",
        "core.tables.compiled", "codegen.schedule.builds",
        "core.solver.slsqp_calls", "core.solver.slsqp_nfev",
        "microkernel.lowerings",
    )

    def __init__(self, seed: int, tracer, scratch: str) -> None:
        super().__init__(seed, tracer, scratch)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        self.server: Optional[BackgroundServer] = None

    def _requests(self) -> List[Tuple[Any, str]]:
        """The seeded request stream: ``(pool row or new shape, preset)``.

        Requests come in blocks of four: three exact hits and one new
        shape, at a seeded position.  Presets alternate, and each role
        cycles through the Table IV rows in reshuffled order, so every
        prefix of the stream holds the same mix whatever the seed.
        """
        rng = random.Random(f"{self.name}:{self.seed}")
        taken = {(hw, row.batch, row.m, row.n, row.k, row.l)
                 for row in TABLE_IV for hw in SERVE_PRESETS}
        rows = {"hit": [], "near": []}

        def next_row(role):
            if not rows[role]:
                rows[role] = list(TABLE_IV)
                rng.shuffle(rows[role])
            return rows[role].pop()

        stream: List[Tuple[Any, str]] = []
        while len(stream) < 4000:
            near_at = rng.randrange(4)
            for slot in range(4):
                hw = SERVE_PRESETS[len(stream) % len(SERVE_PRESETS)]
                if slot != near_at:
                    stream.append((next_row("hit"), hw))
                    continue
                row = next_row("near")
                while True:
                    m = 8 * round(row.m * rng.uniform(0.6, 1.4) / 8)
                    l = 8 * round(row.l * rng.uniform(0.6, 1.4) / 8)
                    shape = (hw, row.batch, m, row.n, row.k, l)
                    if shape not in taken:
                        break
                taken.add(shape)
                stream.append((shape[1:], hw))
        return stream

    def setup(self) -> None:
        self.stream = self._requests()
        self.pool = {row: row.build() for row in TABLE_IV}
        config = ServerConfig(port=0, workers=WIDTH, cache_dir=self.cache_dir,
                              compact_interval=0)
        self.server = BackgroundServer(config).start()
        self.loop = asyncio.new_event_loop()
        self.client = self.loop.run_until_complete(
            AsyncServingClient.open(self.server.host, self.server.port))
        self.expected: Dict[str, str] = {}
        fill = [(row, hw) for row in TABLE_IV for hw in SERVE_PRESETS]

        async def warm(items):
            for row, hw in items:
                reply = await self.client.compile(self.pool[row], hw,
                                                  check=True)
                self.expected[reply.key] = json.dumps(reply.entry,
                                                      sort_keys=True)

        self.loop.run_until_complete(_gather(
            warm(fill[i::WIDTH]) for i in range(WIDTH)))
        row, hw = fill[0]
        self.loop.run_until_complete(self.client.compile(self.pool[row], hw,
                                                         check=True))

    def teardown(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.client.close())
            self.loop.close()
            self.server.stop()
            self.server = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def chain_of(self, index: int):
        what, hw = self.stream[index]
        if isinstance(what, tuple):
            batch, m, n, k, l = what
            return ir_chains.batch_gemm_chain(batch, m, n, k, l), hw
        return self.pool[what], hw

    def run(self, seconds: float, min_ops: int) -> List[Op]:
        ops: List[Op] = []
        began = time.perf_counter()
        state = {"next": 0}

        async def client_slot():
            while True:
                index = state["next"]
                if index >= len(self.stream) or (
                    index >= min_ops and time.perf_counter() - began >= seconds
                ):
                    return
                state["next"] = index + 1
                chain, hw = self.chain_of(index)
                record = Op(index)
                record.start = time.perf_counter()
                try:
                    record.reply = await self.client.compile(chain, hw)
                except Exception as exc:  # noqa: BLE001
                    record.error = f"{type(exc).__name__}: {exc}"
                record.end = time.perf_counter()
                ops.append(record)

        self.loop.run_until_complete(_gather(
            client_slot() for _ in range(WIDTH)))
        ops.sort(key=lambda record: record.index)
        return ops

    def after(self, ops: List[Op]) -> None:
        """Per-reply checks, made once the timed phase is over."""
        for record in ops:
            reply = record.reply
            if record.error is not None:
                continue
            shed = int(reply.status in (429, 503))
            record.counts.update({
                "serving.shed": shed,
                "service.requests": 1,
                "service.hits": int(reply.source in ("memory", "disk")),
                "service.coalesced": int(reply.source == "coalesced"),
                "service.near": int(reply.warm_start == "near"),
                "service.cold": int(reply.warm_start == "cold"),
            })
            if not reply.ok:
                record.error = f"status {reply.status}: {reply.error}"
                continue
            chain, hw = self.chain_of(record.index)
            if reply.key != keys.cache_key(chain, preset(hw)):
                record.error = "reply key differs from the local cache_key"
                continue
            if reply.warm_start == "exact" and (
                json.dumps(reply.entry, sort_keys=True)
                != self.expected.get(reply.key)
            ):
                record.error = "exact-hit entry differs from the filled entry"
                continue
            if record.index < MIN_OPS:
                result = decode_plan_entry(reply.entry, preset(hw))
                record.plan_times.append(result.predicted_time)
                record.counts["core.multicore.partitioned"] = _partitioned(
                    result.decision.chosen)
        stats = self.loop.run_until_complete(self.client.stats())
        failures = sum(stats.get(name, 0)
                       for name in ("failures", "retries", "fallbacks"))
        if ops:
            ops[0].counts["service.failures"] = failures


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
class Verify(Workload):
    """Compile, lower, execute and line-simulate one small seeded chain.

    The chains are batch GEMM with and without softmax, conv and MLP,
    sized so an op takes a fraction of a second; full-size paper chains
    do not fit the executor and the line simulator in memory and time.
    """

    name = "verify"

    KINDS = ("bmm", "bmm_softmax", "conv", "mlp")
    PRESETS = ("xeon-gold-6240", "a100")

    @staticmethod
    def _draw(kind: str, pick: Callable[[str, Tuple], Any]) -> Tuple:
        """A chain spec: ``(builder name, positional args, softmax)``.

        ``pick(factor, choices)`` deals each factor's choices; the extent
        ranges are narrow so every run does about the same work.
        """
        if kind.startswith("bmm"):
            return ("batch_gemm_chain", (
                pick("batch", (2, 4)), pick("m", (128, 160, 192)),
                pick("n", (32, 64)), pick("k", (32, 64)),
                pick("l", (128, 160, 192))), kind == "bmm_softmax")
        if kind == "conv":
            # Table V's kernel pairs: one 3x3 at most.
            k1, k2 = pick("kernels", ((3, 1), (1, 3), (1, 1)))
            size = pick("size", (14, 16))
            return ("conv_chain", (
                1, pick("c", (8, 16)), size, size, pick("k", (16, 32)),
                pick("l", (16, 32)), 1, 1, k1, k2), False)
        return ("mlp_chain", (
            pick("m", (128, 160, 192)), pick("k", (64, 128)),
            pick("n", (256, 320, 384)), pick("l", (64, 128))), False)

    def setup(self) -> None:
        """Blocks of eight ops, one per (chain kind, preset), seeded order.

        Each half block holds every kind once, and each (kind, preset)
        stratum deals every factor's choices from its own shuffled deck.
        The costliest choices (a 3x3 conv kernel, batch 4) therefore take
        the same share of every run's first ops whatever the seed, while
        the seed still decides which chains those are.
        """
        rng = random.Random(f"{self.name}:{self.seed}")
        decks: Dict[Tuple[str, str, str], list] = {}

        def dealer(kind: str, hw: str) -> Callable[[str, Tuple], Any]:
            def pick(factor: str, choices: Tuple) -> Any:
                deck = decks.setdefault((kind, hw, factor), [])
                if not deck:
                    deck.extend(choices)
                    rng.shuffle(deck)
                return deck.pop()
            return pick

        seen = set()
        self.items: List[Tuple[Any, Any]] = []
        while len(self.items) < 200:
            halves = {kind: rng.sample(self.PRESETS, 2) for kind in self.KINDS}
            for half in (0, 1):
                block = [(kind, halves[kind][half]) for kind in self.KINDS]
                rng.shuffle(block)
                for kind, hw in block:
                    pick = dealer(kind, hw)
                    spec = self._draw(kind, pick) + (hw,)
                    while spec in seen:
                        spec = self._draw(kind, pick) + (hw,)
                    seen.add(spec)
                    builder, args, softmax, _ = spec
                    kwargs = {"with_softmax": True} if softmax else {}
                    chain = getattr(ir_chains, builder)(*args, **kwargs)
                    self.items.append((chain, preset(hw)))
        # The warm-up is the batch GEMM at the top of the draw's ranges, so
        # the peak memory of a run hinges less on the seed.
        warm = ir_chains.batch_gemm_chain(4, 192, 64, 64, 192,
                                          with_softmax=True, name="warmup")
        self.verify_one(warm, preset("xeon-gold-6240"),
                        executor.random_inputs(warm, 0))

    def verify_one(self, chain, hw, inputs):
        result = pipeline.compile_chain(chain, hw)
        plan = result.decision.fused_plan
        program = cg_program.lower_plan(plan)
        outputs = executor.execute_program(program, inputs)
        reference = executor.execute_reference(chain, inputs)
        stats = linecache.simulate_movement_lines(
            chain, hw, program, upto_level=hw.levels[0].name)
        return result, program, outputs, reference, stats

    def size(self) -> int:
        return len(self.items)

    def run(self, seconds: float, min_ops: int) -> List[Op]:
        # Half as many ops again: the host's speed swings over tens of
        # seconds, and a longer timed phase averages more of them out.
        return super().run(seconds, min_ops * 3 // 2)

    def prepare(self, index: int) -> Any:
        # Every chain is distinct, so the executor's schedule memo never hits
        # across ops.  Emptying it keeps peak RSS to one op's footprint instead
        # of whichever 32 schedules (40-95 MB) the seed's last ops left in it.
        cg_schedule.clear_schedule_memo()
        chain, hw = self.items[index]
        return chain, hw, executor.random_inputs(chain, self.seed + index)

    def op(self, index: int, args: Any) -> Any:
        return self.verify_one(*args)

    def check(self, op: Op, output) -> None:
        result, program, outputs, reference, stats = output
        for name, expected in reference.items():
            if not np.allclose(outputs[name], expected, rtol=1e-4, atol=1e-6):
                err = float(np.max(np.abs(outputs[name] - expected)))
                op.error = f"output {name} differs from reference by {err}"
                return
        op.plan_times.append(result.predicted_time)
        op.counts["codegen.executor.blocks"] = program.block_count()
        op.counts["sim.linecache.lines"] = next(iter(stats.values())).accesses
        op.counts["core.multicore.partitioned"] = _partitioned(
            result.decision.chosen)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "chain_cold": ChainCold,
    "network_warm": NetworkWarm,
    "serve_mixed": ServeMixed,
    "verify": Verify,
}
