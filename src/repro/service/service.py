"""The compilation service: cached, coalesced, failure-tolerant compiles.

:class:`CompileService` wraps :func:`repro.compile_chain` in the serving
layer a deployment needs:

* **cache** — results are stored under a content hash of the request
  (:func:`repro.service.cache_key`) in a two-tier :class:`PlanCache`; a hit
  skips the analytical optimizer entirely and replays only the cheap,
  deterministic kernel lowering;
* **coalescing** — concurrent requests for the same key share one
  compilation: the first caller becomes the leader, later callers block on
  its result instead of burning duplicate optimizer runs;
* **degradation** — an optimizer error is retried once, then degraded to
  the per-operator *unfused* plan (each operator planned as its own
  kernel), so a single pathological chain yields a slower-but-correct
  result instead of an exception;
* **warm starting** — a miss whose *shape* is new but whose chain
  structure matches a cached plan (see :class:`repro.service.ShapeIndex`)
  seeds the optimizer with the neighbor's winning loop order and tile
  sizes; the search still proves optimality, so the plan is byte-identical
  to a cold compile, just found faster.  Replies label the path taken via
  ``warm_start`` (``"exact"``/``"near"``/``"cold"``);
* **metrics** — hits, misses, evictions, coalesced requests, failures and
  compile-latency percentiles, via :meth:`CompileService.stats`.

Fallback results are deliberately **not** cached: the failure may be
transient, and caching the degraded plan would pin the slow path forever.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.fusion import FusionDecision, plan_unfused
from ..core.optimizer import ChimeraConfig
from ..core.search import search_stats_snapshot
from ..core.warmstart import ChainHints, hints_from_entry
from ..hardware.spec import HardwareSpec
from ..ir.chain import OperatorChain
from ..runtime import pipeline
from ..runtime.pipeline import CompileResult, kernels_for_decision
from ..runtime.serialization import (
    FORMAT_VERSION,
    PlanFormatError,
    plan_from_dict,
    plan_to_dict,
)
from .cache import PathLike, PlanCache, ShardedPlanCache, open_cache
from .keys import cache_key, extent_vector, structure_key
from .metrics import ServiceMetrics
from .shapes import INDEX_FILENAME, ShapeIndex

#: ``ServedCompile.source`` values, in the order a request tries them.
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"
SOURCE_COALESCED = "coalesced"
SOURCE_COMPILED = "compiled"
SOURCE_FALLBACK = "fallback"

#: ``warm_start`` labels: how much cached knowledge served the request.
WARM_EXACT = "exact"  # cache hit — the plan itself was reused
WARM_NEAR = "near"  # fresh compile warm-started from a shape neighbor
WARM_COLD = "cold"  # fresh compile with no usable neighbor

#: Nearest neighbors probed per miss; past the first few, entries are
#: either evicted (skipped anyway) or too far to seed a useful start.
NEIGHBOR_PROBES = 4


class CompilationFailure(RuntimeError):
    """Compilation failed even after retry and the unfused fallback."""


def decode_plan_entry(
    entry: Dict[str, Any], hardware: HardwareSpec
) -> CompileResult:
    """Rebuild a :class:`CompileResult` from a cache entry — no optimizer.

    Replays only the cheap, deterministic back half of the pipeline
    (plan reconstruction + micro-kernel attachment + codegen).  Shared by
    the in-process warm path and remote clients decoding wire entries.

    Raises:
        PlanFormatError: when the entry's plans fail to decode.
    """
    fused_data = entry["fused_plan"]
    decision = FusionDecision(
        fused_plan=(
            None if fused_data is None else plan_from_dict(fused_data)
        ),
        unfused_plans=tuple(
            plan_from_dict(data) for data in entry["unfused_plans"]
        ),
        use_fusion=entry["use_fusion"],
    )
    return CompileResult(
        kernels=kernels_for_decision(decision, hardware),
        decision=decision,
    )


@dataclasses.dataclass(frozen=True)
class CompileRequest:
    """One (chain, hardware) compilation unit submitted to the service."""

    chain: OperatorChain
    hardware: HardwareSpec
    config: Optional[ChimeraConfig] = None
    force_fusion: Optional[bool] = None

    @property
    def key(self) -> str:
        return cache_key(
            self.chain, self.hardware, self.config, self.force_fusion
        )

    def describe(self) -> str:
        return f"{self.chain.name} on {self.hardware.name}"


@dataclasses.dataclass(frozen=True)
class ServedCompile:
    """Outcome of one request through the service (never an exception).

    Attributes:
        request: the originating request.
        key: its content-addressed cache key.
        result: the compile result, or ``None`` when even the fallback
            failed.
        source: where the result came from — ``"memory"``/``"disk"`` cache
            tiers, ``"coalesced"`` (shared an in-flight compile),
            ``"compiled"`` (fresh optimizer run), or ``"fallback"``
            (degraded unfused plan after optimizer errors).
        seconds: wall-clock service time for this request.
        error: the final error message when ``result`` is ``None``.
        warm_start: ``"exact"`` for cache hits, ``"near"`` for a fresh
            compile warm-started from a shape neighbor, ``"cold"``
            otherwise.  Coalesced requests inherit the leader's label.
    """

    request: CompileRequest
    key: str
    result: Optional[CompileResult]
    source: str
    seconds: float
    error: Optional[str] = None
    warm_start: str = WARM_COLD

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def from_cache(self) -> bool:
        return self.source in (SOURCE_MEMORY, SOURCE_DISK)


@dataclasses.dataclass(frozen=True)
class RawServed:
    """Outcome of one request through :meth:`CompileService.serve_raw`.

    Carries the JSON-ready cache *entry* instead of a decoded
    :class:`CompileResult` — the remote-serving hot path, where the entry
    goes straight back onto the wire and kernel lowering happens (if at
    all) on the client.
    """

    key: str
    entry: Optional[Dict[str, Any]]
    source: str
    seconds: float
    error: Optional[str] = None
    warm_start: str = WARM_COLD

    @property
    def ok(self) -> bool:
        return self.entry is not None

    @property
    def from_cache(self) -> bool:
        return self.source in (SOURCE_MEMORY, SOURCE_DISK)


class _InFlight:
    """Rendezvous slot for requests coalesced onto one leader compile."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.entry: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        # Label of the leader's compile; followers report the same one,
        # since they share the result it produced.
        self.warm_start: str = WARM_COLD


RequestLike = Union[CompileRequest, Tuple[OperatorChain, HardwareSpec]]


def as_request(request: RequestLike) -> CompileRequest:
    """Accept ``CompileRequest`` or a bare ``(chain, hardware)`` pair."""
    if isinstance(request, CompileRequest):
        return request
    chain, hardware = request
    return CompileRequest(chain=chain, hardware=hardware)


class CompileService:
    """A long-lived, thread-safe compilation front end.

    Args:
        cache_dir: directory for the persistent tier (``None`` keeps the
            cache memory-only).
        memory_capacity: LRU front-tier size, in entries.
        retries: extra optimizer attempts after the first failure.
        fallback: degrade to the unfused per-operator plan once retries are
            exhausted (otherwise the error is reported).
        shards: number of independent cache shards (>1 builds a
            :class:`ShardedPlanCache`; lookups on different shards never
            contend on a lock).
        max_memory_bytes: optional byte-accounted bound on the memory tier
            (total across shards); whichever of the entry and byte bounds
            trips first evicts.
        metrics_window: sliding-window size for latency percentiles (see
            :class:`ServiceMetrics`).
        cache: a prebuilt :class:`PlanCache`/:class:`ShardedPlanCache` to
            serve from; overrides every cache-shaping argument above, and
            the service adopts the cache's metrics registry so counters
            land in one place.

    A miss on a new shape always warm-starts from the nearest cached
    same-structure plan; a fresh service, whose index is empty, compiles
    every shape cold.
    """

    def __init__(
        self,
        cache_dir: Optional[PathLike] = None,
        memory_capacity: int = 128,
        retries: int = 1,
        fallback: bool = True,
        *,
        shards: int = 1,
        max_memory_bytes: Optional[int] = None,
        metrics_window: int = 2048,
        cache: Optional[Union[PlanCache, ShardedPlanCache]] = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if cache is not None:
            self.cache = cache
            self.metrics = cache.metrics
        else:
            self.metrics = ServiceMetrics(window=metrics_window)
            self.cache = open_cache(
                cache_dir,
                shards=shards,
                capacity=memory_capacity,
                metrics=self.metrics,
                max_memory_bytes=max_memory_bytes,
            )
        self.retries = retries
        self.fallback = fallback
        # The index lives at the cache root (above the shard directories)
        # and persists with the disk tier; a memory-only cache gets a
        # memory-only index with the same lifetime.
        index_root = getattr(self.cache, "cache_dir", None)
        self.shape_index = ShapeIndex(
            path=index_root / INDEX_FILENAME if index_root else None
        )
        self._inflight: Dict[str, _InFlight] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compile(
        self,
        chain: OperatorChain,
        hardware: HardwareSpec,
        config: Optional[ChimeraConfig] = None,
        *,
        force_fusion: Optional[bool] = None,
    ) -> CompileResult:
        """Drop-in, cache-aware :func:`repro.compile_chain`.

        Raises:
            CompilationFailure: when compilation fails beyond recovery.
        """
        served = self.serve(
            CompileRequest(chain, hardware, config, force_fusion)
        )
        if served.result is None:
            raise CompilationFailure(
                f"compiling {served.request.describe()} failed: {served.error}"
            )
        return served.result

    def serve(self, request: RequestLike) -> ServedCompile:
        """Serve one request; errors are reported, never raised."""
        request = as_request(request)
        started = time.perf_counter()
        key = request.key
        self.metrics.count("requests")
        return self._serve_keyed(request, key, started)

    def _serve_keyed(
        self, request: CompileRequest, key: str, started: float
    ) -> ServedCompile:
        """:meth:`_resolve` plus the decode, for an already-counted request.

        Split from :meth:`serve` so the retry after evicting a corrupt
        cache entry re-enters the lookup without inflating the
        ``requests`` counter — keeping the accounting invariant
        ``requests == hits + misses + coalesced``.
        """
        entry, source, error, warm = self._resolve(request, key)
        result: Optional[CompileResult] = None
        if entry is not None:
            try:
                result = self._decode_entry(entry, request.hardware)
            except PlanFormatError as exc:
                # An undecodable entry: evict it, and recompile once when
                # it came from a cache tier.
                self._evict_corrupt(key)
                if source in (SOURCE_MEMORY, SOURCE_DISK):
                    # The hit never produced a result: retract it, so the
                    # recompile registers as the miss it really is
                    # instead of a phantom hit plus a double-counted
                    # request.
                    self.metrics.count(f"hits_{source}", -1)
                    return self._serve_keyed(request, key, started)
                error = str(exc)
        return ServedCompile(
            request=request,
            key=key,
            result=result,
            source=source,
            seconds=time.perf_counter() - started,
            error=error,
            warm_start=warm,
        )

    def lookup(
        self, request: CompileRequest, key: str, started: float
    ) -> Optional[ServedCompile]:
        """Serve a cache hit on the calling thread; ``None`` otherwise.

        Counts the request, then does for a hit exactly what
        :meth:`serve` does: counts ``hits_<tier>`` and decodes the entry.
        A corrupt entry is evicted and forgotten in the shape index, and
        its hit retracted.  On ``None`` (a miss, or a corrupt entry) the
        request stays counted: finish it with :meth:`_serve_keyed`, which
        coalesces, compiles and recovers as :meth:`serve` does.

        Args:
            request: the compilation unit.
            key: its cache key.
            started: ``perf_counter()`` when the request arrived; the
                hit's ``seconds`` are measured from it.
        """
        self.metrics.count("requests")
        entry, tier = self.cache.get_with_tier(key)
        if entry is None:
            return None
        self.metrics.count(f"hits_{tier}")
        try:
            result = self._decode_entry(entry, request.hardware)
        except PlanFormatError:
            self._evict_corrupt(key)
            self.metrics.count(f"hits_{tier}", -1)
            return None
        return ServedCompile(
            request=request,
            key=key,
            result=result,
            source=tier,
            seconds=time.perf_counter() - started,
            warm_start=WARM_EXACT,
        )

    def serve_raw(
        self, request: RequestLike, *, key: Optional[str] = None
    ) -> RawServed:
        """Serve one request as a raw cache entry — no kernel lowering.

        The remote-serving hot path: a warm hit returns the JSON-ready
        entry straight from the cache, skipping :meth:`_decode_entry`
        (micro-kernel attachment + codegen), so its latency is dominated
        by lookup and serialization.  Cache, coalescing, metrics and
        fallback behaviour are identical to :meth:`serve` — both run
        :meth:`_resolve` over one in-flight table, so a ``serve`` and a
        ``serve_raw`` for the same key coalesce onto one compile.

        Args:
            request: the compilation unit.
            key: precomputed cache key (skips re-hashing when the caller
                already derived it from the canonical request payload).
        """
        request = as_request(request)
        started = time.perf_counter()
        if key is None:
            key = request.key
        self.metrics.count("requests")
        entry, source, error, warm = self._resolve(request, key)
        return RawServed(
            key=key,
            entry=entry,
            source=source,
            seconds=time.perf_counter() - started,
            error=error,
            warm_start=warm,
        )

    def compile_batch(self, requests, **kwargs):
        """Serve hits inline and fan misses across a worker pool; see
        :func:`compile_batch`."""
        from .batch import compile_batch

        return compile_batch(self, requests, **kwargs)

    def stats(self) -> Dict[str, Any]:
        """Metrics snapshot plus cache occupancy and order-search counters."""
        snap = self.metrics.snapshot()
        snap["search"] = search_stats_snapshot()
        snap["cache"] = self.cache.stats()
        snap["shape_index"] = self.shape_index.stats()
        return snap

    def clear_cache(self, memory_only: bool = False) -> int:
        if memory_only:
            self.cache.clear_memory()
            return 0
        # A full clear deletes every entry the index points at, so the
        # index must go too — stale records would only produce misses in
        # :meth:`_near_hints` (correct, but wasted lookups).
        self.shape_index.clear()
        return self.cache.clear()

    # ------------------------------------------------------------------
    # lookup, coalesce, or lead the compile
    # ------------------------------------------------------------------
    def _resolve(
        self, request: CompileRequest, key: str
    ) -> Tuple[Optional[Dict[str, Any]], str, Optional[str], str]:
        """Cache lookup, then coalescing onto an in-flight compile, then
        the leader's compile — for an already-counted request.

        Returns ``(entry, source, error, warm_start)`` as
        :meth:`_compile_with_recovery` does; ``source`` is the cache tier
        on a hit and ``"coalesced"`` for a follower, which shares its
        leader's entry, error and label.
        """
        leader = False
        with self._lock:
            entry, tier = self.cache.get_with_tier(key)
            if entry is not None:
                self.metrics.count(f"hits_{tier}")
            else:
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True

        if entry is not None:
            return entry, tier, None, WARM_EXACT

        if not leader:
            self.metrics.count("coalesced")
            flight.done.wait()
            return (
                flight.entry, SOURCE_COALESCED, flight.error,
                flight.warm_start,
            )

        self.metrics.count("misses")
        source = SOURCE_COMPILED
        error: Optional[str] = None
        warm = WARM_COLD
        try:
            entry, source, error, warm = self._compile_with_recovery(
                request, key
            )
            if entry is not None and source == SOURCE_COMPILED:
                self.cache.put(key, entry)
                self._record_shape(request, key)
        finally:
            flight.entry = entry
            flight.error = error
            flight.warm_start = warm
            with self._lock:
                self._inflight.pop(key, None)
            flight.done.set()
        return entry, source, error, warm

    def _evict_corrupt(self, key: str) -> None:
        """Drop an entry that failed to decode from the cache and index."""
        self.metrics.count("corrupt_entries")
        self.cache.delete(key)
        self.shape_index.forget(key)

    # ------------------------------------------------------------------
    # warm-start path: shape index maintenance and neighbor hints
    # ------------------------------------------------------------------
    def _structure_of(
        self, request: CompileRequest
    ) -> Tuple[Optional[str], Optional[List[int]]]:
        """(structure key, extent vector) for the request, or ``(None, None)``.

        Warm starting is a latency optimization: a request whose IR trips
        up the structure hash must compile cold, never fail.
        """
        try:
            return (
                structure_key(
                    request.chain,
                    request.hardware,
                    request.config,
                    request.force_fusion,
                ),
                extent_vector(request.chain),
            )
        except Exception:  # noqa: BLE001 - degrade to a cold compile
            return None, None

    def _record_shape(self, request: CompileRequest, key: str) -> None:
        """Index a freshly cached plan under its shape bucket."""
        structure, extents = self._structure_of(request)
        if structure is not None and extents is not None:
            self.shape_index.record(structure, key, extents)

    def _near_hints(
        self, request: CompileRequest, key: str
    ) -> Optional[ChainHints]:
        """Warm-start hints from the nearest same-structure cached plan.

        Probes the closest few neighbors (their entries may have been
        evicted since they were indexed) and returns hints from the first
        one whose entry still decodes into something usable.
        """
        structure, extents = self._structure_of(request)
        if structure is None or extents is None:
            return None
        neighbors = self.shape_index.neighbors(
            structure, extents, limit=NEIGHBOR_PROBES, exclude=key
        )
        for neighbor in neighbors:
            entry = self.cache.get(neighbor.key)
            if entry is None:
                # Evicted from both tiers since it was recorded.
                self.shape_index.forget(neighbor.key)
                continue
            hints = hints_from_entry(entry)
            if hints is not None:
                return hints
        return None

    def _compile_with_recovery(
        self, request: CompileRequest, key: str
    ) -> Tuple[Optional[Dict[str, Any]], str, Optional[str], str]:
        """Optimizer run with retry, then the unfused fallback.

        Returns ``(entry, source, error, warm_start)``; ``entry`` is
        ``None`` only when every recovery path failed.  Neighbor hints are
        passed to the first attempt only: if the warm-started attempt
        fails, retries run cold so a pathological hint cannot wedge the
        request (the hint path is designed to be invariant, but recovery
        must not depend on that).
        """
        hints = self._near_hints(request, key)
        if hints is not None:
            self.metrics.count("warm_near")
        last_error: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            attempt_hints = hints if attempt == 0 else None
            try:
                compile_started = time.perf_counter()
                result = pipeline.compile_chain(
                    request.chain,
                    request.hardware,
                    request.config,
                    force_fusion=request.force_fusion,
                    hints=attempt_hints,
                )
                elapsed = time.perf_counter() - compile_started
                self.metrics.count("compiles")
                self.metrics.observe_compile(elapsed)
                return (
                    self._encode_result(request, key, result, elapsed),
                    SOURCE_COMPILED,
                    None,
                    WARM_NEAR if attempt_hints is not None else WARM_COLD,
                )
            except Exception as exc:  # noqa: BLE001 - isolate optimizer bugs
                last_error = exc
                self.metrics.count("failures")
                if attempt < self.retries:
                    self.metrics.count("retries")

        if self.fallback:
            try:
                entry = self._fallback_entry(request, key)
                self.metrics.count("fallbacks")
                return entry, SOURCE_FALLBACK, None, WARM_COLD
            except Exception as exc:  # noqa: BLE001
                last_error = exc
                self.metrics.count("failures")
        return (
            None,
            SOURCE_FALLBACK,
            f"{type(last_error).__name__}: {last_error}",
            WARM_COLD,
        )

    def _fallback_entry(
        self, request: CompileRequest, key: str
    ) -> Dict[str, Any]:
        """Plan every operator as its own kernel — no whole-chain search.

        The degraded decision carries ``fused_plan=None`` (there is no
        trustworthy fused plan to report) and is never persisted.
        """
        cfg = pipeline.chimera_config(
            request.chain, request.hardware, request.config
        )
        unfused = plan_unfused(request.chain, request.hardware, cfg)
        entry = {
            "format_version": FORMAT_VERSION,
            "key": key,
            "chain": request.chain.name,
            "hardware": request.hardware.name,
            "use_fusion": False,
            "force_fusion": request.force_fusion,
            "fused_plan": None,
            "unfused_plans": [plan_to_dict(plan) for plan in unfused],
            "compile_seconds": None,
            "created_at": time.time(),
        }
        return entry

    # ------------------------------------------------------------------
    # entry encode/decode
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_result(
        request: CompileRequest,
        key: str,
        result: CompileResult,
        compile_seconds: float,
    ) -> Dict[str, Any]:
        decision = result.decision
        return {
            "format_version": FORMAT_VERSION,
            "key": key,
            "chain": request.chain.name,
            "hardware": request.hardware.name,
            "use_fusion": decision.use_fusion,
            "force_fusion": request.force_fusion,
            "fused_plan": plan_to_dict(decision.fused_plan),
            "unfused_plans": [
                plan_to_dict(plan) for plan in decision.unfused_plans
            ],
            "compile_seconds": compile_seconds,
            "created_at": time.time(),
        }

    @staticmethod
    def _decode_entry(
        entry: Dict[str, Any], hardware: HardwareSpec
    ) -> CompileResult:
        return decode_plan_entry(entry, hardware)
