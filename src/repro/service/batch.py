"""Batch compilation: cache hits inline, misses over a worker pool.

Offline deployments compile a model's whole set of fusion chains at once;
:func:`compile_batch` serves every cache hit on the calling thread (a hit
is a lookup plus a cheap decode, which a thread hand-off would only slow
down) and fans the misses across a ``concurrent.futures`` thread pool
(the optimizer spends its time in NumPy/SciPy, which release the GIL
during the heavy linear algebra).  The pool is built only when the batch
has misses.  Per-request outcomes are aggregated into a
:class:`BatchReport`.

Per-request isolation is the contract: one request failing, degrading to
the unfused fallback, or exceeding its timeout never affects its batch
mates.  Duplicate requests inside one batch coalesce through the service's
in-flight table, so a batch with repeated chains costs one compile per
distinct key.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import time
from typing import List, Optional, Sequence, Tuple

from .service import (
    SOURCE_FALLBACK,
    CompileRequest,
    CompileService,
    RequestLike,
    ServedCompile,
    as_request,
)

#: ``BatchItem.status`` values.
STATUS_OK = "ok"
STATUS_FALLBACK = "fallback"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


@dataclasses.dataclass(frozen=True)
class BatchItem:
    """Outcome of one request in a batch."""

    index: int
    chain: str
    hardware: str
    key: str
    status: str
    source: str
    seconds: float
    served: Optional[ServedCompile]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_FALLBACK)

    @property
    def predicted_time(self) -> Optional[float]:
        if self.served is None or self.served.result is None:
            return None
        return self.served.result.predicted_time


@dataclasses.dataclass(frozen=True)
class BatchReport:
    """All per-request outcomes plus batch-level wall clock."""

    items: Tuple[BatchItem, ...]
    wall_seconds: float

    @property
    def ok(self) -> int:
        return sum(1 for item in self.items if item.status == STATUS_OK)

    @property
    def fallbacks(self) -> int:
        return sum(1 for item in self.items if item.status == STATUS_FALLBACK)

    @property
    def failed(self) -> int:
        return sum(
            1
            for item in self.items
            if item.status in (STATUS_FAILED, STATUS_TIMEOUT)
        )

    @property
    def succeeded(self) -> bool:
        """True when every request produced an executable result."""
        return self.failed == 0

    def table(self) -> str:
        from ..analysis import render_table

        rows = []
        for item in self.items:
            predicted = item.predicted_time
            rows.append(
                [
                    str(item.index),
                    item.chain,
                    item.hardware,
                    item.key[:12],
                    item.status,
                    item.source or "-",
                    f"{item.seconds * 1e3:.1f} ms",
                    "-" if predicted is None else f"{predicted * 1e6:.1f} us",
                ]
            )
        header = [
            "#", "chain", "hardware", "key", "status", "source",
            "service time", "predicted",
        ]
        summary = (
            f"{len(self.items)} requests in {self.wall_seconds:.2f}s: "
            f"{self.ok} ok, {self.fallbacks} fallback, {self.failed} failed"
        )
        return render_table(header, rows) + "\n" + summary


def _default_workers(n_requests: int) -> int:
    """Pool width: one thread per request, at most one per CPU the
    process may run on (its affinity mask, where the platform has one)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    return max(1, min(n_requests, cpus))


def _unserved_item(
    index: int,
    request: CompileRequest,
    key: str,
    status: str,
    seconds: float,
    error: str,
) -> BatchItem:
    """The outcome of a request that produced no :class:`ServedCompile`."""
    return BatchItem(
        index=index,
        chain=request.chain.name,
        hardware=request.hardware.name,
        key=key,
        status=status,
        source="",
        seconds=seconds,
        served=None,
        error=error,
    )


def _served_item(index: int, served: ServedCompile) -> BatchItem:
    if served.result is None:
        status = STATUS_FAILED
    elif served.source == SOURCE_FALLBACK:
        status = STATUS_FALLBACK
    else:
        status = STATUS_OK
    return BatchItem(
        index=index,
        chain=served.request.chain.name,
        hardware=served.request.hardware.name,
        key=served.key,
        status=status,
        source=served.source,
        seconds=served.seconds,
        served=served,
        error=served.error,
    )


def _serve_miss(
    service: CompileService, request: CompileRequest, key: str
) -> ServedCompile:
    """A pool worker's job: finish a request :meth:`lookup` counted."""
    return service._serve_keyed(request, key, time.perf_counter())


def compile_batch(
    service: CompileService,
    requests: Sequence[RequestLike],
    *,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
) -> BatchReport:
    """Compile every request with per-request isolation.

    Each request's cache key is computed once.  Hits are served on the
    calling thread through :meth:`CompileService.lookup`; the misses
    (including entries that fail to decode, which are evicted) are
    compiled in parallel by a thread pool built only for them.

    Args:
        service: the cache/coalescing front end every request goes
            through.
        requests: ``CompileRequest`` objects or ``(chain, hardware)`` pairs.
        max_workers: pool size for the misses (default: one thread per
            miss, at most one per CPU in the process's affinity mask).
        timeout: per-request wall-clock budget in seconds for the misses,
            measured from batch start.  A request that misses it is
            reported as ``"timeout"``; its worker keeps running in the
            background and may still populate the cache for the next
            batch.

    Returns:
        a :class:`BatchReport`; this function never raises for per-request
        failures.
    """
    normalized = [as_request(request) for request in requests]
    if not normalized:
        return BatchReport(items=(), wall_seconds=0.0)
    started = time.perf_counter()
    items: List[Optional[BatchItem]] = [None] * len(normalized)
    misses: List[Tuple[int, CompileRequest, str]] = []
    for index, request in enumerate(normalized):
        arrived = time.perf_counter()
        key = request.key
        try:
            served = service.lookup(request, key, arrived)
        except Exception as exc:  # noqa: BLE001 - isolate request crashes
            items[index] = _unserved_item(
                index, request, key, STATUS_FAILED,
                time.perf_counter() - arrived, f"{type(exc).__name__}: {exc}",
            )
            continue
        if served is None:
            misses.append((index, request, key))
        else:
            items[index] = _served_item(index, served)
    if misses:
        workers = (
            _default_workers(len(misses))
            if max_workers is None
            else max_workers
        )
        executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-compile"
        )
        try:
            futures = [
                executor.submit(_serve_miss, service, request, key)
                for _, request, key in misses
            ]
            for (index, request, key), future in zip(misses, futures):
                remaining = None
                if timeout is not None:
                    remaining = max(
                        0.0, timeout - (time.perf_counter() - started)
                    )
                try:
                    items[index] = _served_item(
                        index, future.result(timeout=remaining)
                    )
                except concurrent.futures.TimeoutError:
                    service.metrics.count("timeouts")
                    items[index] = _unserved_item(
                        index, request, key, STATUS_TIMEOUT,
                        time.perf_counter() - started,
                        f"timed out after {timeout}s",
                    )
                except Exception as exc:  # noqa: BLE001 - isolate crashes
                    items[index] = _unserved_item(
                        index, request, key, STATUS_FAILED,
                        time.perf_counter() - started,
                        f"{type(exc).__name__}: {exc}",
                    )
        finally:
            # Don't block the report on timed-out stragglers.
            executor.shutdown(wait=timeout is None)
    return BatchReport(
        items=tuple(items), wall_seconds=time.perf_counter() - started
    )
