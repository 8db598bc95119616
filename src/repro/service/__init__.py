"""Compilation-as-a-service layer over the Chimera pipeline.

The optimizer's analytical search costs seconds per chain; a serving
deployment compiles each distinct (chain, hardware, config) exactly once.
This package provides that layer:

* :func:`cache_key` / :func:`canonical_request` — content-addressed request
  hashing (:mod:`repro.service.keys`);
* :class:`PlanCache` — in-memory LRU over an atomic, corruption-tolerant
  on-disk JSON store (:mod:`repro.service.cache`);
* :class:`ShapeIndex` — shape-bucketed nearest-plan index that turns
  near-miss requests into warm-started (but byte-identical) compiles
  (:mod:`repro.service.shapes`);
* :class:`CompileService` — cached + coalesced + warm-starting +
  failure-degrading ``compile`` / ``serve`` front end
  (:mod:`repro.service.service`);
* :func:`compile_batch` — cache hits served on the calling thread, misses
  fanned out in parallel, with per-request isolation
  (:mod:`repro.service.batch`);
* :class:`ServiceMetrics` — thread-safe counters and latency percentiles
  (:mod:`repro.service.metrics`).

Quickstart::

    from repro.service import CompileService

    service = CompileService(cache_dir="~/.cache/repro-plans")
    result = service.compile(chain, hw)      # cold: runs the optimizer
    result = service.compile(chain, hw)      # warm: decoded from cache
    report = service.compile_batch([(c, hw) for c in chains])
    print(report.table())
    print(service.stats())
"""

from .batch import (
    STATUS_FAILED,
    STATUS_FALLBACK,
    STATUS_OK,
    STATUS_TIMEOUT,
    BatchItem,
    BatchReport,
    compile_batch,
)
from .cache import (
    PlanCache,
    ShardedPlanCache,
    detect_shards,
    entry_bytes,
    open_cache,
    shard_index,
    validate_entry,
)
from .keys import (
    cache_key,
    canonical_request,
    extent_vector,
    structure_key,
    structure_request,
)
from .metrics import ServiceMetrics, percentile, summarize
from .service import (
    SOURCE_COALESCED,
    SOURCE_COMPILED,
    SOURCE_DISK,
    SOURCE_FALLBACK,
    SOURCE_MEMORY,
    WARM_COLD,
    WARM_EXACT,
    WARM_NEAR,
    CompilationFailure,
    CompileRequest,
    CompileService,
    RawServed,
    ServedCompile,
    as_request,
    decode_plan_entry,
)
from .shapes import ShapeIndex, ShapeNeighbor, log_extent_distance

__all__ = [
    "BatchItem",
    "BatchReport",
    "compile_batch",
    "STATUS_OK",
    "STATUS_FALLBACK",
    "STATUS_FAILED",
    "STATUS_TIMEOUT",
    "PlanCache",
    "ShardedPlanCache",
    "detect_shards",
    "entry_bytes",
    "open_cache",
    "shard_index",
    "validate_entry",
    "cache_key",
    "canonical_request",
    "structure_key",
    "structure_request",
    "extent_vector",
    "ShapeIndex",
    "ShapeNeighbor",
    "log_extent_distance",
    "ServiceMetrics",
    "percentile",
    "summarize",
    "CompilationFailure",
    "CompileRequest",
    "CompileService",
    "RawServed",
    "ServedCompile",
    "as_request",
    "decode_plan_entry",
    "SOURCE_MEMORY",
    "SOURCE_DISK",
    "SOURCE_COALESCED",
    "SOURCE_COMPILED",
    "SOURCE_FALLBACK",
    "WARM_EXACT",
    "WARM_NEAR",
    "WARM_COLD",
]
