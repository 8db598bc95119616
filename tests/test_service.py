"""Tests for the compilation service: cache, coalescing, batch, metrics."""

import json
import sys
import threading
import time

import pytest

import repro
from repro.core.optimizer import ChimeraConfig, ChimeraOptimizer
from repro.hardware import all_presets, xeon_gold_6240
from repro.ir.chains import batch_gemm_chain, conv_chain
from repro.service import (
    SOURCE_COALESCED,
    SOURCE_COMPILED,
    SOURCE_DISK,
    SOURCE_FALLBACK,
    SOURCE_MEMORY,
    CompilationFailure,
    CompileRequest,
    CompileService,
    PlanCache,
    ServiceMetrics,
    cache_key,
    canonical_request,
    compile_batch,
    percentile,
)


def small_bmm(name=None):
    return batch_gemm_chain(2, 64, 32, 32, 64, name=name)


def small_conv():
    return conv_chain(1, 8, 16, 16, 12, 10, 2, 1, 3, 1)


HW = xeon_gold_6240()


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
class TestCacheKey:
    @pytest.mark.parametrize("hw", all_presets(), ids=lambda h: h.name)
    @pytest.mark.parametrize(
        "build", [small_bmm, small_conv], ids=["bmm", "conv"]
    )
    def test_stable_across_rebuilds(self, hw, build):
        assert cache_key(build(), hw) == cache_key(build(), hw)

    def test_distinct_across_presets(self):
        chain = small_bmm()
        keys = {cache_key(chain, hw) for hw in all_presets()}
        assert len(keys) == len(all_presets())

    def test_distinct_across_chain_families(self):
        assert cache_key(small_bmm(), HW) != cache_key(small_conv(), HW)

    def test_distinct_across_shapes(self):
        a = batch_gemm_chain(2, 64, 32, 32, 64)
        b = batch_gemm_chain(2, 128, 32, 32, 64)
        assert cache_key(a, HW) != cache_key(b, HW)

    def test_config_and_force_fusion_in_key(self):
        chain = small_bmm()
        base = cache_key(chain, HW)
        assert cache_key(chain, HW, ChimeraConfig(alpha=4)) != base
        assert cache_key(chain, HW, force_fusion=True) != base

    def test_default_config_aliases_none(self):
        """Regression: ``config=None`` and an explicit default config are
        the same request and must hash to the same key (the alias used to
        split one compile across two cache entries)."""
        chain = small_bmm()
        assert cache_key(chain, HW, None) == cache_key(
            chain, HW, ChimeraConfig()
        )

    def test_non_default_config_still_distinct(self):
        chain = small_bmm()
        assert cache_key(chain, HW, ChimeraConfig()) != cache_key(
            chain, HW, ChimeraConfig(top_candidates=32)
        )

    def test_canonical_request_is_json_stable(self):
        chain = small_bmm()
        a = json.dumps(canonical_request(chain, HW), sort_keys=True)
        b = json.dumps(canonical_request(small_bmm(), HW), sort_keys=True)
        assert a == b

    def test_survives_serialization_round_trip(self):
        from repro.runtime.serialization import (
            chain_from_dict,
            chain_to_dict,
            hardware_from_dict,
            hardware_to_dict,
        )

        chain = small_bmm()
        rebuilt_chain = chain_from_dict(chain_to_dict(chain))
        rebuilt_hw = hardware_from_dict(hardware_to_dict(HW))
        assert cache_key(chain, HW) == cache_key(rebuilt_chain, rebuilt_hw)


# ----------------------------------------------------------------------
# the plan cache
# ----------------------------------------------------------------------
def make_entry(key, chain="c", hardware="h"):
    from repro.runtime.serialization import FORMAT_VERSION

    return {
        "format_version": FORMAT_VERSION,
        "key": key,
        "chain": chain,
        "hardware": hardware,
        "use_fusion": True,
        "fused_plan": {"stub": True},
        "unfused_plans": [],
    }


class TestPlanCache:
    def test_memory_round_trip(self):
        cache = PlanCache()
        cache.put("k1", make_entry("k1"))
        assert cache.get("k1")["key"] == "k1"
        assert cache.get("missing") is None

    def test_lru_eviction(self):
        metrics = ServiceMetrics()
        cache = PlanCache(capacity=2, metrics=metrics)
        for key in ("a", "b", "c"):
            cache.put(key, make_entry(key))
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("c") is not None
        assert metrics.get("evictions") == 1

    def test_lru_touch_on_get(self):
        cache = PlanCache(capacity=2)
        cache.put("a", make_entry("a"))
        cache.put("b", make_entry("b"))
        cache.get("a")  # refresh
        cache.put("c", make_entry("c"))
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_disk_persistence(self, tmp_path):
        PlanCache(cache_dir=tmp_path).put("k1", make_entry("k1"))
        again = PlanCache(cache_dir=tmp_path)
        entry, tier = again.get_with_tier("k1")
        assert entry["key"] == "k1" and tier == SOURCE_DISK
        # promoted: second lookup is a memory hit
        _, tier = again.get_with_tier("k1")
        assert tier == SOURCE_MEMORY

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        cache.put("k1", make_entry("k1"))
        assert [p.name for p in tmp_path.glob("*.tmp")] == []

    def test_corrupt_file_is_a_miss_and_removed(self, tmp_path):
        metrics = ServiceMetrics()
        cache = PlanCache(cache_dir=tmp_path, metrics=metrics)
        bad = tmp_path / "deadbeef.plan.json"
        bad.write_text("{ this is not json")
        assert cache.get("deadbeef") is None
        assert not bad.exists()
        assert metrics.get("corrupt_entries") == 1

    def test_wrong_version_file_is_a_miss(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        entry = make_entry("k1")
        entry["format_version"] = 99
        (tmp_path / "k1.plan.json").write_text(json.dumps(entry))
        assert cache.get("k1") is None

    def test_missing_field_file_is_a_miss(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        entry = make_entry("k1")
        del entry["unfused_plans"]
        (tmp_path / "k1.plan.json").write_text(json.dumps(entry))
        assert cache.get("k1") is None

    def test_put_rejects_invalid_entry(self):
        with pytest.raises(ValueError, match="invalid entry"):
            PlanCache().put("k1", {"nope": True})

    def test_clear_and_keys(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        cache.put("k1", make_entry("k1"))
        cache.put("k2", make_entry("k2"))
        assert sorted(cache.keys()) == ["k1", "k2"]
        assert len(cache) == 2
        assert cache.clear() == 2
        assert cache.keys() == []
        assert cache.disk_keys() == []

    def test_delete(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        cache.put("k1", make_entry("k1"))
        cache.delete("k1")
        assert cache.get("k1") is None
        assert "k1" not in cache


# ----------------------------------------------------------------------
# warm-path equivalence
# ----------------------------------------------------------------------
class TestWarmPath:
    def test_warm_equals_cold_and_skips_optimizer(self, monkeypatch):
        service = CompileService()
        chain, hw = small_bmm(), HW
        cold = service.compile(chain, hw)

        def boom(self, chain):
            raise AssertionError("optimizer ran on the warm path")

        monkeypatch.setattr(ChimeraOptimizer, "optimize", boom)
        warm = service.compile(chain, hw)
        assert warm.fused == cold.fused
        assert warm.predicted_time == pytest.approx(cold.predicted_time)
        for cold_kernel, warm_kernel in zip(cold.kernels, warm.kernels):
            for a, b in zip(cold_kernel.plan.levels, warm_kernel.plan.levels):
                assert a.order == b.order
                assert dict(a.tiles) == dict(b.tiles)

    def test_warm_across_service_instances(self, tmp_path, monkeypatch):
        chain, hw = small_bmm(), HW
        cold = CompileService(cache_dir=tmp_path).compile(chain, hw)

        def boom(self, chain):
            raise AssertionError("optimizer ran on the disk-warm path")

        monkeypatch.setattr(ChimeraOptimizer, "optimize", boom)
        warm_service = CompileService(cache_dir=tmp_path)
        warm = warm_service.compile(chain, hw)
        assert warm.predicted_time == pytest.approx(cold.predicted_time)
        assert warm_service.stats()["hits_disk"] == 1

    def test_via_compile_chain_service_kwarg(self):
        service = CompileService()
        chain, hw = small_bmm(), HW
        cold = repro.compile_chain(chain, hw, service=service)
        warm = repro.compile_chain(chain, hw, service=service)
        assert warm.predicted_time == pytest.approx(cold.predicted_time)
        stats = service.stats()
        assert stats["hits_memory"] == 1 and stats["misses"] == 1

    def test_force_fusion_respected_and_keyed_separately(self):
        service = CompileService()
        chain, hw = small_bmm(), HW
        fused = service.compile(chain, hw, force_fusion=True)
        unfused = service.compile(chain, hw, force_fusion=False)
        assert fused.fused and not unfused.fused
        assert len(unfused.kernels) == len(chain.ops)
        assert service.stats()["misses"] == 2

    def test_warm_kernels_execute(self):
        service = CompileService()
        chain, hw = small_bmm(), HW
        service.compile(chain, hw)
        warm = service.compile(chain, hw)
        inputs = repro.random_inputs(chain, seed=1)
        outputs = warm.kernels[0](inputs)
        reference = repro.execute_reference(chain, inputs)
        import numpy as np

        np.testing.assert_allclose(
            outputs["E"], reference["E"], rtol=1e-9, atol=1e-11
        )


# ----------------------------------------------------------------------
# failure handling: retry, fallback, isolation
# ----------------------------------------------------------------------
def fail_fused_optimize(monkeypatch, failures):
    """Make whole-chain (multi-op) optimizer runs raise; single ops pass."""
    original = ChimeraOptimizer.optimize

    def flaky(self, chain, **kwargs):
        if len(chain.ops) > 1:
            failures.append(chain.name)
            raise RuntimeError("injected optimizer failure")
        return original(self, chain, **kwargs)

    monkeypatch.setattr(ChimeraOptimizer, "optimize", flaky)


class TestFailureHandling:
    def test_fallback_to_unfused(self, monkeypatch):
        failures = []
        fail_fused_optimize(monkeypatch, failures)
        service = CompileService()
        chain = small_bmm()
        served = service.serve(CompileRequest(chain, HW))
        assert served.ok and served.source == SOURCE_FALLBACK
        assert not served.result.fused
        assert len(served.result.kernels) == len(chain.ops)
        stats = service.stats()
        assert stats["fallbacks"] == 1
        assert stats["retries"] == 1  # retried once before degrading
        assert stats["failures"] == 2
        assert len(failures) == 2

    def test_fallback_not_cached(self, monkeypatch):
        failures = []
        fail_fused_optimize(monkeypatch, failures)
        service = CompileService()
        chain = small_bmm()
        service.serve(CompileRequest(chain, HW))
        assert service.cache.keys() == []
        # A second request re-attempts the real compile (and degrades again).
        served = service.serve(CompileRequest(chain, HW))
        assert served.source == SOURCE_FALLBACK

    def test_fallback_disabled_reports_error(self, monkeypatch):
        fail_fused_optimize(monkeypatch, [])
        service = CompileService(fallback=False)
        served = service.serve(CompileRequest(small_bmm(), HW))
        assert not served.ok
        assert "injected optimizer failure" in served.error
        with pytest.raises(CompilationFailure, match="injected"):
            service.compile(small_bmm(), HW)

    def test_retries_zero(self, monkeypatch):
        failures = []
        fail_fused_optimize(monkeypatch, failures)
        service = CompileService(retries=0)
        service.serve(CompileRequest(small_bmm(), HW))
        assert service.stats()["retries"] == 0
        assert len(failures) == 1


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_identical_requests_compile_once(self, monkeypatch):
        from repro.runtime import pipeline

        original = pipeline.compile_chain
        compiles = []

        def slow_compile(chain, hardware, config=None, **kwargs):
            compiles.append(chain.name)
            time.sleep(0.05)  # widen the race window
            return original(chain, hardware, config, **kwargs)

        monkeypatch.setattr(
            "repro.service.service.pipeline.compile_chain", slow_compile
        )
        service = CompileService()
        chain = small_bmm()
        results = []

        def worker():
            results.append(service.serve(CompileRequest(chain, HW)))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(compiles) == 1
        assert all(served.ok for served in results)
        sources = [served.source for served in results]
        assert sources.count(SOURCE_COMPILED) == 1
        # The rest coalesced onto the leader (or, if a thread was scheduled
        # late, hit the already-populated memory tier — either way no
        # duplicate optimizer run).
        assert all(
            source in (SOURCE_COALESCED, SOURCE_MEMORY, SOURCE_COMPILED)
            for source in sources
        )
        stats = service.stats()
        assert stats["compiles"] == 1
        assert stats["coalesced"] + stats["hits_memory"] == 3
        times = {served.result.predicted_time for served in results}
        assert len(times) == 1

    def test_coalesced_requests_are_not_misses(self, monkeypatch):
        """Followers sharing an in-flight compile land in the ``coalesced``
        bucket — never in ``misses`` — and the counters keep the invariant
        ``requests == hits + misses + coalesced``."""
        from repro.runtime import pipeline

        original = pipeline.compile_chain
        barrier = threading.Barrier(4, timeout=10)

        def slow_compile(chain, hardware, config=None, **kwargs):
            barrier.wait()  # leader blocks until all followers queued up
            time.sleep(0.05)
            return original(chain, hardware, config, **kwargs)

        monkeypatch.setattr(
            "repro.service.service.pipeline.compile_chain", slow_compile
        )
        service = CompileService()
        chain = small_bmm()
        results = []

        def leader():
            results.append(service.serve(CompileRequest(chain, HW)))

        def follower():
            barrier.wait()
            results.append(service.serve(CompileRequest(chain, HW)))

        threads = [threading.Thread(target=leader)] + [
            threading.Thread(target=follower) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = service.stats()
        assert stats["requests"] == 4
        assert stats["misses"] == 1  # only the leader missed
        assert stats["coalesced"] == 3
        assert (
            stats["requests"]
            == stats["hits"] + stats["misses"] + stats["coalesced"]
        )
        assert all(served.ok for served in results)

    def test_corrupt_memory_entry_counts_one_request_one_miss(self):
        """Recovering from a corrupt cached entry must not double-count the
        request or leave a phantom hit behind."""
        service = CompileService()
        chain = small_bmm()
        request = CompileRequest(chain, HW)
        service.serve(request)  # cold compile populates the cache
        # Corrupt the cached entry in a way PlanCache's shape validation
        # accepts but plan decoding rejects.
        entry, _ = service.cache.get_with_tier(request.key)
        broken = dict(entry)
        broken["fused_plan"] = {"not": "a plan"}
        service.cache.put(request.key, broken)
        service.metrics.reset()

        served = service.serve(request)
        assert served.ok
        assert served.source == SOURCE_COMPILED
        stats = service.stats()
        assert stats["requests"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 0  # the bogus hit was retracted
        assert stats["corrupt_entries"] == 1
        assert (
            stats["requests"]
            == stats["hits"] + stats["misses"] + stats["coalesced"]
        )

    def test_coalesced_error_propagates(self, monkeypatch):
        def always_boom(chain, hardware, config=None, **kwargs):
            time.sleep(0.05)
            raise RuntimeError("boom")

        monkeypatch.setattr(
            "repro.service.service.pipeline.compile_chain", always_boom
        )
        service = CompileService(fallback=False, retries=0)
        chain = small_bmm()
        results = []

        def worker():
            results.append(service.serve(CompileRequest(chain, HW)))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(not served.ok for served in results)
        assert all("boom" in served.error for served in results)


# ----------------------------------------------------------------------
# batch compilation
# ----------------------------------------------------------------------
class TestBatch:
    def distinct_chains(self, n):
        return [
            batch_gemm_chain(1, 32 + 8 * i, 16, 16, 32, name=f"batch_c{i}")
            for i in range(n)
        ]

    def test_eight_chains_with_injected_failure(self, monkeypatch):
        """One failing request degrades to fallback; the batch survives."""
        original = ChimeraOptimizer.optimize

        def flaky(self, chain, **kwargs):
            if chain.name == "batch_c3":
                raise RuntimeError("injected failure for batch_c3")
            return original(self, chain, **kwargs)

        monkeypatch.setattr(ChimeraOptimizer, "optimize", flaky)
        service = CompileService()
        chains = self.distinct_chains(8)
        report = service.compile_batch(
            [(chain, HW) for chain in chains], max_workers=4
        )
        assert len(report.items) == 8
        assert report.succeeded and report.failed == 0
        by_name = {item.chain: item for item in report.items}
        assert by_name["batch_c3"].status == "fallback"
        assert not by_name["batch_c3"].served.result.fused
        others = [i for i in report.items if i.chain != "batch_c3"]
        assert all(item.status == "ok" for item in others)
        stats = service.stats()
        assert stats["misses"] == 8
        assert stats["compiles"] == 7
        assert stats["fallbacks"] == 1
        assert stats["failures"] == 2  # first try + one retry on batch_c3
        assert stats["hits"] == 0

    def test_warm_batch_is_all_hits(self):
        service = CompileService()
        requests = [(chain, HW) for chain in self.distinct_chains(4)]
        service.compile_batch(requests, max_workers=2)
        report = service.compile_batch(requests, max_workers=2)
        assert {item.source for item in report.items} == {SOURCE_MEMORY}
        assert service.stats()["hits_memory"] == 4

    def test_duplicate_requests_share_one_compile(self):
        service = CompileService()
        chain = small_bmm()
        report = service.compile_batch([(chain, HW)] * 4, max_workers=4)
        assert report.succeeded
        assert service.stats()["compiles"] == 1

    def test_per_request_timeout(self, monkeypatch):
        from repro.runtime import pipeline

        original = pipeline.compile_chain

        def slow_compile(chain, hardware, config=None, **kwargs):
            if chain.name == "batch_c1":
                time.sleep(1.0)
            return original(chain, hardware, config, **kwargs)

        monkeypatch.setattr(
            "repro.service.service.pipeline.compile_chain", slow_compile
        )
        service = CompileService()
        chains = self.distinct_chains(2)
        report = service.compile_batch(
            [(chain, HW) for chain in chains],
            max_workers=2,
            timeout=0.6,
        )
        by_name = {item.chain: item for item in report.items}
        assert by_name["batch_c0"].status == "ok"
        assert by_name["batch_c1"].status == "timeout"
        assert not report.succeeded
        assert service.stats()["timeouts"] == 1

    def test_empty_batch(self):
        report = CompileService().compile_batch([])
        assert report.items == () and report.succeeded

    def test_report_table_renders(self):
        service = CompileService()
        report = service.compile_batch([(small_bmm(), HW)])
        table = report.table()
        assert "status" in table and "1 requests" in table

    def test_module_level_compile_batch(self):
        service = CompileService()
        report = compile_batch(service, [(small_bmm(), HW)], max_workers=1)
        assert report.succeeded

    def test_all_hit_batch_creates_no_thread(self, monkeypatch):
        service = CompileService()
        requests = [(chain, HW) for chain in self.distinct_chains(3)]
        service.compile_batch(requests, max_workers=2)

        def no_pool(*args, **kwargs):
            raise AssertionError("an all-hit batch built a thread pool")

        monkeypatch.setattr(
            "repro.service.batch.concurrent.futures.ThreadPoolExecutor",
            no_pool,
        )
        report = service.compile_batch(requests, max_workers=2)
        assert report.succeeded
        assert [item.source for item in report.items] == [SOURCE_MEMORY] * 3

    def test_mixed_batch_keeps_order_sources_and_accounting(self):
        service = CompileService()
        c0, c1, c2, c3 = self.distinct_chains(4)
        service.compile_batch([(c0, HW), (c1, HW)], max_workers=1)
        service.metrics.reset()
        batch = [c2, c0, c2, c1, c3]
        # One worker runs the misses in order, so the duplicate of c2
        # finds the entry its first copy stored.
        report = service.compile_batch(
            [(chain, HW) for chain in batch], max_workers=1
        )
        assert [item.index for item in report.items] == list(range(5))
        assert [item.chain for item in report.items] == [
            chain.name for chain in batch
        ]
        assert [item.source for item in report.items] == [
            SOURCE_COMPILED, SOURCE_MEMORY, SOURCE_MEMORY, SOURCE_MEMORY,
            SOURCE_COMPILED,
        ]
        assert [item.key for item in report.items] == [
            cache_key(chain, HW) for chain in batch
        ]
        stats = service.stats()
        assert stats["requests"] == 5
        assert stats["misses"] == 2 and stats["compiles"] == 2
        assert (
            stats["requests"]
            == stats["hits_memory"] + stats["hits_disk"]
            + stats["misses"] + stats["coalesced"]
        )

    def test_corrupt_hit_in_batch_is_evicted_and_recompiled_once(self):
        service = CompileService()
        c0, c1 = self.distinct_chains(2)
        service.compile_batch([(c0, HW), (c1, HW)], max_workers=1)
        key = cache_key(c0, HW)
        broken = dict(service.cache.get(key))
        broken["fused_plan"] = {"not": "a plan"}
        service.cache.put(key, broken)
        service.metrics.reset()

        report = service.compile_batch([(c0, HW), (c1, HW)], max_workers=1)
        assert report.succeeded
        assert [item.source for item in report.items] == [
            SOURCE_COMPILED, SOURCE_MEMORY,
        ]
        stats = service.stats()
        assert stats["requests"] == 2
        assert stats["hits"] == 1  # c1 only: the bogus hit was retracted
        assert stats["misses"] == 1 and stats["compiles"] == 1
        assert stats["corrupt_entries"] == 1
        assert (
            stats["requests"]
            == stats["hits"] + stats["misses"] + stats["coalesced"]
        )
        # The recompiled entry replaced the corrupt one.
        again = service.compile_batch([(c0, HW)], max_workers=1)
        assert again.items[0].source == SOURCE_MEMORY
        assert service.stats()["corrupt_entries"] == 1

    def test_hit_seconds_are_its_own_service_time(self, monkeypatch):
        from repro.service.service import decode_plan_entry

        service = CompileService()
        chains = self.distinct_chains(3)
        requests = [(chain, HW) for chain in chains]
        service.compile_batch(requests, max_workers=1)
        pause = 0.2

        def slow_first(entry, hardware):
            if entry["chain"] == chains[0].name:
                time.sleep(pause)
            return decode_plan_entry(entry, hardware)

        monkeypatch.setattr(
            CompileService, "_decode_entry", staticmethod(slow_first)
        )
        report = service.compile_batch(requests, max_workers=1)
        first, *rest = report.items
        assert first.seconds >= pause
        # Served after the slow hit, but not charged for it.
        assert all(item.seconds < pause for item in rest)
        assert sum(item.seconds for item in report.items) <= (
            report.wall_seconds
        )

    def test_concurrent_batches_keep_the_accounting(self):
        service = CompileService()
        warm = self.distinct_chains(2)
        service.compile_batch([(chain, HW) for chain in warm], max_workers=1)
        cold = [
            batch_gemm_chain(1, 96 + 8 * i, 16, 16, 32, name=f"cold{i}")
            for i in range(2)
        ]
        service.metrics.reset()
        requests = [(chain, HW) for chain in warm + cold]
        reports = []

        def run():
            reports.append(service.compile_batch(requests, max_workers=2))

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(reports) == 4 and all(r.succeeded for r in reports)
        stats = service.stats()
        assert stats["requests"] == 16
        assert stats["compiles"] == 2  # one per cold key, across batches
        assert (
            stats["requests"]
            == stats["hits"] + stats["misses"] + stats["coalesced"]
        )

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        from repro.service.batch import _default_workers

        monkeypatch.setattr("os.cpu_count", lambda: 64)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert _default_workers(8) == 1
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        assert _default_workers(8) == 8
        assert _default_workers(100) == 64


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_percentiles(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 90) == 90.0
        assert percentile(samples, 99) == 99.0
        assert percentile([], 50) == 0.0

    def test_snapshot_shape(self):
        metrics = ServiceMetrics()
        metrics.count("hits_memory")
        metrics.count("misses")
        metrics.observe_compile(0.5)
        snap = metrics.snapshot()
        assert snap["hits"] == 1 and snap["hit_rate"] == 0.5
        assert snap["compile_latency"]["count"] == 1
        assert snap["compile_latency"]["p99"] == 0.5

    def test_stats_include_cache_occupancy(self, tmp_path):
        service = CompileService(cache_dir=tmp_path, memory_capacity=16)
        service.compile(small_bmm(), HW)
        cache_stats = service.stats()["cache"]
        assert cache_stats["memory_entries"] == 1
        assert cache_stats["disk_entries"] == 1
        assert cache_stats["disk_bytes"] > 0
        assert cache_stats["memory_capacity"] == 16
        assert cache_stats["cache_dir"] == str(tmp_path)

    def test_latency_percentiles_from_service(self):
        service = CompileService()
        for i in range(3):
            service.compile(small_bmm(name=f"lat_{i}"), HW)
        latency = service.stats()["compile_latency"]
        assert latency["count"] == 3
        assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]

    def test_stats_include_search_counters(self):
        from repro.core.search import reset_search_stats

        reset_search_stats()
        service = CompileService()
        service.compile(small_bmm(name="search_stats_probe"), HW)
        search = service.stats()["search"]
        assert search["searches"] > 0
        assert search["orders_enumerated"] > 0
        assert search["solves"] + search["memo_hits"] > 0
        assert "memo" in search

    def test_configurable_window_caps_samples(self):
        metrics = ServiceMetrics(window=4)
        for i in range(10):
            metrics.observe("probe", float(i))
        summary = metrics.snapshot()["latencies"]["probe"]
        assert summary["count"] == 4
        # only the newest window of samples survives
        assert summary["p50"] >= 6.0
        with pytest.raises(ValueError):
            ServiceMetrics(window=0)

    def test_snapshot_reports_window_and_p95(self):
        metrics = ServiceMetrics(window=2048)
        metrics.observe_compile(1.0)
        snap = metrics.snapshot()
        assert snap["latency_window"] == 2048
        assert "p95" in snap["compile_latency"]

    def test_named_latency_series(self):
        metrics = ServiceMetrics()
        metrics.observe("serve_warm", 0.001)
        metrics.observe("serve_cold", 1.0)
        latencies = metrics.snapshot()["latencies"]
        assert latencies["serve_warm"]["count"] == 1
        assert latencies["serve_cold"]["p99"] == 1.0

    def test_restore_reloads_counters(self):
        metrics = ServiceMetrics()
        metrics.count("requests")
        metrics.count("hits_memory")
        saved = metrics.snapshot()

        fresh = ServiceMetrics()
        fresh.restore(saved)
        snap = fresh.snapshot()
        assert snap["requests"] == 1
        assert snap["hits_memory"] == 1
        assert snap["hits"] == 1  # derived, recomputed not restored


# ----------------------------------------------------------------------
# serve_raw: the remote-serving hot path
# ----------------------------------------------------------------------
class TestServeRaw:
    def test_raw_entry_round_trips_through_decode(self):
        from repro.service import decode_plan_entry

        service = CompileService()
        chain = small_bmm()
        cold = service.serve_raw(CompileRequest(chain, HW))
        assert cold.ok and cold.source == SOURCE_COMPILED
        warm = service.serve_raw(CompileRequest(chain, HW))
        assert warm.from_cache and warm.source == SOURCE_MEMORY
        result = decode_plan_entry(warm.entry, HW)
        direct = service.compile(chain, HW)
        assert result.fused == direct.fused
        assert result.predicted_time == pytest.approx(direct.predicted_time)

    def test_warm_raw_skips_kernel_lowering(self, monkeypatch):
        service = CompileService()
        chain = small_bmm()
        service.serve_raw(CompileRequest(chain, HW))

        def boom(entry, hardware):
            raise AssertionError("decode ran on the raw warm path")

        monkeypatch.setattr(
            type(service), "_decode_entry", staticmethod(boom)
        )
        warm = service.serve_raw(CompileRequest(chain, HW))
        assert warm.from_cache

    def test_serve_and_serve_raw_share_inflight_table(self):
        service = CompileService()
        chain = small_bmm()
        release = threading.Event()
        original = service._compile_with_recovery

        def slow(request, key):
            release.wait(timeout=30)
            return original(request, key)

        service._compile_with_recovery = slow
        results = {}

        def raw_leader():
            results["raw"] = service.serve_raw(CompileRequest(chain, HW))

        leader = threading.Thread(target=raw_leader)
        leader.start()
        time.sleep(0.05)
        follower = threading.Thread(
            target=lambda: results.update(
                decoded=service.serve(CompileRequest(chain, HW))
            )
        )
        follower.start()
        time.sleep(0.05)
        release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)
        assert results["raw"].ok and results["decoded"].ok
        snap = service.metrics.snapshot()
        assert snap["coalesced"] == 1
        assert snap["compiles"] == 1
        assert snap["requests"] == (
            snap["hits"] + snap["misses"] + snap["coalesced"]
        )

    def test_failed_raw_compile_reports_error(self):
        service = CompileService(retries=0, fallback=False)

        def fail(request, key):
            return None, SOURCE_FALLBACK, "RuntimeError: injected", "cold"

        service._compile_with_recovery = fail
        served = service.serve_raw(CompileRequest(small_bmm(), HW))
        assert not served.ok
        assert "injected" in served.error


# ----------------------------------------------------------------------
# shape index + warm-started near misses
# ----------------------------------------------------------------------
class TestWarmStartService:
    def base_chain(self):
        return batch_gemm_chain(2, 64, 32, 32, 64, name="warm_base")

    def near_chain(self):
        return batch_gemm_chain(2, 72, 32, 40, 64, name="warm_near")

    def test_near_miss_is_labeled_and_counted(self):
        from repro.service import WARM_COLD, WARM_EXACT, WARM_NEAR

        service = CompileService()
        cold = service.serve(CompileRequest(self.base_chain(), HW))
        assert cold.warm_start == WARM_COLD
        near = service.serve(CompileRequest(self.near_chain(), HW))
        assert near.source == SOURCE_COMPILED
        assert near.warm_start == WARM_NEAR
        exact = service.serve(CompileRequest(self.near_chain(), HW))
        assert exact.source == SOURCE_MEMORY
        assert exact.warm_start == WARM_EXACT
        stats = service.stats()
        assert stats["warm_near"] == 1
        assert stats["shape_index"]["entries"] == 2
        assert stats["shape_index"]["structures"] == 1

    def test_index_persists_across_service_restart(self, tmp_path):
        from repro.service import WARM_NEAR

        first = CompileService(cache_dir=tmp_path)
        first.serve(CompileRequest(self.base_chain(), HW))
        assert (tmp_path / "shape-index.jsonl").exists()

        second = CompileService(cache_dir=tmp_path)
        assert len(second.shape_index) == 1
        near = second.serve(CompileRequest(self.near_chain(), HW))
        assert near.warm_start == WARM_NEAR

    def test_near_plan_matches_cold_plan(self):
        warm = CompileService()
        warm.serve(CompileRequest(self.base_chain(), HW))
        near = warm.serve(CompileRequest(self.near_chain(), HW))
        cold = CompileService().serve(CompileRequest(self.near_chain(), HW))

        def canonical(served):
            from repro.runtime.serialization import plan_to_dict

            decision = served.result.decision
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

        assert canonical(near) == canonical(cold)

    def test_full_clear_drops_index(self, tmp_path):
        service = CompileService(cache_dir=tmp_path)
        service.serve(CompileRequest(self.base_chain(), HW))
        assert len(service.shape_index) == 1
        service.clear_cache()
        assert len(service.shape_index) == 0
        assert not (tmp_path / "shape-index.jsonl").exists()
        # Memory-only clears keep the index: disk entries still back it.
        service.serve(CompileRequest(self.base_chain(), HW))
        service.clear_cache(memory_only=True)
        assert len(service.shape_index) == 1

    def test_raw_path_reports_warm_labels(self):
        from repro.service import WARM_EXACT, WARM_NEAR

        service = CompileService()
        service.serve_raw(CompileRequest(self.base_chain(), HW))
        near = service.serve_raw(CompileRequest(self.near_chain(), HW))
        assert near.warm_start == WARM_NEAR
        exact = service.serve_raw(CompileRequest(self.near_chain(), HW))
        assert exact.warm_start == WARM_EXACT

    def test_different_structure_never_hints(self):
        from repro.service import WARM_COLD

        service = CompileService()
        service.serve(CompileRequest(self.base_chain(), HW))
        other = service.serve(CompileRequest(small_conv(), HW))
        assert other.warm_start == WARM_COLD
