"""Tests for the memory-hierarchy simulator."""

import pytest

from repro.codegen.program import lower_schedule
from repro.core.fusion import decide_fusion
from repro.hardware import xeon_gold_6240
from repro.hardware.spec import HardwareSpec, MemoryLevel
from repro.ir.chains import batch_gemm_chain, gemm_chain
from repro.sim import (
    MemoryHierarchySim,
    RegionCache,
    SimConfig,
    materialize_trace,
    movement_times,
    roofline_time,
    simulate_plan,
    simulate_program,
    simulate_sequence,
)


class TestRegionCache:
    def test_hit_after_fill(self):
        cache = RegionCache("L1", 1024)
        assert not cache.access("a", 100)
        assert cache.access("a", 100)
        assert cache.stats.read_hits == 1
        assert cache.stats.read_misses == 1
        assert cache.stats.fill_bytes == 100

    def test_lru_eviction_order(self):
        cache = RegionCache("L1", 250)
        cache.access("a", 100)
        cache.access("b", 100)
        cache.access("a", 100)  # refresh a
        cache.access("c", 100)  # evicts b (LRU)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_write_allocate_without_fetch(self):
        cache = RegionCache("L1", 1024)
        cache.access("a", 100, write=True)
        assert cache.stats.fill_bytes == 0
        assert cache.stats.write_misses == 1

    def test_dirty_eviction_writes_back(self):
        spills = []
        cache = RegionCache(
            "L1", 150, on_evict=lambda k, n, d: spills.append((k, n, d))
        )
        cache.access("a", 100, write=True)
        cache.access("b", 100)  # evicts dirty a
        assert spills == [("a", 100, True)]
        assert cache.stats.writeback_bytes == 100

    def test_oversized_region_streams(self):
        cache = RegionCache("L1", 64)
        assert not cache.access("huge", 1000)
        assert "huge" not in cache

    def test_flush_drains_dirty(self):
        cache = RegionCache("L1", 1024)
        cache.access("a", 100, write=True)
        cache.access("b", 100)
        cache.flush()
        assert cache.used_bytes == 0
        assert cache.stats.writeback_bytes == 100

    def test_hit_rate(self):
        cache = RegionCache("L1", 1024)
        cache.access("a", 10)
        cache.access("a", 10)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            RegionCache("L1", 0)


class TestHierarchy:
    def _tiny_hw(self):
        return HardwareSpec(
            name="tiny",
            backend="cpu",
            peak_flops=1e12,
            num_cores=1,
            levels=(
                MemoryLevel("L1", 256, 4e9),
                MemoryLevel("L2", 1024, 2e9),
                MemoryLevel("DRAM", None, 1e9),
            ),
        )

    def test_read_fills_all_missing_levels(self):
        sim = MemoryHierarchySim(self._tiny_hw())
        sim.read("a", 100)
        traffic = sim.boundary_traffic()
        assert traffic["L1"] == 100 and traffic["L2"] == 100

    def test_l2_serves_l1_capacity_miss(self):
        sim = MemoryHierarchySim(self._tiny_hw())
        sim.read("a", 100)
        sim.read("b", 100)
        sim.read("c", 100)  # evicts a from L1 (capacity 256)
        sim.read("a", 100)  # L1 miss, L2 hit
        traffic = sim.boundary_traffic()
        assert traffic["L1"] == 400
        assert traffic["L2"] == 300  # a fetched from DRAM only once

    def test_writeback_chains_outward(self):
        sim = MemoryHierarchySim(self._tiny_hw())
        sim.write("w", 100)
        sim.read("a", 100)
        sim.read("b", 100)  # w evicted dirty into L2
        sim.flush()
        # w eventually reaches DRAM: counted at L2's boundary.
        assert sim.boundary_traffic()["L2"] >= 100

    def test_shared_capacity_per_core(self):
        hw = xeon_gold_6240()
        per_core = MemoryHierarchySim(hw, SimConfig(True))
        full = MemoryHierarchySim(hw, SimConfig(False))
        l3_per_core = next(c for c in per_core.caches if c.name == "L3")
        l3_full = next(c for c in full.caches if c.name == "L3")
        assert l3_per_core.capacity < l3_full.capacity


class TestTrace:
    def test_trace_covers_all_io_tensors(self):
        chain = gemm_chain(16, 16, 16, 16)
        program = lower_schedule(
            chain, ("m", "l", "k", "n"), {"m": 8, "l": 8, "k": 8, "n": 8}
        )
        tensors = {a.tensor for a in materialize_trace(program)}
        assert tensors == {"A", "B", "C", "D", "E"}

    def test_writes_flagged(self):
        chain = gemm_chain(16, 16, 16, 16)
        program = lower_schedule(
            chain, ("m", "l", "k", "n"), {"m": 8, "l": 8, "k": 8, "n": 8}
        )
        writes = {a.tensor for a in materialize_trace(program) if a.write}
        assert writes == {"C", "E"}

    def test_region_bytes_positive(self):
        chain = gemm_chain(10, 10, 10, 10)
        program = lower_schedule(
            chain, ("m", "l", "k", "n"), {"m": 4, "l": 4, "k": 4, "n": 4}
        )
        assert all(a.nbytes > 0 for a in materialize_trace(program))


class TestProfiler:
    def test_fused_beats_unfused_on_memory_bound_chain(self):
        hw = xeon_gold_6240()
        chain = batch_gemm_chain(8, 512, 64, 64, 512)
        decision = decide_fusion(chain, hw)
        fused = simulate_plan(decision.fused_plan)
        unfused = simulate_sequence(decision.unfused_plans, name="unfused")
        assert fused.time < unfused.time
        assert fused.dram_traffic < unfused.dram_traffic

    def test_report_fields(self):
        hw = xeon_gold_6240()
        chain = gemm_chain(64, 64, 64, 64)
        from repro.core.optimizer import ChimeraOptimizer

        plan = ChimeraOptimizer(hw).optimize(chain)
        report = simulate_plan(plan)
        assert report.blocks > 0
        assert report.launches == 1
        assert set(report.boundary_traffic) == {"L1", "L2", "L3"}
        assert report.time > 0
        assert "L3" in report.describe()

    def test_launch_overhead_factor(self):
        hw = xeon_gold_6240()
        chain = gemm_chain(64, 64, 64, 64)
        from repro.core.optimizer import ChimeraOptimizer

        plan = ChimeraOptimizer(hw).optimize(chain)
        cheap = simulate_sequence([plan], name="x", launch_overhead_factor=1.0)
        costly = simulate_sequence([plan], name="y", launch_overhead_factor=10.0)
        assert costly.time > cheap.time

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            simulate_sequence([], name="empty")


class TestTiming:
    def test_roofline_max_of_compute_and_movement(self):
        hw = xeon_gold_6240()
        traffic = {"L1": 0.0, "L2": 0.0, "L3": 131e9}  # 1 second of DRAM
        t = roofline_time(hw, flops=1.0, efficiency=1.0,
                          boundary_traffic=traffic, launches=0)
        assert t == pytest.approx(1.0)

    def test_movement_times_use_boundary_bandwidth(self):
        hw = xeon_gold_6240()
        times = movement_times(hw, {"L1": 1e9, "L2": 0.0, "L3": 131e9})
        assert times["L3"] == pytest.approx(1.0)
        assert times["L1"] == pytest.approx(1e9 / hw.level("L2").bandwidth)
