"""Tests for end-of-kernel flush semantics (dead intermediates)."""

import pytest

from repro.codegen.program import lower_schedule
from repro.core.optimizer import ChimeraOptimizer
from repro.hardware import xeon_gold_6240
from repro.hardware.spec import HardwareSpec, MemoryLevel
from repro.ir.chains import batch_gemm_chain
from repro.sim import (
    MemoryHierarchySim,
    RegionCache,
    SimConfig,
    simulate_plan,
    simulate_sequence,
)


class TestCacheDiscard:
    def test_discarded_dirty_entries_do_not_write_back(self):
        cache = RegionCache("L1", 1024)
        cache.access(("C", (0, 8)), 100, write=True)
        cache.access(("E", (0, 8)), 100, write=True)
        cache.flush(lambda key: key[0] == "C")
        assert cache.stats.writeback_bytes == 100  # only E

    def test_no_discard_by_default(self):
        cache = RegionCache("L1", 1024)
        cache.access("x", 100, write=True)
        cache.flush()
        assert cache.stats.writeback_bytes == 100


class TestHierarchyDiscard:
    def _hw(self):
        return HardwareSpec(
            name="t", backend="cpu", peak_flops=1e12, num_cores=1,
            levels=(
                MemoryLevel("L1", 4096, 1e9),
                MemoryLevel("DRAM", None, 1e9),
            ),
        )

    def test_discard_tensor_names(self):
        sim = MemoryHierarchySim(self._hw())
        sim.write(("C", (0, 4)), 100)
        sim.write(("E", (0, 4)), 100)
        sim.flush(frozenset({"C"}))
        assert sim.caches[0].stats.writeback_bytes == 100


class TestFusedIntermediateIsDead:
    def test_fused_dram_traffic_excludes_intermediate(self):
        """With full shared capacity the fused kernel's DRAM traffic is
        exactly the compulsory IO bytes — the intermediate never leaves
        the chip (the paper's core claim)."""
        hw = xeon_gold_6240()
        chain = batch_gemm_chain(8, 512, 64, 64, 512)
        plan = ChimeraOptimizer(hw).optimize(chain)
        report = simulate_plan(
            plan, config=SimConfig(shared_capacity_per_core=False)
        )
        assert report.dram_traffic == pytest.approx(
            chain.io_bytes(), rel=0.05
        )

    def test_unfused_sequence_pays_for_intermediate(self):
        hw = xeon_gold_6240()
        chain = batch_gemm_chain(8, 512, 64, 64, 512)
        from repro.core.fusion import plan_unfused

        plans = plan_unfused(chain, hw)
        report = simulate_sequence(
            plans, name="unfused",
            config=SimConfig(shared_capacity_per_core=False),
        )
        # C (4MB) is a real tensor between the two kernels: it must at
        # least write back once even with a huge warm L3.
        c_bytes = chain.tensors["C"].nbytes
        assert report.dram_traffic >= chain.io_bytes() + c_bytes * 0.9
