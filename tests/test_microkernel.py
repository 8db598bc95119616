"""Tests for the replaceable micro kernel subsystem."""

import pytest

from repro import microkernel
from repro.hardware import a100, ascend_910, xeon_gold_6240
from repro.hardware.spec import VectorUnit
from repro.ir.chains import batch_gemm_chain, conv_chain
from repro.ir.dtypes import FP16, FP32
from repro.microkernel.base import (
    LOWER_MEMO_CAPACITY,
    MicroKernelSpec,
    ReplaceableMicroKernel,
    get_micro_kernel,
    matmul_loop_roles,
)
from repro.microkernel.cpu import arithmetic_intensity, search_parameters
from repro.microkernel.gpu import fragment_reuse_ai
from repro.microkernel.npu import cube_ai


class TestCpuKernel:
    def test_paper_cascadelake_parameters(self):
        # 32 ZMM registers + pipeline depth 24 -> MI=6, NI=4, MII=2.
        unit = VectorUnit(num_registers=32, register_bits=512,
                          fma_pipeline_depth=24)
        assert search_parameters(unit) == (6, 4, 2)

    def test_register_budget_respected(self):
        unit = VectorUnit(16, 512, 8)
        mi, ni, mii = search_parameters(unit)
        assert mi * ni + ni + mii <= 16

    def test_ai_formula(self):
        # AI = MI*NI*KI / (KI*(MI+NI) + 2*MI*NI)
        assert arithmetic_intensity(6, 4, 64) == pytest.approx(
            6 * 4 * 64 / (64 * 10 + 2 * 24)
        )

    def test_narrow_n_workload_caps_ni(self):
        unit = VectorUnit(32, 512, 24)
        mi, ni, _ = search_parameters(unit, max_ni=2)
        assert ni <= 2
        assert mi * ni >= 24

    def test_infeasible_raises(self):
        unit = VectorUnit(num_registers=4, register_bits=512,
                          fma_pipeline_depth=24)
        with pytest.raises(ValueError):
            search_parameters(unit)

    def test_lowered_kernel_source_has_fma_schedule(self):
        kernel = microkernel.build_cpu_micro_kernel(xeon_gold_6240())
        assert "vfmadd231ph" in kernel.source
        assert "vpbroadcastw" in kernel.source
        assert len(kernel.source.splitlines()) > 100  # ~140 asm lines

    def test_lanes_depend_on_dtype(self):
        k16 = microkernel.build_cpu_micro_kernel(xeon_gold_6240(), FP16)
        k32 = microkernel.build_cpu_micro_kernel(xeon_gold_6240(), FP32)
        assert k16.params["lanes"] == 32
        assert k32.params["lanes"] == 16


class TestGpuKernel:
    def test_2x2_fragment_reuse_doubles_ai(self):
        assert fragment_reuse_ai(1, 1) == pytest.approx(0.5)
        assert fragment_reuse_ai(2, 2) == pytest.approx(1.0)

    def test_lowered_kernel(self):
        kernel = microkernel.build_gpu_micro_kernel(a100())
        assert kernel.tile_m == 32 and kernel.tile_n == 32
        assert "mma_sync" in kernel.source
        assert kernel.source.count("mma_sync") == 4  # 2x2 grid

    def test_small_extent_shrinks_grid(self):
        kernel = microkernel.build_gpu_micro_kernel(a100(), n_extent=16)
        assert kernel.params["tiles_n"] == 1

    def test_requires_matrix_unit(self):
        with pytest.raises(ValueError):
            microkernel.build_gpu_micro_kernel(xeon_gold_6240())


class TestNpuKernel:
    def test_cube_ai_formula(self):
        assert cube_ai(4, 16, 4, 16) == pytest.approx(
            (64 * 64) / (64 + 64)
        )

    def test_lanes_pinned_to_cube(self):
        kernel = microkernel.build_npu_micro_kernel(ascend_910())
        assert kernel.params["M2"] == 16 and kernel.params["N2"] == 16
        assert "mad" in kernel.source

    def test_extent_hints_cap_fractal_grid(self):
        kernel = microkernel.build_npu_micro_kernel(
            ascend_910(), m_extent=64, n_extent=64
        )
        assert kernel.tile_m <= 64 and kernel.tile_n <= 64


class TestRegistry:
    def test_lower_matmul_dispatches_by_backend(self):
        assert microkernel.lower_matmul(xeon_gold_6240()).backend == "cpu"
        assert microkernel.lower_matmul(a100()).backend == "gpu"
        assert microkernel.lower_matmul(ascend_910()).backend == "npu"

    def test_unregistered_backend_raises(self):
        kernel = ReplaceableMicroKernel(MicroKernelSpec("empty", ""))
        with pytest.raises(KeyError, match="empty"):
            kernel.lower(xeon_gold_6240())

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError, match="matmul"):
            get_micro_kernel("conv-winograd")

    def test_register_rejects_bad_backend(self):
        kernel = ReplaceableMicroKernel(MicroKernelSpec("x", ""))
        with pytest.raises(ValueError):
            kernel.register("fpga", lambda hw, dt: None)


class TestLoweringMemo:
    def test_equal_requests_return_the_identical_kernel(self):
        first = microkernel.lower_matmul(
            xeon_gold_6240(), FP16, m_extent=64, n_extent=48
        )
        # An equal (not identical) spec, hints in another order.
        again = microkernel.lower_matmul(
            xeon_gold_6240(), FP16, n_extent=48, m_extent=64
        )
        assert again is first
        for other in (
            microkernel.lower_matmul(a100(), FP16, m_extent=64, n_extent=48),
            microkernel.lower_matmul(
                xeon_gold_6240(), FP32, m_extent=64, n_extent=48
            ),
            microkernel.lower_matmul(
                xeon_gold_6240(), FP16, m_extent=64, n_extent=32
            ),
            microkernel.lower_matmul(xeon_gold_6240(), FP16, m_extent=64),
        ):
            assert other is not first

    def test_chains_with_equal_hints_share_a_kernel(self):
        first = microkernel.lower_for_chain(
            a100(), batch_gemm_chain(2, 64, 32, 32, 64, name="one")
        )
        second = microkernel.lower_for_chain(
            a100(), batch_gemm_chain(2, 64, 32, 32, 64, name="two")
        )
        assert second is first

    def test_register_drops_that_backends_lowerings(self):
        kernel = ReplaceableMicroKernel(MicroKernelSpec("memo-test", ""))
        calls = []

        def factory(tag, build):
            def lower(hardware, dtype, **hints):
                calls.append(tag)
                return build(hardware, dtype, **hints)
            return lower

        cpu, gpu = (
            microkernel.build_cpu_micro_kernel,
            microkernel.build_gpu_micro_kernel,
        )
        kernel.register("cpu", factory("old", cpu))
        kernel.register("gpu", factory("gpu", gpu))
        old = kernel.lower(xeon_gold_6240())
        gpu_kernel = kernel.lower(a100())
        assert kernel.lower(xeon_gold_6240()) is old
        assert calls == ["old", "gpu"]

        kernel.register("cpu", factory("new", cpu))
        new = kernel.lower(xeon_gold_6240())
        assert new is not old and calls[-1] == "new"
        # The other backend's lowering survives.
        assert kernel.lower(a100()) is gpu_kernel
        assert calls == ["old", "gpu", "new"]

    def test_memo_stays_within_capacity(self):
        kernel = ReplaceableMicroKernel(MicroKernelSpec("memo-cap", ""))
        kernel.register("gpu", microkernel.build_gpu_micro_kernel)
        extra = 5
        for m in range(LOWER_MEMO_CAPACITY + extra):
            kernel.lower(a100(), m_extent=16 + m)
        stats = kernel._lowered.stats()
        assert stats["entries"] == LOWER_MEMO_CAPACITY
        assert stats["misses"] == LOWER_MEMO_CAPACITY + extra
        assert stats["evictions"] == extra


class TestChainIntegration:
    def test_matmul_roles_for_gemm(self):
        chain = batch_gemm_chain(2, 32, 16, 8, 24)
        roles = matmul_loop_roles(chain.op("gemm2"))
        assert roles == {"m": "m", "n": "n", "k": "l"}

    def test_matmul_roles_for_conv(self):
        chain = conv_chain(1, 8, 16, 16, 12, 10)
        roles = matmul_loop_roles(chain.op("conv2"))
        assert roles["n"] == "oc2"
        assert roles["k"] == "oc1"

    def test_chain_min_tiles_capped_by_extents(self):
        chain = batch_gemm_chain(2, 32, 16, 8, 24)
        kernel = microkernel.lower_for_chain(ascend_910(), chain)
        mins = microkernel.chain_min_tiles(chain, kernel)
        extents = chain.loop_extents()
        for name, value in mins.items():
            assert value <= extents[name]

    def test_efficiency_penalizes_misalignment(self):
        chain = batch_gemm_chain(2, 64, 64, 64, 64)
        kernel = microkernel.lower_for_chain(a100(), chain)
        aligned = microkernel.chain_efficiency(
            chain, kernel, {"b": 2, "m": 64, "n": 64, "k": 64, "l": 64}
        )
        misaligned = microkernel.chain_efficiency(
            chain, kernel, {"b": 2, "m": 17, "n": 64, "k": 64, "l": 64}
        )
        assert misaligned < aligned

    def test_quanta_follow_granules(self):
        chain = batch_gemm_chain(2, 64, 64, 64, 64)
        kernel = microkernel.lower_for_chain(a100(), chain)
        quanta = microkernel.chain_quanta(chain, kernel)
        assert quanta["m"] == 16 and quanta["n"] == 16

    def test_efficiency_for_tiles_zero_guard(self):
        kernel = microkernel.lower_matmul(a100())
        assert kernel.efficiency_for_tiles(0, 16, 16) == 0.0
