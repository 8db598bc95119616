"""Numerical correctness of block program execution.

The central property: for any valid block order and tiling, the fused
block-structured execution matches the whole-operator reference.
"""

import numpy as np
import pytest

from repro.codegen.executor import (
    execute_plan,
    execute_program,
    execute_reference,
    random_inputs,
    virtual_shapes,
)
from repro.codegen.program import LevelSpec, lower_levels, lower_schedule
from repro.core.optimizer import ChimeraOptimizer
from repro.hardware import xeon_gold_6240
from repro.ir.chains import batch_gemm_chain, conv_chain, gemm_chain


def assert_matches_reference(chain, order, tiles, seed=0):
    program = lower_schedule(chain, order, tiles)
    inputs = random_inputs(chain, seed)
    got = execute_program(program, inputs)
    ref = execute_reference(chain, inputs)
    for name, expected in ref.items():
        np.testing.assert_allclose(got[name], expected, rtol=1e-9, atol=1e-11)


class TestGemmChains:
    def test_basic_order(self):
        chain = gemm_chain(32, 16, 8, 24)
        assert_matches_reference(
            chain, ("m", "l", "k", "n"), {"m": 8, "l": 8, "k": 4, "n": 8}
        )

    def test_reduction_outermost_still_correct(self):
        chain = gemm_chain(32, 16, 8, 24)
        assert_matches_reference(
            chain, ("k", "m", "n", "l"), {"m": 8, "l": 8, "k": 4, "n": 8}
        )

    def test_non_dividing_tiles(self):
        chain = gemm_chain(30, 14, 10, 22)
        assert_matches_reference(
            chain, ("m", "l", "k", "n"), {"m": 7, "l": 9, "k": 3, "n": 5}
        )

    def test_batch_chain(self):
        chain = batch_gemm_chain(3, 16, 8, 8, 16)
        assert_matches_reference(
            chain,
            ("b", "m", "l", "k", "n"),
            {"b": 2, "m": 8, "l": 8, "k": 4, "n": 4},
        )


class TestSoftmaxChains:
    def test_softmax_fusion_trick(self):
        # The deferred row-sum division must equal real softmax numerics.
        chain = batch_gemm_chain(2, 16, 8, 8, 16, with_softmax=True)
        assert_matches_reference(
            chain,
            ("b", "m", "l", "k", "n"),
            {"b": 1, "m": 4, "l": 4, "k": 4, "n": 4},
        )

    def test_softmax_with_split_l(self):
        # The row sum accumulates across l blocks.
        chain = batch_gemm_chain(1, 8, 8, 8, 32, with_softmax=True)
        assert_matches_reference(
            chain,
            ("b", "m", "l", "k", "n"),
            {"b": 1, "m": 4, "l": 8, "k": 8, "n": 8},
        )

    def test_standalone_softmax_kernel(self):
        from repro.ir import builders
        from repro.ir.chain import single_op_chain

        op, tensors = builders.softmax("s", (2, 8, 16))
        chain = single_op_chain(op, tensors)
        order = tuple(op.loop_names)
        program = lower_schedule(chain, order, {n: 4 for n in order})
        inputs = random_inputs(chain, 3)
        got = execute_program(program, inputs)
        ref = execute_reference(chain, inputs)
        np.testing.assert_allclose(got["s.Y"], ref["s.Y"], rtol=1e-9)


class TestConvChains:
    def test_pointwise_then_pointwise(self):
        chain = conv_chain(1, 8, 12, 12, 12, 10, 1, 1, 1, 1)
        order = _nondegenerate_order(chain)
        assert_matches_reference(
            chain, order, {n: 4 for n in order}
        )

    def test_strided_3x3_then_pointwise(self):
        chain = conv_chain(2, 8, 14, 14, 6, 10, 2, 1, 3, 1)
        order = _nondegenerate_order(chain)
        tiles = {n: 3 for n in order}
        assert_matches_reference(chain, order, tiles)

    def test_halo_recompute_pointwise_then_3x3(self):
        chain = conv_chain(1, 8, 16, 16, 12, 10, 1, 1, 1, 3)
        order = _nondegenerate_order(chain)
        assert_matches_reference(chain, order, {n: 4 for n in order})

    def test_relu_chain(self):
        chain = conv_chain(1, 8, 16, 16, 12, 10, 1, 1, 1, 3, with_relu=True)
        order = _nondegenerate_order(chain)
        assert_matches_reference(chain, order, {n: 4 for n in order})

    def test_double_3x3(self):
        chain = conv_chain(1, 6, 12, 12, 8, 6, 1, 1, 3, 3)
        order = _nondegenerate_order(chain)
        assert_matches_reference(chain, order, {n: 3 for n in order})


class TestHierarchicalExecution:
    def test_two_level_nesting(self):
        chain = batch_gemm_chain(2, 32, 16, 16, 32, with_softmax=True)
        levels = [
            LevelSpec(("b", "m", "l", "k", "n"),
                      {"b": 2, "m": 16, "l": 16, "k": 16, "n": 16}),
            LevelSpec(("b", "m", "l", "k", "n"),
                      {"b": 1, "m": 8, "l": 4, "k": 8, "n": 8}),
        ]
        program = lower_levels(chain, levels)
        inputs = random_inputs(chain, 9)
        got = execute_program(program, inputs)
        ref = execute_reference(chain, inputs)
        np.testing.assert_allclose(got["E"], ref["E"], rtol=1e-9)

    def test_execute_plan_full_hierarchy(self):
        chain = batch_gemm_chain(2, 32, 16, 16, 32)
        plan = ChimeraOptimizer(xeon_gold_6240()).optimize(chain)
        inputs = random_inputs(chain, 5)
        got = execute_plan(plan, inputs)
        ref = execute_reference(chain, inputs)
        np.testing.assert_allclose(got["E"], ref["E"], rtol=1e-9)


class TestInputValidation:
    def test_missing_input_raises(self):
        chain = gemm_chain(8, 8, 8, 8)
        program = lower_schedule(
            chain, ("m", "l", "k", "n"), {"m": 4, "l": 4, "k": 4, "n": 4}
        )
        with pytest.raises(ValueError, match="missing"):
            execute_program(program, {})

    def test_wrong_shape_raises(self):
        chain = gemm_chain(8, 8, 8, 8)
        program = lower_schedule(
            chain, ("m", "l", "k", "n"), {"m": 4, "l": 4, "k": 4, "n": 4}
        )
        inputs = random_inputs(chain)
        inputs["A"] = np.zeros((4, 4))
        with pytest.raises(ValueError, match="shape"):
            execute_program(program, inputs)

    def test_non_input_names_raise(self):
        # A value for an intermediate or an output would pre-seed a buffer
        # the kernels accumulate into, shifting both paths alike; an
        # unknown name would be dropped silently.
        chain = gemm_chain(16, 16, 16, 16)
        program = lower_schedule(
            chain, ("m", "l", "k", "n"), {"m": 8, "l": 8, "k": 8, "n": 8}
        )
        inputs = random_inputs(chain)
        inputs.update(C=np.ones((16, 16)), E=np.ones((16, 16)), F=np.ones(1))
        for run, target in (
            (execute_program, program), (execute_reference, chain)
        ):
            with pytest.raises(ValueError, match=r"\['C', 'E', 'F'\]"):
                run(target, inputs)

    def test_virtual_shapes_cover_halo(self):
        chain = conv_chain(1, 8, 16, 16, 12, 10, 1, 1, 3, 3)
        shapes = virtual_shapes(chain)
        # X must cover (OH-1)*1 + halo of both kernels.
        assert shapes["X"][2] >= 16
        assert shapes["Y1"][2] >= 16

    def test_random_inputs_deterministic(self):
        chain = gemm_chain(8, 8, 8, 8)
        a = random_inputs(chain, seed=7)
        b = random_inputs(chain, seed=7)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


def _nondegenerate_order(chain):
    extents = chain.loop_extents()
    return tuple(n for n in chain.independent_loops() if extents[n] > 1)
