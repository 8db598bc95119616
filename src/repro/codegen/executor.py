"""Numerical execution of block programs.

Two interpreters prove a fusion plan computes the right answer:

* :func:`execute_program` executes one numpy kernel per computation block —
  the faithful analogue of the generated fused kernel, including
  partial-reduction accumulation, sliding-window recomputation (halo'd
  producers run their reductions privately per spatial block, like the
  per-block scratch of a real fused kernel), and the paper's softmax trick
  (the row sum is accumulated on the fly and the division is swapped past
  the second GEMM, Section VI-B).  It replays the program's
  :class:`~repro.codegen.schedule.CompiledSchedule`: block slices are
  precomputed tables, per-block dispatch is a prebuilt closure per
  operator, and batch GEMM blocks go through BLAS-backed ``matmul``;
* :func:`execute_reference` runs the chain operator-by-operator with plain
  whole-tensor numpy calls — the oracle.

Tests assert the two agree for every chain family and for randomly chosen
orders/tiles (the dependency-preservation property the paper claims).

Convention: convolutions use trailing zero padding — the output grid is
``OH = H // stride`` and windows may read up to ``(OH-1)*stride + k - 1``,
past the declared input; arrays are padded with zeros on the high side.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..ir.chain import OperatorChain
from ..ir.operator import OperatorSpec
from .program import BlockProgram, Ranges

Arrays = Dict[str, np.ndarray]


def virtual_shapes(chain: OperatorChain) -> Dict[str, Tuple[int, ...]]:
    """Padded working shape per tensor (covers every access, see module doc)."""
    extents = chain.loop_extents()
    shapes: Dict[str, Tuple[int, ...]] = {
        name: tuple(spec.shape) for name, spec in chain.tensors.items()
    }
    for op in chain.ops:
        for access in op.all_accesses():
            current = list(shapes[access.tensor])
            for axis, dim in enumerate(access.dims):
                needed = dim.extent(extents)
                current[axis] = max(current[axis], needed)
            shapes[access.tensor] = tuple(current)
    return shapes


def _allocate(chain: OperatorChain, inputs: Mapping[str, np.ndarray]) -> Arrays:
    """Zeroed working arrays with the chain inputs copied in.

    Only chain inputs may be given: a value for an intermediate or an
    output would pre-seed a buffer the kernels accumulate into.
    """
    expected = set(chain.input_tensors())
    unknown = sorted(set(inputs) - expected)
    if unknown:
        raise ValueError(
            f"not chain inputs: {unknown} (the chain inputs are "
            f"{sorted(expected)})"
        )
    missing = sorted(expected - set(inputs))
    if missing:
        raise ValueError(f"missing chain inputs: {missing}")
    shapes = virtual_shapes(chain)
    arrays: Arrays = {}
    for name, spec in chain.tensors.items():
        array = np.zeros(shapes[name], dtype=np.float64)
        if name in inputs:
            given = np.asarray(inputs[name], dtype=np.float64)
            if given.shape != spec.shape:
                raise ValueError(
                    f"input {name!r} has shape {given.shape}, "
                    f"expected {spec.shape}"
                )
            array[tuple(slice(0, s) for s in spec.shape)] = given
        arrays[name] = array
    return arrays


def _has_halo_output(op: OperatorSpec) -> bool:
    """Whether the op's output regions can overlap across blocks."""
    return any(
        len(dim.terms) > 1 or any(coeff > 1 for _, coeff in dim.terms)
        for dim in op.output.dims
    )


def _prepare_state(
    chain: OperatorChain, arrays: Arrays
) -> Tuple[Dict[str, np.ndarray], Dict[str, bool]]:
    """Row-reduction accumulators and halo-output flags.

    ``row_sums[op]`` holds a per-row ``(rows...)`` exp-sum for softmax
    operators, and a ``(2, rows...)`` sum / sum-of-squares pair for
    layer_norm operators (accumulated across blocks, consumed by the
    deferred normalization at kernel end).
    """
    row_sums: Dict[str, np.ndarray] = {}
    halo_ops: Dict[str, bool] = {}
    for op in chain.ops:
        out_shape = arrays[op.output.tensor].shape
        if op.tag == "softmax":
            row_sums[op.name] = np.zeros(out_shape[:-1], dtype=np.float64)
        elif op.tag == "layer_norm":
            row_sums[op.name] = np.zeros(
                (2,) + out_shape[:-1], dtype=np.float64
            )
        halo_ops[op.name] = _has_halo_output(op)
        if halo_ops[op.name] and op.tag in ("softmax", "layer_norm"):
            raise NotImplementedError(
                f"{op.tag} with overlapping (halo) output regions would "
                "double-count row accumulators"
            )
    return row_sums, halo_ops


def _crop_outputs(chain: OperatorChain, arrays: Arrays) -> Arrays:
    outputs: Arrays = {}
    for name in chain.output_tensors():
        spec = chain.tensors[name]
        outputs[name] = arrays[name][tuple(slice(0, s) for s in spec.shape)]
    return outputs


def execute_program(
    program: BlockProgram, inputs: Mapping[str, np.ndarray]
) -> Arrays:
    """Run a block program numerically by replaying its compiled schedule.

    Args:
        program: the lowered block schedule.
        inputs: exactly the chain's input tensors.

    Returns:
        the chain's output tensors, cropped to their declared shapes.

    Raises:
        NotImplementedError: for operators without a block executor, or for
            softmax chains whose deferred division cannot be placed (the
            softmax consumer's output must be a chain output).
        ValueError: for missing inputs, names that are not chain inputs,
            or inputs of the wrong shape.
    """
    from .schedule import compile_schedule

    chain = program.chain
    schedule = compile_schedule(program)
    arrays = _allocate(chain, inputs)
    row_sums, halo_ops = _prepare_state(chain, arrays)

    # Halo'd producers run their reductions privately per spatial block
    # (the per-block scratch of a real fused kernel); re-executions of the
    # same spatial block under split reduction loops are skipped.  The same
    # mask also absorbs repeat visits at a coarser hierarchy level.
    runners = []
    skips: List[Optional[List[bool]]] = []
    for table in schedule.tables:
        op = table.op
        halo = halo_ops[op.name]
        if op.tag in ("gemm", "batch_gemm"):
            runner = _build_gemm_runner(schedule, table, arrays, halo)
        elif op.tag in ("conv2d", "depthwise_conv2d"):
            runner = _build_conv_runner(schedule, table, arrays, halo)
        else:
            runner = _build_elementwise_runner(
                schedule, table, arrays, row_sums
            )
        runners.append(runner)
        skips.append(_halo_skip_mask(table) if halo else None)

    for index, row in zip(
        schedule.block_table.tolist(), schedule.block_row.tolist()
    ):
        skip = skips[index]
        if skip is not None and skip[row]:
            continue
        runners[index](row)

    _apply_deferred_softmax_division(chain, arrays, row_sums)
    _apply_deferred_layer_norm(chain, arrays, row_sums)
    return _crop_outputs(chain, arrays)


def _effective_ranges(table, halo: bool) -> np.ndarray:
    """The table's iteration ranges, reductions widened for halo'd ops.

    A halo'd producer runs its reduction privately per spatial block, so
    each of its blocks iterates every reduction loop over the full extent.
    """
    if not halo:
        return table.ranges
    ranges = table.ranges.copy()
    index = table.loop_index
    for loop in table.op.loops:
        if loop.is_reduction:
            ranges[:, index[loop.name], 0] = 0
            ranges[:, index[loop.name], 1] = loop.extent
    return ranges


def _site_slices(schedule, table, site, ranges: np.ndarray):
    """Per-block slice tuples for one access under the given ranges."""
    from .schedule import compute_regions, slices_from_regions

    if ranges is table.ranges:
        return site.slice_tuples()
    regions = compute_regions(
        site.dims, table.loop_index, ranges, schedule.shapes[site.tensor]
    )
    return slices_from_regions(regions)


def _halo_skip_mask(table) -> List[bool]:
    """True for re-executions of an already-run spatial block."""
    reductions = set(table.op.reduction_loop_names)
    spatial = [
        i for i, name in enumerate(table.loop_names) if name not in reductions
    ]
    keys = table.ranges[:, spatial, :].reshape(table.blocks, -1).tolist()
    seen: set = set()
    skip: List[bool] = []
    for row in keys:
        key = tuple(row)
        skip.append(key in seen)
        seen.add(key)
    return skip


def _build_gemm_runner(schedule, table, arrays: Arrays, halo: bool):
    op = table.op
    ranges = _effective_ranges(table, halo)
    lhs_site, rhs_site = table.read_sites()
    out_site = table.write_sites()[0]
    lhs_sl = _site_slices(schedule, table, lhs_site, ranges)
    rhs_sl = _site_slices(schedule, table, rhs_site, ranges)
    out_sl = _site_slices(schedule, table, out_site, ranges)
    lhs_arr = arrays[lhs_site.tensor]
    rhs_arr = arrays[rhs_site.tensor]
    out_arr = arrays[out_site.tensor]
    # ``matmul`` hits BLAS where ``einsum`` does not; the contraction is
    # identical (bmk,bkn->bmn / bmk,bnk->bmn), so results stay allclose.
    transpose_b = op.tag == "batch_gemm" and bool(op.attrs.get("transpose_b"))

    if halo:
        def run(row: int) -> None:
            rhs = rhs_arr[rhs_sl[row]]
            if transpose_b:
                rhs = rhs.swapaxes(-1, -2)
            out_arr[out_sl[row]] = np.matmul(lhs_arr[lhs_sl[row]], rhs)
    else:
        def run(row: int) -> None:
            rhs = rhs_arr[rhs_sl[row]]
            if transpose_b:
                rhs = rhs.swapaxes(-1, -2)
            out_arr[out_sl[row]] += np.matmul(lhs_arr[lhs_sl[row]], rhs)

    return run


def _build_conv_runner(schedule, table, arrays: Arrays, halo: bool):
    op = table.op
    depthwise = op.tag == "depthwise_conv2d"
    stride = int(op.attrs["stride"])
    ranges = _effective_ranges(table, halo)
    data_site, weight_site = table.read_sites()
    out_site = table.write_sites()[0]
    out_sl = _site_slices(schedule, table, out_site, ranges)
    data = arrays[data_site.tensor]
    weight = arrays[weight_site.tensor]
    out = arrays[out_site.tensor]
    if depthwise:
        rh_name, rw_name = op.reduction_loop_names
        ic_bounds = None
    else:
        ic_name, rh_name, rw_name = op.reduction_loop_names
        ic_bounds = (
            ((0, op.loop(ic_name).extent),) * table.blocks
            if halo
            else list(zip(*table.loop_bounds(ic_name)))
        )
    rh_bounds = (
        ((0, op.loop(rh_name).extent),) * table.blocks
        if halo
        else list(zip(*table.loop_bounds(rh_name)))
    )
    rw_bounds = (
        ((0, op.loop(rw_name).extent),) * table.blocks
        if halo
        else list(zip(*table.loop_bounds(rw_name)))
    )

    def run(row: int) -> None:
        n_sl, c_sl, y_sl, x_sl = out_sl[row]
        if y_sl.start >= y_sl.stop or x_sl.start >= x_sl.stop:
            return
        rh0, rh1 = rh_bounds[row]
        rw0, rw1 = rw_bounds[row]
        acc = np.zeros(
            (
                n_sl.stop - n_sl.start,
                c_sl.stop - c_sl.start,
                y_sl.stop - y_sl.start,
                x_sl.stop - x_sl.start,
            ),
            dtype=np.float64,
        )
        if depthwise:
            for kh in range(rh0, rh1):
                for kw in range(rw0, rw1):
                    patch = data[
                        n_sl,
                        c_sl,
                        y_sl.start * stride + kh
                        : (y_sl.stop - 1) * stride + kh + 1 : stride,
                        x_sl.start * stride + kw
                        : (x_sl.stop - 1) * stride + kw + 1 : stride,
                    ]
                    acc += patch * weight[c_sl, kh, kw][None, :, None, None]
        else:
            ic0, ic1 = ic_bounds[row]
            for kh in range(rh0, rh1):
                for kw in range(rw0, rw1):
                    patch = data[
                        n_sl,
                        ic0:ic1,
                        y_sl.start * stride + kh
                        : (y_sl.stop - 1) * stride + kh + 1 : stride,
                        x_sl.start * stride + kw
                        : (x_sl.stop - 1) * stride + kw + 1 : stride,
                    ]
                    w = weight[c_sl, ic0:ic1, kh, kw]
                    acc += np.einsum("nchw,oc->nohw", patch, w)
        if halo:
            # Every block recomputes its full region into private scratch;
            # overlapping assignments are idempotent.
            out[n_sl, c_sl, y_sl, x_sl] = acc
        else:
            out[n_sl, c_sl, y_sl, x_sl] += acc

    return run


def _build_elementwise_runner(
    schedule, table, arrays: Arrays, row_sums: Dict[str, np.ndarray]
):
    op = table.op
    src_site = table.read_sites()[0]
    out_site = table.write_sites()[0]
    src_sl = src_site.slice_tuples()
    out_sl = out_site.slice_tuples()
    src_arr = arrays[src_site.tensor]
    out_arr = arrays[out_site.tensor]

    if op.tag == "relu":
        def run(row: int) -> None:
            out_arr[out_sl[row]] = np.maximum(src_arr[src_sl[row]], 0.0)
    elif op.tag == "bias_add":
        def run(row: int) -> None:
            out_arr[out_sl[row]] = src_arr[src_sl[row]] + 1.0
    elif op.tag == "gelu":
        def run(row: int) -> None:
            src = src_arr[src_sl[row]]
            out_arr[out_sl[row]] = (
                0.5
                * src
                * (1.0 + np.tanh(0.7978845608 * (src + 0.044715 * src**3)))
            )
    elif op.tag == "softmax":
        # The fused softmax: exponentiate in place, accumulate the row sum,
        # and defer the division (it is swapped past the consumer GEMM).
        sums = row_sums[op.name]
        sum_sl = [sl[:-1] for sl in out_sl]

        def run(row: int) -> None:
            exp = np.exp(src_arr[src_sl[row]])
            out_arr[out_sl[row]] = exp
            sums[sum_sl[row]] += exp.sum(axis=-1)
    elif op.tag == "layer_norm":
        # The fused layer norm: copy the raw values and accumulate per-row
        # sum and sum of squares; normalization is deferred to kernel end
        # (see _apply_deferred_layer_norm), when every block of the row has
        # been accumulated.
        acc = row_sums[op.name]
        sum_sl = [sl[:-1] for sl in out_sl]

        def run(row: int) -> None:
            src = src_arr[src_sl[row]]
            out_arr[out_sl[row]] = src
            acc[0][sum_sl[row]] += src.sum(axis=-1)
            acc[1][sum_sl[row]] += (src * src).sum(axis=-1)
    else:
        raise NotImplementedError(
            f"no block executor for memory-intensive op {op.tag!r}"
        )
    return run


def _apply_deferred_softmax_division(
    chain: OperatorChain,
    arrays: Arrays,
    row_sums: Mapping[str, np.ndarray],
) -> None:
    for op in chain.ops:
        if op.tag != "softmax":
            continue
        softmax_out = op.output.tensor
        consumers = chain.consumers_of(softmax_out)
        if not consumers:
            # Standalone softmax: divide its own output.
            arrays[softmax_out] /= np.maximum(
                row_sums[op.name][..., None], 1e-300
            )
            continue
        if len(consumers) != 1:
            raise NotImplementedError(
                "softmax with multiple consumers is not supported"
            )
        consumer = consumers[0]
        target = consumer.output.tensor
        if target not in chain.output_tensors():
            raise NotImplementedError(
                "deferred softmax division needs the consumer's output to "
                "be a chain output"
            )
        if consumer.tag not in ("gemm", "batch_gemm"):
            raise NotImplementedError(
                "deferred softmax division can only swap past a linear "
                f"(gemm/batch_gemm) consumer, not {consumer.tag!r}"
            )
        # Broadcast the row sums onto the consumer output: match loop names
        # of the sum's dims (the softmax output dims minus the reduced one)
        # against the consumer output dims.
        sum_loops = [dim.loops[0] for dim in op.output.dims[:-1]]
        target_dims = consumer.access_of(target).dims
        index = []
        for dim in target_dims:
            loops = dim.loops
            if len(loops) == 1 and loops[0] in sum_loops:
                index.append(slice(None))
            else:
                index.append(None)
        sums = row_sums[op.name]
        arrays[target] /= np.maximum(sums[tuple(index)], 1e-300)


def _apply_deferred_layer_norm(
    chain: OperatorChain,
    arrays: Arrays,
    row_sums: Mapping[str, np.ndarray],
) -> None:
    """Finalize stitched layer_norm ops from their deferred accumulators.

    The block runners wrote the raw source values and accumulated per-row
    sum / sum-of-squares; once every block has run, mean and variance are
    exact and the normalization is applied in one vector pass.  A
    layer_norm stitched mid-chain would hand un-normalized values to its
    consumers, so it must be the chain's last reader of its output.
    """
    for op in chain.ops:
        if op.tag != "layer_norm":
            continue
        out_name = op.output.tensor
        if chain.consumers_of(out_name):
            raise NotImplementedError(
                "deferred layer_norm needs its output to be a chain "
                "output with no in-chain consumers"
            )
        n = chain.tensors[out_name].shape[-1]
        acc = row_sums[op.name]
        mean = acc[0] / n
        var = np.maximum(acc[1] / n - mean * mean, 0.0)
        arrays[out_name] = (arrays[out_name] - mean[..., None]) / np.sqrt(
            var[..., None] + 1e-5
        )


def execute_plan(plan, inputs: Mapping[str, np.ndarray]) -> Arrays:
    """Execute a fusion plan through its full tiling hierarchy."""
    from .program import lower_plan

    program = lower_plan(plan)
    return execute_program(program, inputs)


# ----------------------------------------------------------------------
# whole-operator reference
# ----------------------------------------------------------------------
def _full_slices(
    op: OperatorSpec, tensor: str, shape: Tuple[int, ...]
) -> Tuple[slice, ...]:
    """The region of ``tensor`` the op's whole iteration space touches."""
    ranges: Ranges = {loop.name: (0, loop.extent) for loop in op.loops}
    region = op.access_of(tensor).region_from_ranges(ranges, shape)
    return tuple(slice(lo, hi) for lo, hi in region)


def _gemm_reference(op: OperatorSpec, arrays: Arrays) -> None:
    lhs_a, rhs_a = op.reads
    lhs = arrays[lhs_a.tensor]
    rhs = arrays[rhs_a.tensor]
    out = arrays[op.output.tensor]
    lhs = lhs[_full_slices(op, lhs_a.tensor, lhs.shape)]
    rhs = rhs[_full_slices(op, rhs_a.tensor, rhs.shape)]
    if op.tag == "gemm":
        update = lhs @ rhs
    elif op.attrs.get("transpose_b"):
        update = np.einsum("bmk,bnk->bmn", lhs, rhs)
    else:  # batch_gemm, row-major rhs
        update = np.einsum("bmk,bkn->bmn", lhs, rhs)
    out[_full_slices(op, op.output.tensor, out.shape)] = update


def _conv_reference(op: OperatorSpec, arrays: Arrays) -> None:
    """A (depthwise) convolution, summed one window offset at a time."""
    data_a, weight_a = op.reads
    stride = int(op.attrs["stride"])
    data = arrays[data_a.tensor]
    weight = arrays[weight_a.tensor]
    out = arrays[op.output.tensor]
    n_sl, c_sl, y_sl, x_sl = _full_slices(op, op.output.tensor, out.shape)
    if y_sl.start >= y_sl.stop or x_sl.start >= x_sl.stop:
        return
    depthwise = op.tag == "depthwise_conv2d"
    # Reduction loop identity: builders declare conv reductions in
    # ([ic,] rh, rw) order and rewriting preserves declaration order.
    *ic_name, rh_name, rw_name = op.reduction_loop_names
    channels = c_sl if depthwise else slice(0, op.loop(ic_name[0]).extent)
    acc = np.zeros(
        (
            n_sl.stop - n_sl.start,
            c_sl.stop - c_sl.start,
            y_sl.stop - y_sl.start,
            x_sl.stop - x_sl.start,
        ),
        dtype=np.float64,
    )
    for kh in range(op.loop(rh_name).extent):
        for kw in range(op.loop(rw_name).extent):
            patch = data[
                n_sl,
                channels,
                y_sl.start * stride + kh : (y_sl.stop - 1) * stride + kh + 1 : stride,
                x_sl.start * stride + kw : (x_sl.stop - 1) * stride + kw + 1 : stride,
            ]
            if depthwise:
                acc += patch * weight[c_sl, kh, kw][None, :, None, None]
            else:
                w = weight[c_sl, channels, kh, kw]
                acc += np.einsum("nchw,oc->nohw", patch, w)
    out[n_sl, c_sl, y_sl, x_sl] = acc


def execute_reference(
    chain: OperatorChain, inputs: Mapping[str, np.ndarray]
) -> Arrays:
    """Run the chain operator-by-operator with whole-tensor numpy calls."""
    arrays = _allocate(chain, inputs)
    for op in chain.ops:
        if op.tag in ("gemm", "batch_gemm"):
            _gemm_reference(op, arrays)
        elif op.tag in ("conv2d", "depthwise_conv2d"):
            _conv_reference(op, arrays)
        elif op.tag == "softmax":
            src = arrays[op.reads[0].tensor]
            exp = np.exp(src)
            arrays[op.output.tensor] = exp / exp.sum(axis=-1, keepdims=True)
        elif op.tag == "relu":
            arrays[op.output.tensor] = np.maximum(
                arrays[op.reads[0].tensor], 0.0
            )
        elif op.tag == "bias_add":
            arrays[op.output.tensor] = arrays[op.reads[0].tensor] + 1.0
        elif op.tag == "gelu":
            src = arrays[op.reads[0].tensor]
            arrays[op.output.tensor] = 0.5 * src * (
                1.0 + np.tanh(0.7978845608 * (src + 0.044715 * src**3))
            )
        elif op.tag == "layer_norm":
            src = arrays[op.reads[0].tensor]
            mean = src.mean(axis=-1, keepdims=True)
            var = src.var(axis=-1, keepdims=True)
            arrays[op.output.tensor] = (src - mean) / np.sqrt(var + 1e-5)
        else:
            raise NotImplementedError(f"no reference for {op.tag!r}")
    return _crop_outputs(chain, arrays)


def random_inputs(
    chain: OperatorChain, seed: int = 0
) -> Dict[str, np.ndarray]:
    """Deterministic random inputs for every chain input tensor."""
    rng = np.random.default_rng(seed)
    inputs: Dict[str, np.ndarray] = {}
    for name in chain.input_tensors():
        spec = chain.tensors[name]
        inputs[name] = rng.standard_normal(spec.shape) * 0.1
    return inputs
