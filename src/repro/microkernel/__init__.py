"""Replaceable micro kernels and their backend implementations.

Importing this package registers the three backend implementations of the
``matmul`` replaceable micro kernel (AVX-512, Tensor Core WMMA, cube-unit
mad), mirroring Figure 4 of the paper.

Each kernel is lowered once per process: :func:`lower_matmul` and
:func:`lower_for_chain` return the identical frozen kernel for equal
hardware, dtype and extent hints, from the bounded memo of
:meth:`ReplaceableMicroKernel.lower`.
"""

from typing import Dict, Optional

from ..hardware.spec import HardwareSpec
from ..ir.chain import OperatorChain
from ..ir.dtypes import DType, FP16
from .base import (
    LoweredMicroKernel,
    MicroKernelSpec,
    ReplaceableMicroKernel,
    get_micro_kernel,
    matmul_loop_roles,
    register_micro_kernel,
)
from . import cpu as _cpu  # noqa: F401  (registers the CPU implementation)
from . import gpu as _gpu  # noqa: F401  (registers the GPU implementation)
from . import npu as _npu  # noqa: F401  (registers the NPU implementation)
from .cpu import build_cpu_micro_kernel, search_parameters
from .gpu import build_gpu_micro_kernel, fragment_reuse_ai
from .npu import build_npu_micro_kernel, cube_ai


def lower_matmul(
    hardware: HardwareSpec, dtype: DType = FP16, **hints: int
) -> LoweredMicroKernel:
    """Lower the matmul replaceable kernel for ``hardware``'s backend.

    Memoized per ``(hardware, dtype, hints)``; see
    :meth:`ReplaceableMicroKernel.lower`.
    """
    return get_micro_kernel("matmul").lower(hardware, dtype, **hints)


def lower_for_chain(
    hardware: HardwareSpec, chain: OperatorChain, dtype: Optional[DType] = None
) -> LoweredMicroKernel:
    """Lower the matmul kernel with extents hinted from ``chain``.

    The hint extents are the smallest (m, n, k) any compute-intensive
    operator in the chain presents, so the generated kernel never pads
    against the chain's tightest dimension.  Chains with equal hints share
    one memoized kernel; only the hint derivation runs per call.
    """
    hints: Dict[str, int] = {}
    extents = chain.loop_extents()
    for op in chain.compute_intensive_ops():
        for role, loop_name in matmul_loop_roles(op).items():
            key = f"{role}_extent"
            extent = extents[loop_name]
            hints[key] = min(hints.get(key, extent), extent)
    if dtype is None:
        dtype = next(iter(chain.tensors.values())).dtype
    return lower_matmul(hardware, dtype, **hints)


def chain_min_tiles(
    chain: OperatorChain, kernel: LoweredMicroKernel
) -> Dict[str, int]:
    """Minimum block tile per chain loop imposed by the micro kernel.

    Every compute-intensive operator's (m, n, k) loops must hold at least
    one native micro-kernel tile; shared loops take the max requirement.
    """
    minimums: Dict[str, int] = {}
    extents = chain.loop_extents()
    for op in chain.compute_intensive_ops():
        roles = matmul_loop_roles(op)
        for role, loop_name in roles.items():
            need = min(kernel.min_tiles[role], extents[loop_name])
            minimums[loop_name] = max(minimums.get(loop_name, 1), need)
    return minimums


def chain_quanta(
    chain: OperatorChain, kernel: LoweredMicroKernel
) -> Dict[str, int]:
    """Tile quanta per chain loop: multiples of the hardware granule.

    Block tiles snapped to these waste no padding in the micro kernel.
    """
    quanta: Dict[str, int] = {}
    granules = {
        "m": kernel.granule_m,
        "n": kernel.granule_n,
        "k": kernel.granule_k,
    }
    for op in chain.compute_intensive_ops():
        roles = matmul_loop_roles(op)
        for role, loop_name in roles.items():
            quanta[loop_name] = max(quanta.get(loop_name, 1), granules[role])
    return quanta


def chain_efficiency(
    chain: OperatorChain,
    kernel: LoweredMicroKernel,
    tiles: Dict[str, int],
) -> float:
    """Sustained compute efficiency of the fused kernel.

    The slowest operator bounds the pipeline, so the chain efficiency is the
    minimum over compute-intensive operators of the micro kernel's
    efficiency at that operator's innermost (m, n, k) tile.
    """
    worst = kernel.efficiency
    for op in chain.compute_intensive_ops():
        roles = matmul_loop_roles(op)
        extents = chain.loop_extents()

        def tile_of(role: str) -> int:
            loop_name = roles.get(role)
            if loop_name is None:
                return kernel.min_tiles[role]
            return min(tiles.get(loop_name, 1), extents[loop_name])

        eff = kernel.efficiency_for_tiles(
            tile_of("m"), tile_of("n"), tile_of("k")
        )
        worst = min(worst, eff)
    return worst


__all__ = [
    "LoweredMicroKernel",
    "MicroKernelSpec",
    "ReplaceableMicroKernel",
    "get_micro_kernel",
    "matmul_loop_roles",
    "register_micro_kernel",
    "build_cpu_micro_kernel",
    "build_gpu_micro_kernel",
    "build_npu_micro_kernel",
    "search_parameters",
    "fragment_reuse_ai",
    "cube_ai",
    "lower_matmul",
    "chain_min_tiles",
    "chain_quanta",
    "chain_efficiency",
]
