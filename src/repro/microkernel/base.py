"""Replaceable micro kernels (Section V-A).

A *replaceable micro kernel* is a high-level description of the computation
block's inner loop nest — for all the paper's workloads, a small matrix
multiplication ``C[tm, tn] += A[tm, tk] * B[tk, tn]``.  Hardware-specific
implementations (AVX-512 assembly, Tensor-Core WMMA tiling, cube-unit
``mad`` pragmas) register themselves under the same abstraction; during code
generation Chimera lowers the replaceable kernel to the implementation
registered for the target backend.

The lowered kernel carries everything the rest of the system needs:

* ``tile_m/n/k`` — the native tile, which becomes tile *quanta* and minimum
  tile sizes for the inter-block solver;
* ``arithmetic_intensity`` — compute instructions per load/store
  instruction, the quantity each backend generator maximizes;
* ``efficiency`` — the fraction of peak the kernel sustains on aligned
  tiles, used by the roofline timing model; misaligned block tiles pay a
  padding penalty via :meth:`LoweredMicroKernel.efficiency_for_tiles`;
* ``source`` — the generated low-level code (assembly / intrinsics /
  pragma DSL), for inspection and tests.

A lowering depends only on the hardware, the dtype and the extent hints,
so :meth:`ReplaceableMicroKernel.lower` builds each kernel once per
process and serves repeats from a bounded memo.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Mapping, Tuple

from ..hardware.spec import HardwareSpec
from ..ir.dtypes import DType, FP16
from ..ir.operator import OperatorSpec
from ..memo import LRUMemo

#: Lowered kernels one replaceable kernel keeps.  A kernel's ``source`` is
#: at most about 10 KB (AVX-512 on a narrow N), so a full memo stays near
#: 1 MB.
LOWER_MEMO_CAPACITY = 128


@dataclasses.dataclass(frozen=True)
class MicroKernelSpec:
    """The backend-independent description of the inner computation.

    Attributes:
        name: registry key (e.g. ``"matmul"``).
        description: the naive loop nest this kernel abstracts.
    """

    name: str
    description: str


@dataclasses.dataclass(frozen=True)
class LoweredMicroKernel:
    """A hardware-specific micro kernel implementation.

    Attributes:
        name: implementation name, e.g. ``"avx512-outer-product"``.
        backend: ``"cpu" | "gpu" | "npu"``.
        tile_m, tile_n, tile_k: native tile the kernel computes per call.
        arithmetic_intensity: compute instructions per load/store.
        efficiency: sustained fraction of peak on aligned tiles.
        source: generated low-level code.
        params: generator parameters (MI/NI/MII/KI etc.) for diagnostics.
    """

    name: str
    backend: str
    tile_m: int
    tile_n: int
    tile_k: int
    arithmetic_intensity: float
    efficiency: float
    source: str
    params: Mapping[str, int] = dataclasses.field(default_factory=dict)
    granule_m: int = 1
    granule_n: int = 1
    granule_k: int = 1

    def efficiency_for_tiles(self, m: int, n: int, k: int) -> float:
        """Sustained efficiency when the block tile is ``m x n x k``.

        Blocks pad up to the hardware *granule* (a fragment/lane row, not
        the whole preferred kernel tile — the generator degrades gracefully
        below its preferred size), so utilization scales by the filled
        fraction of the last granule in each dimension.
        """
        waste = 1.0
        for size, granule in (
            (m, self.granule_m),
            (n, self.granule_n),
            (k, self.granule_k),
        ):
            if size <= 0:
                return 0.0
            padded = math.ceil(size / granule) * granule
            waste *= size / padded
        return self.efficiency * waste

    @property
    def min_tiles(self) -> Dict[str, int]:
        """Minimum block tile per matmul role (one hardware granule)."""
        return {"m": self.granule_m, "n": self.granule_n, "k": self.granule_k}

    @property
    def preferred_tiles(self) -> Dict[str, int]:
        """The tile the generator optimized AI for."""
        return {"m": self.tile_m, "n": self.tile_n, "k": self.tile_k}


KernelFactory = Callable[..., LoweredMicroKernel]
"""Signature: ``factory(hardware, dtype, **hints) -> LoweredMicroKernel``.

Recognized hints (all optional): ``m_extent``, ``n_extent``, ``k_extent`` —
the workload's matmul dimension extents, letting generators shrink their
native tiles instead of padding small problems.
"""


class ReplaceableMicroKernel:
    """One replaceable kernel with per-backend registered implementations.

    Lowered kernels are memoized per ``(hardware, dtype, hints)``: the
    factories are pure, and a warm network compile lowers the same few
    kernels for every node.  Callers share the returned (frozen) kernel.
    """

    def __init__(self, spec: MicroKernelSpec) -> None:
        self.spec = spec
        self._factories: Dict[str, KernelFactory] = {}
        self._lowered: LRUMemo[LoweredMicroKernel] = LRUMemo(
            LOWER_MEMO_CAPACITY
        )

    def register(self, backend: str, factory: KernelFactory) -> None:
        """Register (or replace) the implementation for one backend.

        Drops the memoized lowerings of that backend, so the next
        :meth:`lower` runs the new factory.
        """
        if backend not in ("cpu", "gpu", "npu"):
            raise ValueError(f"unknown backend {backend!r}")
        self._factories[backend] = factory
        self._lowered.forget(lambda key: key[0].backend == backend)

    def backends(self) -> Tuple[str, ...]:
        return tuple(sorted(self._factories))

    def lower(
        self, hardware: HardwareSpec, dtype: DType = FP16, **hints: int
    ) -> LoweredMicroKernel:
        """Select and build the implementation for ``hardware``'s backend.

        Equal ``(hardware, dtype, hints)`` return the identical object.

        Raises:
            KeyError: if no implementation is registered for the backend.
        """
        try:
            factory = self._factories[hardware.backend]
        except KeyError:
            raise KeyError(
                f"micro kernel {self.spec.name!r} has no implementation for "
                f"backend {hardware.backend!r}; registered: {self.backends()}"
            ) from None
        key = (hardware, dtype, tuple(sorted(hints.items())))
        return self._lowered.get_or_compute(
            key, lambda: factory(hardware, dtype, **hints)
        )


_REGISTRY: Dict[str, ReplaceableMicroKernel] = {}


def register_micro_kernel(spec: MicroKernelSpec) -> ReplaceableMicroKernel:
    """Create (or fetch) the replaceable kernel for ``spec.name``."""
    kernel = _REGISTRY.get(spec.name)
    if kernel is None:
        kernel = ReplaceableMicroKernel(spec)
        _REGISTRY[spec.name] = kernel
    return kernel


def get_micro_kernel(name: str) -> ReplaceableMicroKernel:
    """Look up a replaceable kernel by name.

    Raises:
        KeyError: with the available names when absent.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no replaceable micro kernel {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def matmul_loop_roles(op: OperatorSpec) -> Dict[str, str]:
    """Map the matmul micro kernel's (m, n, k) onto an operator's loops.

    GEMM-family operators use their last two output dimensions as (m, n)
    and the largest reduction as k.  Convolutions lower to implicit GEMM:
    ``m`` is the innermost output spatial dim, ``n`` the output channel,
    ``k`` the input channel.

    Returns:
        role -> loop name; roles whose loop is degenerate are omitted.
    """
    roles: Dict[str, str] = {}
    if op.tag in ("gemm", "batch_gemm"):
        out_dims = op.output.dims
        roles["m"] = out_dims[-2].loops[0]
        roles["n"] = out_dims[-1].loops[0]
        reductions = [(op.loop(n).extent, n) for n in op.reduction_loop_names]
        if reductions:
            roles["k"] = max(reductions)[1]
    elif op.tag == "conv2d":
        out_dims = op.output.dims
        roles["m"] = out_dims[-1].loops[0]
        roles["n"] = out_dims[1].loops[0]
        reductions = [(op.loop(n).extent, n) for n in op.reduction_loop_names]
        if reductions:
            roles["k"] = max(reductions)[1]
    return roles
