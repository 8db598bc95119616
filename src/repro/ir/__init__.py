"""Tensor-expression IR: the substrate Chimera's analysis operates on.

Public surface:

* :mod:`repro.ir.dtypes` — element types.
* :mod:`repro.ir.loops` — :class:`Loop`, :class:`LoopKind`.
* :mod:`repro.ir.access` — affine accesses and tile footprints.
* :mod:`repro.ir.tensor` — :class:`TensorSpec`.
* :mod:`repro.ir.operator` — :class:`OperatorSpec`.
* :mod:`repro.ir.chain` — :class:`OperatorChain`.
* :mod:`repro.ir.builders` — GEMM / conv / softmax / relu constructors.
* :mod:`repro.ir.chains` — fused chain constructors (Figure 1 workloads).
* :mod:`repro.ir.graph` — whole-network compute DAGs.
* :mod:`repro.ir.stitch` — folding memory-intensive glue into CI chains.
"""

from .access import AffineExpr, TensorAccess
from .chain import OperatorChain, single_op_chain
from .chains import (
    attention_chain,
    batch_gemm_chain,
    conv_chain,
    conv_tower,
    fuse_sequence,
    gemm_chain,
    mlp_chain,
    rename_chain_loops,
    separable_chain,
)
from .dtypes import DType, FP16, FP32, FP64, INT8, INT32, dtype
from .graph import (
    STITCHABLE_TAGS,
    ComputeDAG,
    GraphBuilder,
    GraphNode,
    GraphPartition,
    StitchedChain,
    StitchedOp,
    is_fusable,
    partition_graph,
)
from .loops import Loop, LoopKind
from .operator import OperatorKind, OperatorSpec
from .stitch import StitchError, rename_chain_tensors, stitch_nodes
from .tensor import TensorSpec

__all__ = [
    "AffineExpr",
    "TensorAccess",
    "OperatorChain",
    "single_op_chain",
    "attention_chain",
    "batch_gemm_chain",
    "conv_chain",
    "conv_tower",
    "fuse_sequence",
    "gemm_chain",
    "mlp_chain",
    "rename_chain_loops",
    "separable_chain",
    "DType",
    "FP16",
    "FP32",
    "FP64",
    "INT8",
    "INT32",
    "dtype",
    "ComputeDAG",
    "GraphBuilder",
    "GraphNode",
    "GraphPartition",
    "STITCHABLE_TAGS",
    "StitchedChain",
    "StitchedOp",
    "StitchError",
    "is_fusable",
    "partition_graph",
    "rename_chain_tensors",
    "stitch_nodes",
    "Loop",
    "LoopKind",
    "OperatorKind",
    "OperatorSpec",
    "TensorSpec",
]
