"""Compiled block schedules: flatten a program once, replay it many times.

Every consumer of a :class:`BlockProgram` — the numpy executor, the region
tracer, the hierarchy simulators — needs each block's iteration ranges and
tensor regions.  A :class:`CompiledSchedule` derives them exactly once: the
loop tree is flattened into numpy-backed *per-operator block tables*
holding, per block,

* the half-open iteration range of every operator loop,
* the clamped element region of every tensor access (vectorized over all
  blocks of the operator at once from the affine access expressions),
* the region byte count (zero for empty edge regions),

plus the global execution order (``block_table`` / ``block_row``).  Nothing
is approximated: the tables come from the program's own traversal
(:meth:`BlockProgram.iterate_blocks`) and the same clamping rules as
:meth:`TensorAccess.region_from_ranges`, so every consumer reads the
ranges, regions and byte counts a per-block tree walk would derive — just
without recomputing them per block, per consumer, per run.

Schedules are memoized two ways: per program *instance* (repeated calls on
one object are free) and per program *content digest* in a process-global
LRU — re-lowering the same plan (``lower_plan`` builds a fresh tree each
call, e.g. once per simulated timing query in ``compile_network``) hits the
digest and replays the already-materialized tables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.access import AffineExpr
from ..ir.operator import OperatorSpec
from ..memo import LRUMemo
from .program import BlockProgram


def compute_regions(
    dims: Sequence[AffineExpr],
    loop_index: Mapping[str, int],
    ranges: np.ndarray,
    shape: Sequence[int],
) -> np.ndarray:
    """Clamped element regions of one access for every block at once.

    Vectorizes :meth:`TensorAccess.region_from_ranges` over a ``(B, L, 2)``
    iteration-range table: for a dimension ``sum coeff * loop + offset`` the
    touched span is ``[offset + sum coeff * start,
    offset + sum coeff * (stop - 1) + 1)``, clamped to the tensor shape.

    Returns:
        int64 array of shape ``(B, ndim, 2)`` of half-open element ranges.
    """
    blocks = ranges.shape[0]
    out = np.empty((blocks, len(dims), 2), dtype=np.int64)
    for axis, (dim, size) in enumerate(zip(dims, shape)):
        lo = np.full(blocks, dim.offset, dtype=np.int64)
        hi = np.full(blocks, dim.offset, dtype=np.int64)
        for name, coeff in dim.terms:
            column = ranges[:, loop_index[name], :]
            lo += coeff * column[:, 0]
            hi += coeff * (column[:, 1] - 1)
        hi += 1
        np.minimum(lo, size, out=out[:, axis, 0])
        np.minimum(hi, size, out=out[:, axis, 1])
    return out


@dataclasses.dataclass
class AccessSite:
    """Per-block data for one (operator, tensor access) pair.

    Attributes:
        tensor: accessed tensor name.
        write: True for the operator's output access.
        dims: the access's affine index expressions (one per tensor dim).
        regions: ``(B, ndim, 2)`` clamped element ranges, one row per block.
        nbytes: ``(B,)`` region sizes in bytes (0 for empty edge regions).
    """

    tensor: str
    write: bool
    dims: Tuple[AffineExpr, ...]
    regions: np.ndarray
    nbytes: np.ndarray
    _region_tuples: Optional[List[Tuple[Tuple[int, int], ...]]] = None
    _slices: Optional[List[Tuple[slice, ...]]] = None

    def region_tuples(self) -> List[Tuple[Tuple[int, int], ...]]:
        """Per-block region keys as nested tuples (cached)."""
        if self._region_tuples is None:
            self._region_tuples = [
                tuple((lo, hi) for lo, hi in row)
                for row in self.regions.tolist()
            ]
        return self._region_tuples

    def slice_tuples(self) -> List[Tuple[slice, ...]]:
        """Per-block numpy basic-index tuples (cached)."""
        if self._slices is None:
            self._slices = slices_from_regions(self.regions)
        return self._slices


def slices_from_regions(regions: np.ndarray) -> List[Tuple[slice, ...]]:
    """Turn a ``(B, ndim, 2)`` region table into per-block slice tuples."""
    return [
        tuple(slice(lo, hi) for lo, hi in row) for row in regions.tolist()
    ]


@dataclasses.dataclass
class OpBlockTable:
    """All blocks of one operator, in that operator's execution order.

    Attributes:
        op: the operator.
        loop_names: ``op.loop_names`` — the column order of ``ranges``.
        ranges: ``(B, len(loop_names), 2)`` half-open iteration ranges.
            Loops the block nest never split carry their full extent.
        sites: one :class:`AccessSite` per access, reads first then writes.
        positions: ``(B,)`` global execution positions of this op's blocks.
    """

    op: OperatorSpec
    loop_names: Tuple[str, ...]
    ranges: np.ndarray
    sites: Tuple[AccessSite, ...]
    positions: np.ndarray

    @property
    def blocks(self) -> int:
        return int(self.ranges.shape[0])

    @property
    def loop_index(self) -> Dict[str, int]:
        return {name: i for i, name in enumerate(self.loop_names)}

    def loop_bounds(self, name: str) -> Tuple[List[int], List[int]]:
        """Per-block (start, stop) lists of one loop, as plain ints."""
        column = self.ranges[:, self.loop_index[name], :]
        return column[:, 0].tolist(), column[:, 1].tolist()

    def read_sites(self) -> Tuple[AccessSite, ...]:
        return tuple(s for s in self.sites if not s.write)

    def write_sites(self) -> Tuple[AccessSite, ...]:
        return tuple(s for s in self.sites if s.write)


class CompiledSchedule:
    """A flattened block program: numpy tables plus the execution order.

    The schedule keeps the program's chain but not the program itself:
    :func:`compile_schedule` caches the schedule on the program, and a
    back-reference would make the pair (with the schedule's tables and
    cache) a reference cycle that only a cyclic GC pass frees.

    Attributes:
        chain: the source program's chain.
        shapes: virtual (padded) shape per tensor — the clamp bounds.
        tables: one :class:`OpBlockTable` per operator, in chain order.
        block_table: ``(n_blocks,)`` table index of each global block.
        block_row: ``(n_blocks,)`` row within that table.
        digest: content hash of (chain, levels) — the memoization key.
        cache: scratch space for derived artifacts (materialized traces,
            line streams); dropped with the schedule itself on LRU eviction.
    """

    def __init__(
        self,
        program: BlockProgram,
        shapes: Dict[str, Tuple[int, ...]],
        tables: Tuple[OpBlockTable, ...],
        block_table: np.ndarray,
        block_row: np.ndarray,
        digest: str,
    ) -> None:
        self.chain = program.chain
        self.shapes = shapes
        self.tables = tables
        self.block_table = block_table
        self.block_row = block_row
        self.digest = digest
        self.cache: Dict = {}

    @property
    def n_blocks(self) -> int:
        return int(self.block_table.shape[0])

    def table_for(self, op_name: str) -> OpBlockTable:
        for table in self.tables:
            if table.op.name == op_name:
                return table
        raise KeyError(f"schedule has no blocks for operator {op_name!r}")

    def describe(self) -> str:
        lines = [
            f"compiled schedule for {self.chain.name}: "
            f"{self.n_blocks} blocks, {len(self.tables)} op tables"
        ]
        for table in self.tables:
            lines.append(
                f"  {table.op.name}: {table.blocks} blocks, "
                f"{len(table.sites)} access sites"
            )
        return "\n".join(lines)


def program_digest(program: BlockProgram) -> str:
    """Stable content hash of a block program (chain IR + tiling levels).

    Two independently lowered programs of the same (chain, levels) share a
    digest, which is what lets the schedule memo collapse repeated
    ``lower_plan`` calls.
    """
    cached = program.__dict__.get("_digest")
    if cached is not None:
        return cached
    # Imported lazily: repro.runtime packages import repro.codegen at
    # module load; a top-level import here would cycle.
    from ..runtime.serialization import chain_to_dict

    payload = json.dumps(
        {
            "chain": chain_to_dict(program.chain),
            "levels": [
                {
                    "order": list(level.order),
                    "tiles": {k: level.tiles[k] for k in sorted(level.tiles)},
                }
                for level in program.levels
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    object.__setattr__(program, "_digest", digest)
    return digest


#: Process-global digest-keyed schedule memo (LRU).
_MEMO: LRUMemo[CompiledSchedule] = LRUMemo(capacity=32)


def schedule_memo_stats() -> Dict[str, int]:
    """Counters of the digest memo (observability for benches); ``misses``
    counts the schedules built."""
    return _MEMO.stats()


def clear_schedule_memo() -> None:
    """Drop all memoized schedules (cold-start benchmarking)."""
    _MEMO.clear()


def compile_schedule(program: BlockProgram) -> CompiledSchedule:
    """Flatten a block program into its compiled schedule (memoized).

    The instance cache makes repeated calls on the same program object
    free; the digest memo makes re-lowering the same (chain, levels) pair
    nearly free.
    """
    cached = program.__dict__.get("_compiled_schedule")
    if cached is not None:
        return cached
    digest = program_digest(program)
    schedule = _MEMO.get_or_compute(
        digest, lambda: _build_schedule(program, digest)
    )
    object.__setattr__(program, "_compiled_schedule", schedule)
    return schedule


def _build_schedule(program: BlockProgram, digest: str) -> CompiledSchedule:
    from .executor import virtual_shapes

    chain = program.chain
    shapes = virtual_shapes(chain)
    extents = chain.loop_extents()

    op_order = [op.name for op in chain.ops]
    op_slot = {name: i for i, name in enumerate(op_order)}
    rows: List[List[Tuple[Tuple[int, int], ...]]] = [[] for _ in op_order]
    positions: List[List[int]] = [[] for _ in op_order]
    stream: List[Tuple[int, int]] = []
    loop_lists = {
        op.name: tuple((l.name, (0, l.extent)) for l in op.loops)
        for op in chain.ops
    }
    # The one traversal: everything below derives from iterate_blocks.
    for position, (op, block) in enumerate(program.iterate_blocks()):
        slot = op_slot[op.name]
        get = block.get
        rows[slot].append(
            tuple(get(name, full) for name, full in loop_lists[op.name])
        )
        stream.append((slot, len(positions[slot])))
        positions[slot].append(position)

    tables: List[OpBlockTable] = []
    table_of_slot: Dict[int, int] = {}
    for slot, op in enumerate(chain.ops):
        if not rows[slot]:
            continue
        ranges = np.asarray(rows[slot], dtype=np.int64)
        loop_names = op.loop_names
        loop_index = {name: i for i, name in enumerate(loop_names)}
        sites: List[AccessSite] = []
        for access, is_write in [(a, False) for a in op.reads] + [
            (a, True) for a in op.writes
        ]:
            shape = shapes[access.tensor]
            regions = compute_regions(access.dims, loop_index, ranges, shape)
            widths = regions[:, :, 1] - regions[:, :, 0]
            elem_bytes = chain.tensors[access.tensor].dtype.nbytes
            nonempty = (widths > 0).all(axis=1)
            nbytes = np.where(
                nonempty,
                np.prod(np.maximum(widths, 1), axis=1) * elem_bytes,
                0,
            ).astype(np.int64)
            sites.append(
                AccessSite(
                    tensor=access.tensor,
                    write=is_write,
                    dims=access.dims,
                    regions=regions,
                    nbytes=nbytes,
                )
            )
        table_of_slot[slot] = len(tables)
        tables.append(
            OpBlockTable(
                op=op,
                loop_names=loop_names,
                ranges=ranges,
                sites=tuple(sites),
                positions=np.asarray(positions[slot], dtype=np.int64),
            )
        )

    block_table = np.asarray(
        [table_of_slot[slot] for slot, _ in stream], dtype=np.int32
    )
    block_row = np.asarray([row for _, row in stream], dtype=np.int32)
    return CompiledSchedule(
        program=program,
        shapes=shapes,
        tables=tuple(tables),
        block_table=block_table,
        block_row=block_row,
        digest=digest,
    )
