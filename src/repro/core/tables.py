"""Compiled movement tables: batched Algorithm-1 DV/MU evaluation.

This module is how the optimizer evaluates Algorithm 1.  A
:class:`repro.core.movement.MovementModel` is compiled once into a
:class:`MovementTables` object — flat per-term tuples of (loop column,
coefficient) entries plus numpy-ready column indices — which evaluates
the same formulas either for a single tile vector (SLSQP's hot path) or
for an ``(N, L)`` candidate matrix in a handful of numpy calls (the
integer-refinement lattice and the canonical descent's batches).
:class:`SignatureTables` evaluates the same formulas for many *orders*
of one chain at once, from their signature rows (the order search's
dedupe, rank probe and pruning bounds).  :class:`FootprintConstraint` is
the one extra tile constraint (the NPU Unified Buffer bound), compiled
once per chain over the same loop columns, so it scores rows of either.

**Bit-for-bit contract.**  The tables return *exactly* the floats
:class:`MovementModel` returns, for values and gradients alike, so the
dict-based model (and the literal ``algorithm1()``) stay usable as test
oracles compared with ``==``.  Every evaluator below therefore replays the
model's floating-point operation sequence:

* reductions over loop entries, dims, multipliers and terms (or accesses)
  stay sequential — Python loops, never numpy's ``sum``/``dot``, whose
  pairwise summation associates differently;
* the row paths walk one term at a time; the batch paths vectorize the
  candidate axis ``N`` and, through a padded plan compiled once per
  tables object, the terms (or accesses) too: one numpy operation per
  entry *slot* evaluates that entry of every term, a pad entry adds an
  exact ``0.0`` and a pad span or trip count multiplies by an exact
  ``1.0``, so each element still sees its own operations in its own
  order — elementwise numpy ops on float64 arrays perform the same
  IEEE-754 operation as Python floats;
* integer inputs (extents, coefficients, byte counts) are exact in double
  precision, so pre-converting them to floats changes nothing.

Compiled tables are memoized per model instance and, across models, in a
bounded process-global LRU keyed by chain identity +
``signature_digest()`` — permutations with equal signatures share one
compilation.  Tables hold no reference to their chain, and a collected
chain's entries leave the LRU on the next memo call.

Stitched chains (:mod:`repro.ir.stitch`) compile through the same tables:
each stitched memory-intensive op contributes ordinary MU rows (its tile
footprint joins every access-group usage sum), its bridge tensor has no DV
term at all (it is a chain intermediate), and the unified-buffer capacity
constraint (:class:`FootprintConstraint`, the "capacity row") is what
rejects tilings whose stitched intermediate tile overflows the shared
buffer.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..ir.access import TensorAccess
from ..ir.chain import OperatorChain
from ..memo import LRUMemo
from .movement import MovementModel, _chain_prep

# ----------------------------------------------------------------------
# padded batch plans
# ----------------------------------------------------------------------
#: A span entry as compiled for a padded plan: (source row, coefficient).
_Entry = Tuple[int, float]


class _SpanPlan:
    """Footprints of many terms or accesses at once.

    Each item is a product of dims, each dim a span ``1.0 + sum(coeff *
    source)`` over its entries, where a source is one row of a caller-built
    ``(R, N)`` matrix (a loop's ``tile - 1``, a multiplier loop's
    ``extent / trips - 1``, or a constant).  Items are padded to common
    widths: a pad entry reads the constant ``0.0`` row (adds an exact
    ``0.0``) and a pad dim holds only pad entries (multiplies by an exact
    ``1.0``), so every item still sees its own operations in its own
    order.  A slot whose coefficients are all ``1.0`` skips the multiply
    (``1.0 * x == x``).
    """

    __slots__ = ("items", "slots")

    def __init__(
        self, items: Sequence[Sequence[Sequence[_Entry]]], zero_row: int
    ) -> None:
        self.items = len(items)
        depth = max((len(item) for item in items), default=0)
        slots = []
        for d in range(depth):
            dims = [item[d] if d < len(item) else () for item in items]
            entries = []
            for e in range(max(1, max(len(dim) for dim in dims))):
                padded = [
                    dim[e] if e < len(dim) else (zero_row, 1.0)
                    for dim in dims
                ]
                coeffs = np.array([c for _, c in padded])[:, None]
                entries.append((
                    np.array([src for src, _ in padded], dtype=np.intp),
                    None if (coeffs == 1.0).all() else coeffs,
                ))
            slots.append(tuple(entries))
        self.slots = tuple(slots)

    def footprints(self, sources: np.ndarray) -> np.ndarray:
        """``(items, N)`` footprints from the ``(R, N)`` source matrix.

        In place on fresh gathers: ``step + 1.0``, ``span += step``,
        ``step *= coeff`` and ``footprint *= span`` are the same IEEE
        operations as the row path's ``1.0 + step``, ``span + step``,
        ``coeff * step`` and ``footprint * span``.
        """
        footprint: Any = None
        for entries in self.slots:
            span: Any = None
            for rows, coeffs in entries:
                step = sources.take(rows, axis=0)
                if coeffs is not None:
                    step *= coeffs
                if span is None:
                    step += 1.0
                    span = step
                else:
                    span += step
            if footprint is None:
                footprint = span
            else:
                footprint *= span
        if footprint is None:
            footprint = np.ones((self.items, sources.shape[1]))
        return footprint


#: Rows per padded-kernel pass.  Larger batches run in slices of this
#: many rows (every row is evaluated on its own, so slicing changes no
#: value), which keeps each ``(items, rows)`` temporary small enough to be
#: reused from the heap instead of mapped fresh per operation.
_CHUNK_ROWS = 2048


def _chunked(kernel: Callable[[np.ndarray], np.ndarray], rows: np.ndarray):
    """``kernel(rows)``, run on slices of at most :data:`_CHUNK_ROWS` rows
    and joined along the last axis."""
    count = rows.shape[0]
    if count <= _CHUNK_ROWS:
        return kernel(rows)
    return np.concatenate(
        [
            kernel(rows[start:start + _CHUNK_ROWS])
            for start in range(0, count, _CHUNK_ROWS)
        ],
        axis=-1,
    )


def _shifted_sources(
    rows: np.ndarray, lead: int, constants: np.ndarray
) -> np.ndarray:
    """``(len(constants) + lead + L, N)`` source matrix: the constants,
    ``lead`` rows left for the caller, then ``rows.T - 1.0``."""
    head = len(constants)
    sources = np.empty((head + lead + rows.shape[1], rows.shape[0]))
    sources[:head] = constants[:, None]
    np.subtract(rows.T, 1.0, out=sources[head + lead:])
    return sources


class _UsagePlan:
    """Summed access footprints of one or more access groups, padded.

    A group is one operator's accesses (MU takes the peak over groups) or
    one constraint's (which subtracts its capacity).  Source rows are the
    distinct constant addends (``0.0`` first), then the loop columns.
    """

    __slots__ = ("constants", "spans", "elem_bytes", "groups", "slots")

    def __init__(
        self, groups: Sequence[Sequence["_AccessTable"]]
    ) -> None:
        constants: Dict[float, int] = {0.0: 0}
        accesses = [acc for group in groups for acc in group]
        for acc in accesses:
            for dim in acc.dims:
                for col, coeff in dim:
                    if col < 0:
                        constants.setdefault(coeff, len(constants))
        base = len(constants)
        self.constants = np.array(list(constants))
        # A pinned loop adds its constant: ``span + 1.0 * c == span + c``.
        self.spans = _SpanPlan(
            [
                [
                    [
                        (constants[coeff], 1.0) if col < 0
                        else (base + col, coeff)
                        for col, coeff in dim
                    ]
                    for dim in acc.dims
                ]
                for acc in accesses
            ],
            zero_row=0,
        )
        self.elem_bytes = np.array([acc.elem_bytes for acc in accesses])
        # Per slot, the access each group adds; pads add the zero row.
        pad = len(accesses)
        width = max((len(group) for group in groups), default=0)
        offsets = np.cumsum([0] + [len(group) for group in groups])
        self.groups = len(groups)
        self.slots = tuple(
            np.array(
                [
                    offsets[g] + s if s < len(group) else pad
                    for g, group in enumerate(groups)
                ],
                dtype=np.intp,
            )
            for s in range(width)
        )

    def totals(self, rows: np.ndarray) -> np.ndarray:
        """``(groups, N)`` summed footprint bytes per group."""
        count = rows.shape[0]
        footprint = self.spans.footprints(
            _shifted_sources(rows, 0, self.constants)
        )
        weighted = np.empty((self.spans.items + 1, count))
        np.multiply(footprint, self.elem_bytes[:, None], out=weighted[:-1])
        weighted[-1] = 0.0
        total = np.zeros((self.groups, count))
        for members in self.slots:
            total += weighted.take(members, axis=0)
        return total


class _VolumePlan:
    """Exact DV of every term at once, padded.

    Source rows are the constant ``0.0``, then ``extent / trips - 1`` per
    distinct (multiplier column, extent) pair, then the loop columns.  Each
    term's multiplier product runs over per-slot trip rows, where a pad
    slot reads a row of exact ``1.0``.
    """

    __slots__ = ("pair_cols", "pair_extents", "spans", "elem_bytes", "mults")

    def __init__(self, terms: Sequence["_TermTable"]) -> None:
        pairs: Dict[Tuple[int, int], int] = {}
        for term in terms:
            for mult in term.mults:
                pairs.setdefault(mult, len(pairs))
        self.pair_cols = np.array([col for col, _ in pairs], dtype=np.intp)
        self.pair_extents = np.array(
            [float(extent) for _, extent in pairs]
        )[:, None]
        base = 1 + len(pairs)
        items = []
        for term in terms:
            # A multiplier loop's span reads its effective tile (the last
            # pair of a column wins, as in the row path's dict).
            effective = {col: 1 + pairs[(col, extent)]
                         for col, extent in term.mults}
            items.append([
                [
                    (effective.get(col, base + col), coeff)
                    for col, coeff in dim
                ]
                for dim in term.dims
            ])
        self.spans = _SpanPlan(items, zero_row=0)
        self.elem_bytes = np.array([term.elem_bytes for term in terms])[:, None]
        ones = len(pairs)
        width = max((len(term.mults) for term in terms), default=0)
        self.mults = tuple(
            np.array(
                [
                    pairs[term.mults[m]] if m < len(term.mults) else ones
                    for term in terms
                ],
                dtype=np.intp,
            )
            for m in range(width)
        )

    def volume(self, rows: np.ndarray) -> np.ndarray:
        count = rows.shape[0]
        pairs = len(self.pair_cols)
        sources = _shifted_sources(rows, pairs, np.zeros(1))
        trips = np.empty((pairs + 1, count))
        np.ceil(self.pair_extents / rows.T[self.pair_cols], out=trips[:-1])
        trips[-1] = 1.0
        np.subtract(
            self.pair_extents / trips[:-1], 1.0, out=sources[1:1 + pairs]
        )
        footprint = self.spans.footprints(sources)
        dm: Any = self.elem_bytes
        for slot in self.mults:
            dm = dm * trips.take(slot, axis=0)
        footprint *= dm
        volume = np.zeros(count)
        for term in footprint:
            volume += term
        return volume


# ----------------------------------------------------------------------
# compiled tables
# ----------------------------------------------------------------------
class _TermTable:
    """One :class:`MovementTerm` flattened to loop-column entries."""

    __slots__ = ("elem_bytes", "mults", "dims")

    def __init__(
        self,
        elem_bytes: float,
        mults: Tuple[Tuple[int, int], ...],
        dims: Tuple[Tuple[Tuple[int, float], ...], ...],
    ) -> None:
        self.elem_bytes = elem_bytes  # float (exact int value)
        self.mults = mults  # ((column, full extent), ...) sorted as stored
        self.dims = dims  # per dim: ((column, coeff), ...) in terms order


class _AccessTable:
    """One (op, access) MU entry; pinned loops folded to constant addends."""

    __slots__ = ("elem_bytes", "dims")

    def __init__(
        self,
        elem_bytes: float,
        dims: Tuple[Tuple[Tuple[int, float], ...], ...],
    ) -> None:
        self.elem_bytes = elem_bytes
        # Per dim: ((column, coeff), ...) with column -1 meaning "add the
        # stored constant" — a loop the distribution buffer pins at full
        # extent contributes coeff*(extent-1) regardless of the tiles.
        self.dims = dims


class MovementTables:
    """A :class:`MovementModel` compiled for vectorized evaluation.

    The loop universe is ``chain.loop_extents()`` in its stable order; a
    tile *row* is a length-``L`` vector over that universe (loops a caller
    does not control sit at 1, exactly like :class:`MovementModel`'s
    ``tiles.get(name, 1)`` default).  ``*_row`` methods take one row of
    Python floats; ``*_batch`` methods take an ``(N, L)`` float64 matrix.
    """

    def __init__(self, model: MovementModel) -> None:
        extents = model.chain.loop_extents()
        self.loop_names: Tuple[str, ...] = tuple(extents)
        self.index: Dict[str, int] = {
            name: col for col, name in enumerate(self.loop_names)
        }
        self.extents: Tuple[int, ...] = tuple(
            extents[name] for name in self.loop_names
        )
        self.terms: Tuple[_TermTable, ...] = tuple(
            _TermTable(
                float(term.elem_bytes),
                tuple(
                    (self.index[name], extent)
                    for name, extent in term.multipliers
                ),
                tuple(
                    tuple(
                        (self.index[name], float(coeff))
                        for name, coeff in dim.terms
                    )
                    for dim in term.access.dims
                ),
            )
            for term in model.terms
        )
        # MU plan mirrors MovementModel._usage_plan: per op, per access,
        # with distribution-buffer overlays folded into constant addends.
        ops: List[Tuple[_AccessTable, ...]] = []
        for entries in model._usage_plan:
            acc_tables: List[_AccessTable] = []
            for access, elem_bytes, overlay in entries:
                pinned = {name: extent for name, extent in overlay}
                dims = tuple(
                    tuple(
                        (-1, float(coeff * (pinned[name] - 1)))
                        if name in pinned
                        else (self.index[name], float(coeff))
                        for name, coeff in dim.terms
                    )
                    for dim in access.dims
                )
                acc_tables.append(_AccessTable(float(elem_bytes), dims))
            ops.append(tuple(acc_tables))
        self.usage_ops: Tuple[Tuple[_AccessTable, ...], ...] = tuple(ops)
        # Flattened gradient plans: one (col, coeff, dim_index) triple per
        # span entry, hoisting the nested dim iteration out of the hot
        # per-SLSQP-iteration gradient kernels.
        self._grad_terms: Tuple[Tuple, ...] = tuple(
            (
                term.elem_bytes,
                term.mults,
                term.dims,
                tuple(
                    (col, coeff, di)
                    for di, dim in enumerate(term.dims)
                    for col, coeff in dim
                ),
            )
            for term in self.terms
        )
        self._usage_grad_ops: Tuple[Tuple[Tuple, ...], ...] = tuple(
            tuple(
                (
                    acc.elem_bytes,
                    acc.dims,
                    tuple(
                        (col, coeff, di)
                        for di, dim in enumerate(acc.dims)
                        for col, coeff in dim
                        if col >= 0
                    ),
                )
                for acc in entries
            )
            for entries in self.usage_ops
        )
        self._volume_plan: Optional[_VolumePlan] = None
        self._usage_plan: Optional[_UsagePlan] = None

    # -- row (single tile vector) paths --------------------------------
    def row_of(self, tiles: Mapping[str, float]) -> List[float]:
        """A full-universe row from a (possibly partial) tile mapping."""
        return [float(tiles.get(name, 1)) for name in self.loop_names]

    def usage_row(self, t: Sequence[float]) -> float:
        """MU of one tile row."""
        peak = 0.0
        for entries in self.usage_ops:
            total = 0.0
            for acc in entries:
                footprint = 1.0
                for dim in acc.dims:
                    span = 1.0
                    for col, coeff in dim:
                        if col >= 0:
                            span += coeff * (t[col] - 1.0)
                        else:
                            span += coeff
                    footprint *= span
                total += footprint * acc.elem_bytes
            peak = max(peak, total)
        return peak

    def volume_smooth_gradient_row(
        self, t: Sequence[float]
    ) -> Tuple[float, List[float]]:
        """Smooth DV and its per-column partials (reference op order).

        Runs the exact operation sequence of
        :meth:`MovementModel.volume_smooth_gradient` over the flattened
        gradient plan; multiplier factors clamped at 1.0 skip their
        (identity) multiply, which is bit-exact since ``x * 1.0 == x``.
        """
        volume = 0.0
        grad = [0.0] * len(self.loop_names)
        for elem_bytes, mults, dims, entries in self._grad_terms:
            spans = []
            append = spans.append
            footprint = 1.0
            for dim in dims:
                span = 1.0
                for col, coeff in dim:
                    span += coeff * (t[col] - 1.0)
                append(span)
                footprint *= span
            dm = footprint * elem_bytes
            active = None
            for col, extent in mults:
                if extent / t[col] > 1.0:
                    dm *= extent / t[col]
                    if active is None:
                        active = [col]
                    else:
                        active.append(col)
            volume += dm
            for col, coeff, di in entries:
                grad[col] += dm * (coeff / spans[di])
            if active is not None:
                for col in active:
                    grad[col] -= dm / t[col]
        return volume, grad

    def usage_gradient_row(
        self, t: Sequence[float]
    ) -> Tuple[float, List[float]]:
        """MU and the peak operator's subgradient (reference op order)."""
        peak = 0.0
        width = len(self.loop_names)
        peak_grad = [0.0] * width
        for accesses in self._usage_grad_ops:
            total = 0.0
            grad = [0.0] * width
            for elem_bytes, dims, entries in accesses:
                spans = []
                append = spans.append
                footprint = 1.0
                for dim in dims:
                    span = 1.0
                    for col, coeff in dim:
                        if col >= 0:
                            span += coeff * (t[col] - 1.0)
                        else:
                            span += coeff
                    append(span)
                    footprint *= span
                footprint_bytes = footprint * elem_bytes
                total += footprint_bytes
                for col, coeff, di in entries:
                    grad[col] += footprint_bytes * (coeff / spans[di])
            if total > peak:
                peak, peak_grad = total, grad
        return peak, peak_grad

    # -- batched (N, L) paths ------------------------------------------
    # Padded plans compiled on first use: every term (access) is evaluated
    # at once, so the numpy call count per batch grows with the pad widths,
    # not with the number of entries.
    def volume_batch(self, rows: np.ndarray) -> np.ndarray:
        """Exact DV for every row of an ``(N, L)`` candidate-tile matrix."""
        plan = self._volume_plan
        if plan is None:
            plan = self._volume_plan = _VolumePlan(self.terms)
        return _chunked(plan.volume, rows)

    def usage_batch(self, rows: np.ndarray) -> np.ndarray:
        """MU for every row of an ``(N, L)`` candidate-tile matrix."""
        plan = self._usage_plan
        if plan is None:
            plan = self._usage_plan = _UsagePlan(self.usage_ops)
        peak = np.zeros(rows.shape[0])
        for total in _chunked(plan.totals, rows):
            peak = np.maximum(peak, total)
        return peak


class FootprintConstraint:
    """A capacity bound on the summed footprint of an access group.

    The value is ``sum(footprint_bytes) - capacity`` (``<= 0`` fits) — on
    the Ascend NPU, the fused intermediates' producer writes against the
    Unified Buffer (Section VI-B).  Built once per chain: its accesses are
    compiled over ``chain.loop_extents()`` columns, the columns of both
    :class:`MovementTables` and :class:`SignatureTables` rows.  Every
    footprint is a product of affine spans with positive coefficients, so
    the value is non-decreasing in every tile — the all-ones and
    hard-minimum verdicts of :func:`repro.core.solver.solve_tiles` and the
    bisection of :func:`repro.core.search.dv_lower_bounds` rely on that.

    ``key`` is the constraint's memo-key identity: its capacity and its
    compiled accesses (the chain itself is keyed by its digest).
    """

    __slots__ = ("loop_names", "accesses", "capacity", "key", "_plan")

    def __init__(
        self,
        chain: OperatorChain,
        accesses: Sequence[TensorAccess],
        capacity: float,
    ) -> None:
        self.loop_names: Tuple[str, ...] = tuple(chain.loop_extents())
        index = {name: col for col, name in enumerate(self.loop_names)}
        self.accesses: Tuple[_AccessTable, ...] = tuple(
            _AccessTable(
                float(chain.tensors[access.tensor].dtype.nbytes),
                tuple(
                    tuple((index[name], float(coeff)) for name, coeff in dim.terms)
                    for dim in access.dims
                ),
            )
            for access in accesses
        )
        self.capacity = float(capacity)
        self.key: Hashable = (
            self.capacity,
            tuple((acc.elem_bytes, acc.dims) for acc in self.accesses),
        )
        self._plan: Optional[_UsagePlan] = None

    def check_universe(self, loop_names: Sequence[str]) -> None:
        """Raise ``ValueError`` unless rows over ``loop_names`` are rows
        over this constraint's columns."""
        if tuple(loop_names) != self.loop_names:
            raise ValueError(
                f"constraint compiled over loops {self.loop_names} cannot "
                f"evaluate rows over {tuple(loop_names)}"
            )

    def row(self, t: Sequence[float]) -> float:
        usage = 0.0
        for acc in self.accesses:
            footprint = 1.0
            for dim in acc.dims:
                span = 1.0
                for col, coeff in dim:
                    span += coeff * (t[col] - 1.0)
                footprint *= span
            usage += footprint * acc.elem_bytes
        return usage - self.capacity

    def batch(self, rows: np.ndarray) -> np.ndarray:
        plan = self._plan
        if plan is None:
            plan = self._plan = _UsagePlan((self.accesses,))
        return _chunked(plan.totals, rows)[0] - self.capacity

    def gradient_row(self, t: Sequence[float]) -> List[float]:
        """Partials of :meth:`row`: ``footprint_bytes * coeff / span`` per
        span entry, summed in :meth:`row`'s order."""
        grad = [0.0] * len(t)
        for acc in self.accesses:
            spans = []
            footprint = 1.0
            for dim in acc.dims:
                span = 1.0
                for col, coeff in dim:
                    span += coeff * (t[col] - 1.0)
                spans.append(span)
                footprint *= span
            footprint_bytes = footprint * acc.elem_bytes
            for dim, span in zip(acc.dims, spans):
                for col, coeff in dim:
                    grad[col] += footprint_bytes * (coeff / span)
        return grad


# ----------------------------------------------------------------------
# signature rows: many orders of one chain at once
# ----------------------------------------------------------------------
class SignatureTables:
    """Algorithm 1 over *signature rows*, for many block orders at once.

    An order influences DV and MU only through its
    :attr:`~repro.core.movement.MovementModel.signature`: each IO term's
    multiplier-loop set and each intermediate's full-extent buffer-loop
    set.  This per-chain loop table encodes those sets as bitmasks over the
    loop universe (``chain.loop_extents()`` order, bit ``1 << column``), so
    one order's signature is one integer row — the term masks in
    ``_chain_prep(chain).ops`` x accesses order, then (when intermediates
    are reused) one buffer mask per ``chain.intermediate_tensors()`` entry.
    Two orders have equal rows exactly when their models have equal
    signatures, so deduping, filtering, ranking and bounding orders run as
    numpy passes over rows instead of one model and one tables compile per
    order.

    The evaluators replay :class:`MovementTables`' operation sequence row
    by row — multipliers in sorted loop-name order (``MovementTerm``
    stores them sorted), a pinned buffer loop as the constant addend
    ``float(coeff * (extent - 1))`` — choosing per row with ``np.where``,
    which runs the same IEEE operation on every row.  They return exactly
    the floats each order's compiled tables return.
    """

    def __init__(self, chain: OperatorChain, reuse_intermediates: bool) -> None:
        prep = _chain_prep(chain)
        self.reuse_intermediates = reuse_intermediates
        self.loop_names: Tuple[str, ...] = tuple(prep.extents)
        if len(self.loop_names) > 63:
            raise ValueError(
                f"signature rows cover at most 63 loops, chain "
                f"{chain.name!r} has {len(self.loop_names)}"
            )
        self.index: Dict[str, int] = {
            name: col for col, name in enumerate(self.loop_names)
        }
        self.extents: Tuple[int, ...] = tuple(prep.extents.values())
        self._bit = {name: 1 << col for name, col in self.index.items()}
        self._bits = np.array(list(self._bit.values()), dtype=np.int64)
        nondegenerate = 0
        for col, extent in enumerate(self.extents):
            if extent > 1:
                nondegenerate |= 1 << col
        self._nondegenerate = nondegenerate
        io_set = prep.io_set if reuse_intermediates else prep.io_set_noreuse
        buffered = prep.intermediates if reuse_intermediates else ()
        slot_of = {tensor: slot for slot, tensor in enumerate(buffered)}

        # terms: (elem_bytes, used cols, op mask, mults, dims) per IO access
        terms = []
        usage_ops = []
        for _, op_loops, accesses in prep.ops:
            op_cols = sorted(self.index[name] for name in op_loops)
            op_mask = sum(1 << col for col in op_cols)
            mults = tuple(
                (col, self.extents[col], 1 << col)
                for col in sorted(op_cols, key=lambda c: self.loop_names[c])
            )
            entries = []
            for access, elem_bytes, used_loops in accesses:
                # per dim: (column, coeff, bit, addend when pinned)
                dims = tuple(
                    tuple(
                        (
                            self.index[name],
                            float(coeff),
                            self._bit[name],
                            float(coeff * (prep.extents[name] - 1)),
                        )
                        for name, coeff in dim.terms
                    )
                    for dim in access.dims
                )
                if access.tensor in io_set:
                    used = tuple(
                        self.index[name] for name in used_loops & op_loops
                    )
                    terms.append(
                        (float(elem_bytes), used, op_mask, mults, dims)
                    )
                entries.append(
                    (float(elem_bytes), dims, slot_of.get(access.tensor, -1))
                )
            usage_ops.append(tuple(entries))
        self._terms = tuple(terms)
        self._usage_ops = tuple(usage_ops)
        # buffers: (tensor, divergence cols, loops the producer write uses)
        buffers = []
        for tensor in buffered:
            split = frozenset().union(*prep.divergence_sets[tensor])
            write = chain.producers_of(tensor)[0].access_of(tensor)
            write_mask = sum(
                1 << col
                for col, name in enumerate(self.loop_names)
                if write.uses(name)
            )
            buffers.append(
                (tensor, tuple(self.index[name] for name in split), write_mask)
            )
        self._buffers = tuple(buffers)
        self._width = len(self._terms) + len(self._buffers)

    # -- rows ------------------------------------------------------------
    def rows_of(self, orders: np.ndarray) -> np.ndarray:
        """``(N, width)`` signature rows of an ``(N, L)`` order matrix.

        ``orders`` holds loop columns, outermost first.  A term's mask is
        the op's loops at or outside the innermost position of any loop
        the access uses (empty when it uses none of the order's loops); an
        intermediate's buffer mask is the order's loops at or after the
        earliest position of any loop of its divergence sets.
        """
        count, length = orders.shape
        rows = np.zeros((count, self._width), dtype=np.int64)
        if not length:
            return rows
        every_row = np.arange(count)[:, None]
        position = np.full((count, len(self.loop_names)), -1, dtype=np.int64)
        position[every_row, orders] = np.arange(length)
        prefix = np.bitwise_or.accumulate(self._bits[orders], axis=1)
        every_row = every_row[:, 0]
        for i, (_, used, op_mask, _, _) in enumerate(self._terms):
            if not used:
                continue
            innermost = position[:, used[0]]
            for col in used[1:]:
                innermost = np.maximum(innermost, position[:, col])
            reached = prefix[every_row, np.maximum(innermost, 0)]
            rows[:, i] = np.where(innermost >= 0, reached & op_mask, 0)
        for slot, (_, split, _) in enumerate(self._buffers):
            if not split:
                continue
            earliest = np.full(count, length, dtype=np.int64)
            for col in split:
                at = position[:, col]
                earliest = np.where(at >= 0, np.minimum(earliest, at), earliest)
            above = np.where(
                earliest > 0, prefix[every_row, np.maximum(earliest - 1, 0)], 0
            )
            rows[:, len(self._terms) + slot] = (
                prefix[:, -1] & ~above & self._nondegenerate
            )
        return rows

    def enlarged(self, rows: np.ndarray) -> np.ndarray:
        """:attr:`MovementModel.has_enlarged_buffers` per signature row."""
        out = np.zeros(rows.shape[0], dtype=bool)
        for slot, (_, _, write_mask) in enumerate(self._buffers):
            out |= (rows[:, len(self._terms) + slot] & write_mask) != 0
        return out

    # -- batched evaluation (one tile row per signature row) -------------
    def volume(
        self, rows: np.ndarray, tiles: np.ndarray, *, exact: bool = True
    ) -> np.ndarray:
        """DV of signature row ``i`` at tile row ``tiles[i]`` (as
        :meth:`MovementModel.volume` of the row's order)."""
        count = rows.shape[0]
        volume = np.zeros(count)
        shifted = tiles - 1.0
        for i, (elem_bytes, _, _, mults, dims) in enumerate(self._terms):
            mask = rows[:, i]
            dm: Any = elem_bytes
            if exact:
                eff: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
                for col, extent, bit in mults:
                    on = (mask & bit) != 0
                    if not on.any():
                        continue
                    trips = np.ceil(extent / tiles[:, col])
                    dm = np.where(on, dm * trips, dm)
                    eff[col] = (on, extent / trips)
            footprint: Any = None
            for dim in dims:
                span: Any = 1.0
                for col, coeff, _, _ in dim:
                    step = shifted[:, col]
                    if exact and col in eff:
                        on, value = eff[col]
                        step = np.where(on, value - 1.0, step)
                    span = span + (step if coeff == 1.0 else coeff * step)
                footprint = span if footprint is None else footprint * span
            if footprint is None:
                footprint = np.ones(count)
            if exact:
                volume = volume + dm * footprint
                continue
            dm = footprint * elem_bytes
            for col, extent, bit in mults:
                ratio = extent / tiles[:, col]
                on = ((mask & bit) != 0) & (ratio > 1.0)
                dm = np.where(on, dm * ratio, dm)
            volume = volume + dm
        return volume

    def usage(self, rows: np.ndarray, tiles: np.ndarray) -> np.ndarray:
        """MU of signature row ``i`` at tile row ``tiles[i]`` (as
        :meth:`MovementTables.usage_row`, buffer loops pinned per row)."""
        count = rows.shape[0]
        peak = np.zeros(count)
        shifted = tiles - 1.0
        for entries in self._usage_ops:
            total = np.zeros(count)
            for elem_bytes, dims, slot in entries:
                pinned = (
                    None if slot < 0 else rows[:, len(self._terms) + slot]
                )
                footprint: Any = None
                for dim in dims:
                    span: Any = 1.0
                    for col, coeff, bit, fixed in dim:
                        step = shifted[:, col]
                        free = span + (step if coeff == 1.0 else coeff * step)
                        if pinned is None:
                            span = free
                        else:
                            on = (pinned & bit) != 0
                            span = np.where(on, span + fixed, free)
                    footprint = span if footprint is None else footprint * span
                if footprint is None:
                    footprint = np.ones(count)
                total = total + footprint * elem_bytes
            peak = np.maximum(peak, total)
        return peak


# ----------------------------------------------------------------------
# memoization
# ----------------------------------------------------------------------
#: Bounded process-global LRU of compiled :class:`MovementTables`.
_GLOBAL_TABLES_MEMO: LRUMemo[MovementTables] = LRUMemo(capacity=256)

# Chains are not hashable (they hold tensor dicts), so the cross-model memo
# key uses a per-chain token: a counter bound to the chain's lifetime.  The
# token (not ``id()``) guards against address reuse after garbage
# collection; ``signature_digest()`` already covers reuse_intermediates and
# the movement structure, and equal signatures on one chain induce
# bit-identical DV/MU functions — sharing one compilation is exact.  Tables
# do not reference their chain, so a chain's entries cannot keep it alive;
# once it is collected its token can never be looked up again, and its
# entries are dropped.
_CHAIN_TOKENS: Dict[int, int] = {}
_CHAIN_TOKEN_LOCK = threading.Lock()
_NEXT_CHAIN_TOKEN = itertools.count()
#: ``(address, token)`` of collected chains, not yet forgotten.
_DEAD_CHAINS: Deque[Tuple[int, int]] = deque()


def _chain_collected(address: int, token: int) -> None:
    # A finalizer runs inside whatever code the garbage collector
    # interrupted, possibly under one of the locks here, so it only queues
    # (``deque.append`` is atomic) and never waits.
    _DEAD_CHAINS.append((address, token))


def _drain_dead_chains() -> None:
    """Forget the queued collected chains (caller holds
    ``_CHAIN_TOKEN_LOCK``): free their addresses for reuse and drop their
    tables from the memo."""
    tokens = set()
    while _DEAD_CHAINS:
        address, token = _DEAD_CHAINS.popleft()
        if _CHAIN_TOKENS.get(address) == token:
            del _CHAIN_TOKENS[address]
        tokens.add(token)
    if tokens:
        # Memo keys are ``(chain token, signature digest)``.
        _GLOBAL_TABLES_MEMO.forget(lambda key: key[0] in tokens)


def _chain_token(chain: Any) -> int:
    address = id(chain)
    with _CHAIN_TOKEN_LOCK:
        # A collected chain's address may already hold this one.
        _drain_dead_chains()
        token = _CHAIN_TOKENS.get(address)
        if token is None:
            token = next(_NEXT_CHAIN_TOKEN)
            _CHAIN_TOKENS[address] = token
            weakref.finalize(chain, _chain_collected, address, token)
        return token


def movement_tables(model: MovementModel) -> MovementTables:
    """Compiled tables for ``model`` (per-instance and LRU memoized)."""
    tables = getattr(model, "_tables", None)
    if tables is not None:
        return tables
    key = (_chain_token(model.chain), model.signature_digest())
    tables = _GLOBAL_TABLES_MEMO.get_or_compute(
        key, lambda: MovementTables(model)
    )
    model._tables = tables
    return tables


def tables_memo_stats() -> Dict[str, int]:
    """Counters of the process-global tables memo."""
    with _CHAIN_TOKEN_LOCK:
        _drain_dead_chains()
    return _GLOBAL_TABLES_MEMO.stats()


def clear_tables_memo() -> None:
    """Empty the process-global tables memo (tests, benchmarks)."""
    _GLOBAL_TABLES_MEMO.clear()


# ----------------------------------------------------------------------
# solver-facing evaluators
# ----------------------------------------------------------------------
class TablesEvaluator:
    """Row/batch evaluation of one solve's DV, MU and extra constraint.

    Vectors are tile values over ``names`` (the solve's loop order); loops
    outside ``names`` sit at 1.
    """

    def __init__(
        self,
        model: MovementModel,
        names: Sequence[str],
        constraint: Optional[FootprintConstraint] = None,
    ) -> None:
        self.tables = movement_tables(model)
        if constraint is not None:
            constraint.check_universe(self.tables.loop_names)
        self.constraint = constraint
        self.names = list(names)
        self.cols = [self.tables.index[n] for n in self.names]
        self._cols_arr = np.array(self.cols, dtype=np.intp)
        self._width = len(self.tables.loop_names)
        # One SLSQP point is evaluated by several closures (objective,
        # capacity slack, jacobians); the solver hands them the *same*
        # values array per point, so the expanded row is cached by object
        # identity.  Values arrays are never mutated, so identity implies
        # equal contents — the cached row is bit-identical to a rebuild.
        self._row_src: Optional[object] = None
        self._row_cache: Optional[List[float]] = None

    def _row(self, values: Sequence[float]) -> List[float]:
        if values is self._row_src:
            return self._row_cache  # type: ignore[return-value]
        row = [1.0] * self._width
        for col, value in zip(self.cols, values):
            row[col] = float(value)
        self._row_src = values
        self._row_cache = row
        return row

    def matrix(self, values: np.ndarray) -> np.ndarray:
        """Expand an ``(N, len(names))`` matrix to full-universe rows."""
        rows = np.ones((values.shape[0], self._width))
        rows[:, self._cols_arr] = values
        return rows

    def usage(self, values: Sequence[float]) -> float:
        return self.tables.usage_row(self._row(values))

    def volume_smooth_gradient(
        self, values: Sequence[float]
    ) -> Tuple[float, np.ndarray]:
        volume, grad = self.tables.volume_smooth_gradient_row(
            self._row(values)
        )
        return volume, np.array([grad[c] for c in self.cols])

    def usage_gradient(
        self, values: Sequence[float]
    ) -> Tuple[float, np.ndarray]:
        usage, grad = self.tables.usage_gradient_row(self._row(values))
        return usage, np.array([grad[c] for c in self.cols])

    def constraint_row(self, values: Sequence[float]) -> float:
        return self.constraint.row(self._row(values))

    def constraint_gradient(self, values: Sequence[float]) -> np.ndarray:
        grad = self.constraint.gradient_row(self._row(values))
        return np.array([grad[c] for c in self.cols])

    # -- batched helpers (lattice refinement, canonical descent) --------
    def volume_exact_batch(self, values: np.ndarray) -> np.ndarray:
        return self.tables.volume_batch(self.matrix(values))

    def usage_batch(self, values: np.ndarray) -> np.ndarray:
        return self.tables.usage_batch(self.matrix(values))

    def fits_batch(self, values: np.ndarray, capacity: float) -> np.ndarray:
        """Per row, whether MU and the extra constraint fit."""
        rows = self.matrix(values)
        return (self.tables.usage_batch(rows) <= capacity) & self._fits(rows)

    def score_batch(
        self, values: np.ndarray, capacity: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(dv, mu, feasible)`` per row, expanding the rows once; ``dv``
        is exact where feasible and NaN elsewhere (never selected)."""
        rows = self.matrix(values)
        mu = self.tables.usage_batch(rows)
        ok = (mu <= capacity) & self._fits(rows)
        dv = np.full(values.shape[0], np.nan)
        if ok.any():
            dv[ok] = self.tables.volume_batch(rows[ok])
        return dv, mu, ok

    def _fits(self, rows: np.ndarray) -> np.ndarray:
        """Per full-universe row, whether the extra constraint fits."""
        if self.constraint is None:
            return np.ones(rows.shape[0], dtype=bool)
        return self.constraint.batch(rows) <= 0


def evaluator_for(
    model: MovementModel,
    names: Sequence[str],
    constraint: Optional[FootprintConstraint] = None,
) -> TablesEvaluator:
    """The evaluator one tile solve runs on."""
    return TablesEvaluator(model, names, constraint)
