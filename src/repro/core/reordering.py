"""Block execution order enumeration (Section IV-B).

The raw design space for a chain with ``I`` independent loops is ``I!``
permutations.  Three exact reductions keep enumeration tractable even for
ten-loop convolution chains:

1. **Degenerate loops** (extent 1) never cause data replacement and are
   dropped from the ordering entirely.
2. **Interchangeable loops** — loops with identical extent and identical
   access profile (same operator membership, same touched-IO-tensor
   pattern) induce isomorphic optimization problems under exchange, so only
   one relative order is enumerated (multiset permutations).
3. **Signature deduplication** — a permutation only influences DV and MU
   through the multiplier sets and intermediate buffers it induces (see
   :attr:`MovementModel.signature`); permutations with equal signatures
   are solved once.  Signatures are computed without a model per order:
   the enumeration is an ``(N, L)`` matrix of loop columns, each row's
   signature is one row of bitmasks from the chain's
   :class:`~repro.core.tables.SignatureTables`, and one sort groups equal
   rows.  Models are built only for the orders the search keeps.

An optional ``max_orders`` cap bounds worst cases; when it triggers the
enumeration is a deterministic stratified sample (only the sampled orders
are built) and the caller is told via :class:`OrderSpace.truncated`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.chain import OperatorChain
from .movement import MovementModel
from .tables import SignatureTables


def chain_reduction_loops(chain: OperatorChain) -> Tuple[str, ...]:
    """Loops that are a reduction in at least one operator."""
    names = []
    for op in chain.ops:
        for loop_name in op.reduction_loop_names:
            if loop_name not in names:
                names.append(loop_name)
    return tuple(names)


def producer_private_reductions(chain: OperatorChain) -> Tuple[str, ...]:
    """Private reduction loops of intermediate-producing operators.

    These loops iterate only at the innermost tiling level: splitting them
    at an outer level makes the partially accumulated intermediate stream
    through every inner boundary once per outer trip — traffic the
    per-level Algorithm 1 cannot see.  Real fused kernels (CUTLASS B2B,
    BOLT) keep the first GEMM's K whole inside the block the same way.
    """
    intermediates = set(chain.intermediate_tensors())
    names = []
    for op in chain.ops:
        if not any(w.tensor in intermediates for w in op.writes):
            continue
        for loop_name in op.reduction_loop_names:
            if chain.is_private(loop_name, op) and loop_name not in names:
                names.append(loop_name)
    return tuple(names)


def ordering_loops(chain: OperatorChain) -> Tuple[str, ...]:
    """Independent loops that participate in ordering (extent > 1)."""
    extents = chain.loop_extents()
    return tuple(n for n in chain.independent_loops() if extents[n] > 1)


def loop_classes(chain: OperatorChain) -> List[List[str]]:
    """Partition ordering loops into interchangeability classes.

    Two loops with equal extents and equal access profiles — per operator,
    whether it runs the loop and which of its IO accesses use it — are
    interchangeable in any block order (swapping them permutes tile
    variables of identical bounds in both DV and MU).
    """
    extents = chain.loop_extents()
    io_set = set(chain.io_tensors())
    ops = [
        (op, [a for a in op.all_accesses() if a.tensor in io_set])
        for op in chain.ops
    ]
    groups: Dict[Tuple, List[str]] = {}
    for name in ordering_loops(chain):
        profile = tuple(
            (op.has_loop(name), tuple(a.uses(name) for a in accesses))
            for op, accesses in ops
        )
        groups.setdefault((extents[name], profile), []).append(name)
    return list(groups.values())


def _unranked_orders(
    classes: Sequence[Sequence[int]], ranks: np.ndarray
) -> np.ndarray:
    """Rows ``ranks`` (sorted or not) of the sequence of every order in
    which each class's members keep their given relative order, in
    lexicographic order of class labels, without building the other rows.

    Per position, the orders continuing with class ``c`` number
    ``multinomial(remaining) * remaining[c] / left``; a rank picks the
    first class whose running count exceeds it.
    """
    counts = np.array([len(members) for members in classes], dtype=np.int64)
    members = _member_table(classes)
    length = int(counts.sum())
    size = _count_multiset(classes)
    dtype = np.int64 if size * max(length, 1) < 2**62 else object
    ranks = np.array(ranks, dtype=dtype)
    every = np.arange(ranks.size)
    # Class-major (classes x rows): every step works on a few long
    # contiguous rows, and ``at`` indexes the chosen class of each rank.
    remaining = np.repeat(counts[:, None], ranks.size, axis=1).astype(dtype)
    multinomial = np.full(ranks.size, size, dtype=dtype)
    orders = np.zeros((ranks.size, length), dtype=np.int64)
    for position in range(length):
        ways = multinomial * remaining // (length - position)
        running = ways.copy()
        for c in range(1, len(classes)):
            running[c] += running[c - 1]
        label = (ranks >= running).sum(axis=0)
        at = label * ranks.size + every
        multinomial = ways.ravel()[at]
        ranks = ranks - (running.ravel()[at] - multinomial)
        taken = counts[label] - remaining.ravel()[at].astype(np.int64)
        orders[:, position] = members[label, taken]
        remaining.ravel()[at] -= 1
    return orders


def _member_table(classes: Sequence[Sequence[int]]) -> np.ndarray:
    """``table[c, k]``: the loop column of class ``c``'s ``k``-th member."""
    width = max((len(members) for members in classes), default=0)
    table = np.zeros((len(classes), max(width, 1)), dtype=np.int64)
    for index, members in enumerate(classes):
        table[index, : len(members)] = members
    return table


def _order_matrix(
    chain: OperatorChain,
    columns: Mapping[str, int],
    max_orders: Optional[int],
    prefix: frozenset,
) -> Tuple[np.ndarray, int]:
    """The enumerated orders as an ``(N, L)`` matrix of loop columns, and
    the size of the canonical space under ``prefix``.

    Without a prefix the rows are the multiset permutations of the
    interchangeability classes; with one, every head order (prefix loops)
    times every tail order, head-major.  When ``max_orders`` is below the
    space, the rows are the deterministic stride sample: pick ``k`` is the
    first index at or past ``k * stride``, accumulated in floating point
    exactly as ``target += stride`` would, and only the picks are built.
    """
    classes = [
        [columns[name] for name in members] for members in loop_classes(chain)
    ]
    if prefix:
        parts = _split_classes(classes, {columns[name] for name in prefix})
    else:
        parts = (classes,)
    sizes = [_count_multiset(part) for part in parts]
    total = math.prod(sizes)
    if max_orders is None or total <= max_orders:
        ranks = np.arange(total)
    else:
        stride = total / max_orders
        # np.cumsum accumulates left to right, as the scalar loop would.
        picks = np.ceil(
            np.concatenate([[0.0], np.cumsum(np.full(max_orders - 1, stride))])
        )
        if total < 2**62:
            ranks = picks.astype(np.int64)
        else:
            ranks = np.array([int(pick) for pick in picks], dtype=object)
        ranks = ranks[ranks < total]
    if len(parts) == 1:
        return _unranked_orders(parts[0], ranks), total
    head, tail = parts
    return np.concatenate(
        [
            _unranked_orders(head, ranks // sizes[1]),
            _unranked_orders(tail, ranks % sizes[1]),
        ],
        axis=1,
    ), total


def _packed_keys(matrix: np.ndarray, bits: int) -> List[np.ndarray]:
    """Non-negative columns of ``bits`` bits packed big-endian into int64
    keys: comparing the key lists compares the rows lexicographically."""
    per_key = max(1, 63 // bits)
    keys = []
    for start in range(0, matrix.shape[1], per_key):
        key = np.zeros(matrix.shape[0], dtype=np.int64)
        for col in range(start, min(start + per_key, matrix.shape[1])):
            key = (key << bits) | matrix[:, col]
        keys.append(key)
    return keys


def _order_keys(
    loop_names: Sequence[str], orders: np.ndarray
) -> List[np.ndarray]:
    """Sort keys of an order matrix (loop columns into ``loop_names``),
    most significant first: comparing the key lists compares the orders'
    tuples of loop names."""
    rank = np.argsort(np.argsort(loop_names))
    bits = max(1, (len(loop_names) - 1).bit_length())
    return _packed_keys(rank[orders], bits)


def enumerate_orders(
    chain: OperatorChain,
    max_orders: Optional[int] = None,
    prefix: frozenset = frozenset(),
) -> Iterator[Tuple[str, ...]]:
    """Yield canonical block execution orders (outermost loop first).

    Args:
        chain: the chain to order.
        max_orders: optional hard cap; a deterministic stride-sample is used
            beyond it so the whole space stays represented.
        prefix: loop names that must occupy the outermost positions (in any
            relative order) — the hierarchy-consistency constraint for
            inner memory levels (loops split by outer levels iterate above
            everything at this level).
    """
    names = tuple(chain.loop_extents())
    columns = {name: col for col, name in enumerate(names)}
    orders, _ = _order_matrix(chain, columns, max_orders, prefix)
    for row in orders.tolist():
        yield tuple(names[col] for col in row)


def _split_classes(
    classes: Sequence[Sequence[str]], prefix: frozenset
) -> Tuple[List[List[str]], List[List[str]]]:
    """Partition interchangeability classes into prefix and tail groups."""
    head_classes: List[List[str]] = []
    tail_classes: List[List[str]] = []
    for members in classes:
        head = [m for m in members if m in prefix]
        tail = [m for m in members if m not in prefix]
        if head:
            head_classes.append(head)
        if tail:
            tail_classes.append(tail)
    return head_classes, tail_classes


def constrained_count(chain: OperatorChain, prefix: frozenset = frozenset()) -> int:
    """Size of the canonical order space under a ``prefix`` constraint.

    With a non-empty prefix the space is the product of the head and tail
    multiset-permutation counts — comparing an enumeration against the
    *unconstrained* :func:`count_orders` would misreport a complete scan as
    truncated.
    """
    if not prefix:
        return count_orders(chain)
    head_classes, tail_classes = _split_classes(loop_classes(chain), prefix)
    return _count_multiset(head_classes) * _count_multiset(tail_classes)


def _count_multiset(classes: Sequence[Sequence[str]]) -> int:
    total = 1
    produced = 0
    for members in classes:
        for _ in members:
            produced += 1
            total = total * produced
        factorial = 1
        for i in range(2, len(members) + 1):
            factorial *= i
        total //= factorial
    return total


def count_orders(chain: OperatorChain) -> int:
    """Size of the canonical order space (multiset permutation count)."""
    return _count_multiset(loop_classes(chain))


class OrderSpace:
    """Deduplicated candidate orders for one chain.

    The space keeps one representative order per distinct DV signature —
    the lexicographically smallest enumerated order of its class, so the
    representative does not depend on enumeration sequence — listed in
    order of each class's first occurrence in the enumeration.  Orders are
    held as rows of loop columns beside their signature rows (see
    :class:`~repro.core.tables.SignatureTables`), and a
    :class:`MovementModel` is built only when asked for: :meth:`model`
    builds one, :attr:`models` all of them (once), while :meth:`ranked`
    ranks the representatives from their rows.

    Attributes:
        enumerated: how many canonical permutations were scanned.
        total: size of the canonical space *under the enumeration's prefix
            constraint* (see :func:`constrained_count`).
        truncated: True when ``max_orders`` clipped the scan.
    """

    def __init__(
        self,
        chain: OperatorChain,
        tables: SignatureTables,
        orders: np.ndarray,
        rows: np.ndarray,
        enumerated: int,
        total: int,
    ) -> None:
        self.enumerated = enumerated
        self.total = total
        self._chain = chain
        self._tables = tables
        self._orders = orders
        self._rows = rows
        self._models: Optional[List[MovementModel]] = None

    @property
    def truncated(self) -> bool:
        return self.enumerated < self.total

    def __len__(self) -> int:
        return self._orders.shape[0]

    def model(self, index: int) -> MovementModel:
        """The movement model of representative ``index``."""
        names = self._tables.loop_names
        return MovementModel(
            self._chain,
            tuple(names[col] for col in self._orders[index].tolist()),
            reuse_intermediates=self._tables.reuse_intermediates,
        )

    @property
    def models(self) -> List[MovementModel]:
        """One :class:`MovementModel` per signature, representatives in
        first-occurrence order."""
        if self._models is None:
            self._models = [self.model(i) for i in range(len(self))]
        return self._models

    def ranked(
        self,
        probe: Mapping[str, float],
        capacity: float,
        *,
        allow_enlarged: bool,
    ) -> List[int]:
        """Representative indices ranked by one probe tile point.

        Orders whose MU at ``probe`` exceeds ``capacity`` sort last, the
        rest by smooth DV at ``probe``; ties break on the order tuple, not
        the enumeration index, which shifts under ``max_orders`` stride
        sampling.  Unless ``allow_enlarged``, orders with enlarged
        intermediate buffers (:attr:`MovementModel.has_enlarged_buffers`)
        are left out, or kept all when every order has them.  The scores
        are one batch over the signature rows, bit-identical to each
        order's ``MovementModel.usage`` and smooth ``MovementModel.volume``.
        """
        tables = self._tables
        candidates = np.arange(len(self))
        if not allow_enlarged:
            plain = candidates[~tables.enlarged(self._rows)]
            candidates = plain if plain.size else candidates
        if candidates.size <= 1:
            return candidates.tolist()
        rows = self._rows[candidates]
        tiles = np.broadcast_to(
            np.array([probe[name] for name in tables.loop_names]),
            (candidates.size, len(tables.loop_names)),
        )
        keys = [
            tables.usage(rows, tiles) > capacity,
            tables.volume(rows, tiles, exact=False),
        ] + _order_keys(tables.loop_names, self._orders[candidates])
        return candidates[np.lexsort(keys[::-1])].tolist()


def candidate_models(
    chain: OperatorChain,
    *,
    max_orders: Optional[int] = 200_000,
    prefix: frozenset = frozenset(),
    reuse_intermediates: bool = True,
) -> OrderSpace:
    """Enumerate the canonical orders and keep one per DV signature.

    This is the enumeration driver the optimizer uses: scanning is cheap
    (no solving, no model per order), and the expensive tile solve
    afterwards runs once per unique signature rather than once per
    permutation.  ``prefix`` constrains the outermost positions (see
    :func:`enumerate_orders`); ``reuse_intermediates=False`` charges
    intermediate tensors like IO (used for inner memory levels, where
    inter-operator data does move).
    """
    tables = SignatureTables(chain, reuse_intermediates)
    orders, total = _order_matrix(chain, tables.index, max_orders, prefix)
    rows = tables.rows_of(orders)
    # Canonical representative: the lexicographically smallest order of
    # each signature class.  First-enumerated would silently change under
    # ``max_orders`` stride sampling, and with it every DV tie resolved
    # downstream.  One stable sort by (signature row, order's loop names)
    # puts each class together with its representative first.
    row_keys = _packed_keys(rows, len(tables.loop_names))
    keys = row_keys + _order_keys(tables.loop_names, orders)
    by_class = np.lexsort(keys[::-1])
    starts = np.zeros(by_class.size, dtype=bool)
    starts[0] = True
    for key in row_keys:
        ordered = key[by_class]
        starts[1:] |= ordered[1:] != ordered[:-1]
    first_of_class = np.flatnonzero(starts)
    first = np.minimum.reduceat(by_class, first_of_class)
    keep = by_class[first_of_class][np.argsort(first)]
    return OrderSpace(
        chain, tables, orders[keep], rows[keep], orders.shape[0], total
    )
