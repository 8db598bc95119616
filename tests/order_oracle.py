"""The per-order model path: the oracle for the signature-row order search.

:mod:`repro.core.reordering` enumerates orders as a matrix and dedupes,
filters, ranks and bounds them as signature rows, building a
:class:`~repro.core.movement.MovementModel` only for the orders the search
keeps.  The references here take the direct route, one model (and one
compiled :class:`~repro.core.tables.MovementTables`) per order, so the
differential suite can compare the two with ``==``:

* :func:`enumerate_orders_reference` — recursive multiset permutations,
  stride-sampled past ``max_orders``, and :func:`unrank_reference` for
  one order of a space too large to walk;
* :func:`candidate_models_reference` — a ``MovementModel`` per enumerated
  order, grouped by :attr:`~repro.core.movement.MovementModel.signature`;
* :func:`probe_scores_reference` / :func:`probe_rank_reference` — the
  optimizer's rank probe through each candidate's compiled tables;
* :func:`upper_tile_bounds_reference` / :func:`dv_lower_bound_reference`
  — the per-model lockstep bisection and the exact DV at its bounds.
"""

import math
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.movement import MovementModel
from repro.core.reordering import (
    _split_classes,
    constrained_count,
    loop_classes,
)
from repro.core.tables import TablesEvaluator, movement_tables


def multiset_permutations(classes) -> Iterator[Tuple[str, ...]]:
    """All orders where each class's members keep their given relative
    order, in lexicographic order of class labels."""
    labels: List[int] = []
    for index, members in enumerate(classes):
        labels.extend([index] * len(members))
    total = len(labels)
    counts = [len(members) for members in classes]

    def recurse(prefix: List[int]) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for index in range(len(classes)):
            if counts[index] > 0:
                counts[index] -= 1
                prefix.append(index)
                yield from recurse(prefix)
                prefix.pop()
                counts[index] += 1

    for label_seq in recurse([]):
        cursors = [0] * len(classes)
        order: List[str] = []
        for label in label_seq:
            order.append(classes[label][cursors[label]])
            cursors[label] += 1
        yield tuple(order)


def unrank_reference(classes, rank):
    """Order ``rank`` of :func:`multiset_permutations`, in Python integers
    and without the orders before it (for spaces too large to walk)."""
    counts = [len(members) for members in classes]
    cursors = [0] * len(classes)
    order = []
    for left in range(sum(counts), 0, -1):
        multinomial = math.factorial(left)
        for count in counts:
            multinomial //= math.factorial(count)
        for label, count in enumerate(counts):
            ways = multinomial * count // left
            if rank < ways:
                break
            rank -= ways
        order.append(classes[label][cursors[label]])
        cursors[label] += 1
        counts[label] -= 1
    return tuple(order)


def enumerate_orders_reference(chain, max_orders=None, prefix=frozenset()):
    """:func:`~repro.core.reordering.enumerate_orders`, one order at a time."""
    classes = loop_classes(chain)
    if prefix:
        head_classes, tail_classes = _split_classes(classes, prefix)

        def generate():
            for head_order in multiset_permutations(head_classes):
                for tail_order in multiset_permutations(tail_classes):
                    yield head_order + tail_order

        source = generate()
    else:
        source = multiset_permutations(classes)
    total = constrained_count(chain, prefix)
    if max_orders is None or total <= max_orders:
        yield from source
        return
    stride = total / max_orders
    target = 0.0
    emitted = 0
    for index, order in enumerate(source):
        if index >= target and emitted < max_orders:
            yield order
            emitted += 1
            target += stride


def candidate_models_reference(
    chain, max_orders=200_000, prefix=frozenset(), reuse_intermediates=True
):
    """``(models, classes, enumerated, total)`` from one model per order.

    ``classes`` lists the enumerated orders grouped by their model's
    signature — groups in order of first occurrence, orders in enumeration
    order — and ``models`` holds one model per class, built from its
    lexicographically smallest order.
    """
    classes: Dict[Tuple, List[Tuple[str, ...]]] = {}
    enumerated = 0
    for order in enumerate_orders_reference(chain, max_orders, prefix):
        enumerated += 1
        model = MovementModel(
            chain, order, reuse_intermediates=reuse_intermediates
        )
        classes.setdefault(model.signature, []).append(order)
    models = [
        MovementModel(
            chain, min(orders), reuse_intermediates=reuse_intermediates
        )
        for orders in classes.values()
    ]
    groups = list(classes.values())
    return models, groups, enumerated, constrained_count(chain, prefix)


def probe_point_reference(models, min_tiles, capacity, parent_tiles):
    """The rank probe's tiles (``repro.core.optimizer._probe_point``)."""
    chain = models[0].chain
    extents = chain.loop_extents()
    elem_bytes = max(spec.dtype.nbytes for spec in chain.tensors.values())
    side = max(2.0, math.sqrt(capacity / (3.0 * elem_bytes)))
    parent = parent_tiles or {}
    probe = {}
    for name in extents:
        bound = min(extents[name], parent.get(name, extents[name]))
        probe[name] = float(
            max(min(min_tiles.get(name, 1), bound), min(bound, side))
        )
    return probe


def probe_row_reference(models, min_tiles, capacity, parent_tiles):
    """The rank probe's tile row over the chain's loop universe."""
    probe = probe_point_reference(models, min_tiles, capacity, parent_tiles)
    return movement_tables(models[0]).row_of(probe)


def probe_scores_reference(models, min_tiles, capacity, parent_tiles):
    """``(over capacity, smooth DV)`` of every model at the probe point:
    MU through its own compiled tables, DV through the model."""
    probe = probe_point_reference(models, min_tiles, capacity, parent_tiles)
    row = movement_tables(models[0]).row_of(probe)
    scores = []
    for model in models:
        scores.append(
            (
                0 if movement_tables(model).usage_row(row) <= capacity else 1,
                model.volume(probe, exact=False),
            )
        )
    return scores


def probe_rank_reference(models, min_tiles, capacity, parent_tiles):
    """The models sorted by ``(over capacity, smooth DV, order tuple)``."""
    if len(models) <= 1:
        return list(models)
    scores = probe_scores_reference(models, min_tiles, capacity, parent_tiles)
    ranked = sorted(
        zip(scores, models), key=lambda pair: (pair[0], pair[1].perm)
    )
    return [model for _, model in ranked]


def upper_tile_bounds_reference(
    model, capacity, constraint=None, max_parent=None
):
    """Per-loop capacity-relaxed maximum tiles of one model, bisected over
    its own compiled tables."""
    extents = model.chain.loop_extents()
    parent = max_parent or {}
    names = list(model.perm)
    width = len(names)
    evaluator = TablesEvaluator(model, names, constraint)

    def fits(values):
        return evaluator.fits_batch(values, capacity)

    if not bool(fits(np.ones((1, width)))[0]):
        return None
    hi = np.array(
        [max(1, min(extents[n], parent.get(n, extents[n]))) for n in names],
        dtype=np.int64,
    )
    probes = np.ones((width, width))
    probes[np.arange(width), np.arange(width)] = hi.astype(float)
    fit_hi = fits(probes)
    lo = np.ones(width, dtype=np.int64)
    hi_search = hi.copy()
    active = ~fit_hi
    while True:
        work = np.nonzero(active & (hi_search - lo > 1))[0]
        if not work.size:
            break
        mids = (lo[work] + hi_search[work]) // 2
        rows = np.ones((work.size, width))
        rows[np.arange(work.size), work] = mids.astype(float)
        fit_mid = fits(rows)
        lo[work] = np.where(fit_mid, mids, lo[work])
        hi_search[work] = np.where(fit_mid, hi_search[work], mids)
    return {
        name: int(hi[i]) if fit_hi[i] else int(lo[i])
        for i, name in enumerate(names)
    }


def dv_lower_bound_reference(model, capacity, constraint=None, max_parent=None):
    """Exact DV at :func:`upper_tile_bounds_reference`, ``inf`` if none."""
    bounds = upper_tile_bounds_reference(
        model, capacity, constraint, max_parent
    )
    if bounds is None:
        return math.inf
    return model.volume(bounds, exact=True)
