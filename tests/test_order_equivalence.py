"""Differential suite: the signature-row order search against its oracle.

:func:`repro.core.reordering.candidate_models` enumerates orders as a
matrix and dedupes them by signature row, the optimizer's rank probe
scores signature rows, and :func:`repro.core.search.dv_lower_bounds`
bisects every (order, loop) pair in lockstep.  ``tests/order_oracle.py``
keeps the per-order path — one ``MovementModel`` (and one compiled
``MovementTables``) per order — and every comparison here is ``==``:
enumeration sequences, signature classes, representatives and their
order, probe scores and rankings, tile bounds and DV bounds.
"""

import math

import numpy as np
import pytest

from repro.core.movement import MovementModel
from repro.core.optimizer import ChimeraOptimizer, _probe_point
from repro.core.reordering import (
    candidate_models,
    constrained_count,
    count_orders,
    enumerate_orders,
    loop_classes,
    ordering_loops,
)
from repro.core.search import dv_lower_bounds, upper_tile_bounds
from repro.core.tables import SignatureTables
from repro.hardware import ascend_910
from repro.ir.chain import single_op_chain
from repro.ir.chains import conv_chain, conv_tower
from repro.workloads import TABLE_IV, TABLE_V

from tests.order_oracle import (
    candidate_models_reference,
    dv_lower_bound_reference,
    enumerate_orders_reference,
    probe_rank_reference,
    probe_row_reference,
    probe_scores_reference,
    unrank_reference,
    upper_tile_bounds_reference,
)


def _paper_chains():
    chains = [row.build() for row in TABLE_IV + TABLE_V]
    chains += [row.build(with_softmax=True) for row in TABLE_IV]
    chains += [row.build(with_relu=True) for row in TABLE_V]
    return chains


PAPER_CHAINS = _paper_chains()
#: The unfused alternative's chains: every op of the softmax and ReLU
#: variants, which hold the plain chains' ops too.
SINGLE_OP_CHAINS = [
    single_op_chain(op, chain.tensors)
    for chain in PAPER_CHAINS[len(TABLE_IV + TABLE_V):]
    for op in chain.ops
]
TWO_3X3 = conv_chain(1, 64, 56, 56, 64, 64, 1, 1, 3, 3)
CHAINS = PAPER_CHAINS + SINGLE_OP_CHAINS


def _ids(chains):
    return [f"{i}-{chain.name}" for i, chain in enumerate(chains)]


def _prefixes(chain):
    """No prefix, the outermost ordering loop, and two non-adjacent ones."""
    loops = ordering_loops(chain)
    prefixes = [frozenset()]
    if loops:
        prefixes.append(frozenset(loops[:1]))
    if len(loops) > 2:
        prefixes.append(frozenset({loops[0], loops[2]}))
    return prefixes


def _caps(total):
    """No cap, and caps that truncate the space (when it can be)."""
    caps = [None]
    if total > 2:
        caps += [total - 1, max(2, total // 3)]
    return caps


def _signature_rows(chain, reuse_intermediates, orders):
    """The chain's signature tables and the signature rows of ``orders``."""
    tables = SignatureTables(chain, reuse_intermediates)
    matrix = np.array(
        [[tables.index[name] for name in order] for order in orders],
        dtype=np.int64,
    ).reshape(len(orders), -1)
    return tables, tables.rows_of(matrix)


def _class_groups(chain, orders, reuse_intermediates):
    """Orders grouped by equal signature rows, as the oracle groups them."""
    _, rows = _signature_rows(chain, reuse_intermediates, orders)
    groups = {}
    for order, row in zip(orders, rows.tolist()):
        groups.setdefault(tuple(row), []).append(order)
    return list(groups.values())


def _check_space(chain, max_orders, prefix, reuse_intermediates):
    orders = list(enumerate_orders(chain, max_orders, prefix))
    assert orders == list(
        enumerate_orders_reference(chain, max_orders, prefix)
    )
    cap = 200_000 if max_orders is None else max_orders
    models, classes, enumerated, total = candidate_models_reference(
        chain, cap, prefix, reuse_intermediates
    )
    assert _class_groups(chain, orders, reuse_intermediates) == classes
    space = candidate_models(
        chain,
        max_orders=cap,
        prefix=prefix,
        reuse_intermediates=reuse_intermediates,
    )
    assert [m.perm for m in space.models] == [m.perm for m in models]
    assert [m.signature for m in space.models] == [
        m.signature for m in models
    ]
    assert space.enumerated == enumerated == len(orders)
    assert space.total == total
    assert space.truncated == (enumerated < total)
    tables, rows = _signature_rows(
        chain, reuse_intermediates, [m.perm for m in models]
    )
    enlarged = tables.enlarged(rows).tolist()
    assert enlarged == [m.has_enlarged_buffers for m in models]


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("chain", CHAINS, ids=_ids(CHAINS))
def test_space_matches_per_order_models(chain, reuse):
    for prefix in _prefixes(chain):
        for cap in _caps(constrained_count(chain, prefix)):
            _check_space(chain, cap, prefix, reuse)


@pytest.mark.parametrize(
    "max_orders,prefix,reuse",
    [
        (None, frozenset(), True),
        (None, frozenset({"oc2", "oh"}), False),
        (997, frozenset(), True),
        (301, frozenset({"ic", "ow"}), False),
    ],
)
def test_two_3x3_conv_space_matches_per_order_models(max_orders, prefix, reuse):
    _check_space(TWO_3X3, max_orders, prefix, reuse)


def test_stride_sample_of_a_space_past_int64():
    """Picks follow the scalar ``target += stride`` loop exactly."""
    chain = conv_tower(1, 8, 32, 32, [8, 9, 10, 11, 12, 13, 14], [3] * 7)
    total = count_orders(chain)
    assert total >= 2**63
    stride = total / 5
    target, ranks = 0.0, []
    for _ in range(5):
        ranks.append(math.ceil(target))
        target += stride
    expected = [
        unrank_reference(loop_classes(chain), rank)
        for rank in ranks
        if rank < total
    ]
    assert list(enumerate_orders(chain, 5)) == expected
    space = candidate_models(chain, max_orders=5)
    assert (space.enumerated, space.total) == (len(expected), total)


def _parent(chain, divisor):
    return {
        name: max(1, extent // divisor)
        for name, extent in chain.loop_extents().items()
    }


#: Capacities from below all-ones tiles to loose, in bytes.
CAPACITIES = (1.0, 4096.0, 96 * 1024.0, 4.0 * 1024**3)


def _probe_cases(chain):
    """(reuse, min_tiles, parent) per level shape the optimizer probes."""
    min_tiles = {
        name: min(8, extent) for name, extent in chain.loop_extents().items()
    }
    return [
        (True, min_tiles, None),
        (False, min_tiles, _parent(chain, 3)),
    ]


@pytest.mark.parametrize("chain", PAPER_CHAINS + [TWO_3X3],
                         ids=_ids(PAPER_CHAINS + [TWO_3X3]))
def test_probe_scores_and_rank_match_compiled_tables(chain):
    for reuse, min_tiles, parent in _probe_cases(chain):
        space = candidate_models(chain, reuse_intermediates=reuse)
        models = space.models
        tables, rows = _signature_rows(chain, reuse, [m.perm for m in models])
        for capacity in CAPACITIES:
            probe = _probe_point(chain, min_tiles, capacity, parent)
            row = [probe[name] for name in tables.loop_names]
            assert row == probe_row_reference(
                models, min_tiles, capacity, parent
            )
            tiles = np.broadcast_to(np.array(row), (len(models), len(row)))
            over = tables.usage(rows, tiles) > capacity
            volume = tables.volume(rows, tiles, exact=False)
            scores = [
                (int(flag), float(dv))
                for flag, dv in zip(over.tolist(), volume.tolist())
            ]
            assert scores == probe_scores_reference(
                models, min_tiles, capacity, parent
            )
            for allow_enlarged in (True, False):
                candidates = [
                    m for m in models
                    if allow_enlarged or not m.has_enlarged_buffers
                ] or models
                ranked = space.ranked(
                    probe, capacity, allow_enlarged=allow_enlarged
                )
                reference = probe_rank_reference(
                    candidates, min_tiles, capacity, parent
                )
                assert [models[i].perm for i in ranked] == [
                    m.perm for m in reference
                ]


def _bound_cases(chain):
    ub = ChimeraOptimizer(ascend_910()).extra_constraint(chain)
    return [
        (None, None),
        (ub, None),
        (ub, _parent(chain, 4)),
        (ub, _parent(chain, 2)),
    ]


def _check_bounds(models, capacity, constraint, parent):
    bounds = dv_lower_bounds(models, capacity, constraint, parent)
    assert bounds == [
        dv_lower_bound_reference(m, capacity, constraint, parent)
        for m in models
    ]
    for model in models[:4]:
        assert upper_tile_bounds(
            model, capacity, constraint, parent
        ) == upper_tile_bounds_reference(model, capacity, constraint, parent)
    return bounds


@pytest.mark.parametrize("chain", CHAINS, ids=_ids(CHAINS))
def test_bounds_match_per_model_bisection(chain):
    finite = 0
    for reuse in (True, False):
        models = candidate_models(chain, reuse_intermediates=reuse).models
        # Every signature of small spaces; an even spread of large ones.
        models = models[:: max(1, len(models) // 24)]
        for constraint, parent in _bound_cases(chain):
            for capacity in CAPACITIES:
                bounds = _check_bounds(models, capacity, constraint, parent)
                finite += sum(1 for b in bounds if not math.isinf(b))
                if capacity == CAPACITIES[0]:
                    assert all(math.isinf(b) for b in bounds)
    assert finite


def test_two_3x3_conv_bounds_match_per_model_bisection():
    space = candidate_models(TWO_3X3)
    min_tiles = {n: min(8, e) for n, e in TWO_3X3.loop_extents().items()}
    probe = _probe_point(TWO_3X3, min_tiles, 96 * 1024.0, None)
    ranked = space.ranked(probe, 96 * 1024.0, allow_enlarged=True)
    models = [space.model(i) for i in ranked[:64]]
    for constraint, parent in _bound_cases(TWO_3X3):
        for capacity in CAPACITIES:
            _check_bounds(models, capacity, constraint, parent)


def test_bounds_of_mixed_chains_keep_their_positions():
    """Models of several chains, reuse flags and order lengths bound in
    one call."""
    chains = PAPER_CHAINS[:3]
    models = []
    for chain in chains:
        for reuse in (True, False):
            models += candidate_models(
                chain, reuse_intermediates=reuse
            ).models[:3]
    # The two-3x3 chain's batch loop has extent 1, so orders may name it.
    for model in candidate_models(TWO_3X3).models[:2]:
        models += [
            model,
            MovementModel(TWO_3X3, ("n",) + model.perm),
            MovementModel(TWO_3X3, model.perm + ("n",)),
        ]
    models = models[::-1]
    assert dv_lower_bounds(models, 96 * 1024.0) == [
        dv_lower_bound_reference(m, 96 * 1024.0) for m in models
    ]
