"""The batched canonical descent against the one-scan-at-a-time oracle.

:func:`repro.core.solver._canonical_descent` scores each pass as stacked
batches and applies the first scan that moves; ``tests/descent_oracle.py``
scores one scan at a time.  Both must return the same ``(dv, mu, tiles)``
— compared with ``==`` — from every start point:

* the starts ``solve_tiles`` itself hands the descent (the lattice point
  of SLSQP's landing point, of a warm-start hint, or of the infeasible
  fallback), recorded by a spy;
* lattice corners, the all-lower point and seeded random in-box points
  of the same solves.

The solves cover GEMM, batch GEMM with and without softmax, conv with
1x1 and 3x3 kernels and an MLP, at tight, medium and loose capacities,
plain and with quanta, ascend-910's Unified Buffer constraint (tightened
until it binds) and an inner level under ``max_parent`` with
``hard_min_tiles``.  Every comparison runs at
the default batch row cap and at a cap of a few rows, which splits every
pass into many batches.
"""

import math
import random
from unittest import mock

import pytest

import repro.core.solver as solver
from repro.core.movement import MovementModel
from repro.core.optimizer import ChimeraOptimizer
from repro.core.reordering import candidate_models
from repro.core.tables import FootprintConstraint
from repro.hardware import preset
from repro.ir.chains import batch_gemm_chain, conv_chain, gemm_chain, mlp_chain
from tests.descent_oracle import sequential_descent

CHAINS = {
    "gemm": lambda: gemm_chain(96, 80, 64, 112),
    "batch_gemm": lambda: batch_gemm_chain(2, 64, 48, 40, 72),
    "batch_gemm_softmax": lambda: batch_gemm_chain(
        2, 64, 48, 40, 72, with_softmax=True
    ),
    "conv_1x1": lambda: conv_chain(1, 16, 14, 14, 24, 16, 1, 1, 1, 1),
    "conv_3x3": lambda: conv_chain(1, 8, 12, 12, 16, 8, 1, 1, 3, 3),
    "mlp": lambda: mlp_chain(48, 40, 96, 32),
}

SCENARIOS = ("plain", "quanta", "unified_buffer", "inner_level")

#: A batch row cap small enough to split every pass into many batches.
TINY_CAP = 7


def _same(left, right):
    """``==`` on ``(dv, mu, tiles)``; an infeasible end point's DV is NaN
    on both sides."""
    (dv_a, mu_a, tiles_a), (dv_b, mu_b, tiles_b) = left, right
    same_dv = dv_a == dv_b or (math.isnan(dv_a) and math.isnan(dv_b))
    return same_dv and mu_a == mu_b and tiles_a == tiles_b


def _models(chain):
    models = candidate_models(chain).models
    return [models[0], models[len(models) // 2]]


def _capacities(model):
    """Tight, medium and loose capacities between the all-ones and the
    whole-loop footprints."""
    extents = model.chain.loop_extents()
    small = model.usage({name: 1 for name in extents})
    large = model.usage(dict(extents))
    return [small * (large / small) ** f for f in (0.2, 0.5, 0.85)]


def _solve_kwargs(scenario, model, capacity):
    chain = model.chain
    names = list(model.perm)
    extents = chain.loop_extents()
    if scenario == "plain":
        return {}
    if scenario == "quanta":
        return {
            "quanta": {names[0]: 8, names[-1]: 4},
            "min_tiles": {name: 4 for name in names},
        }
    if scenario == "unified_buffer":
        ub = ChimeraOptimizer(preset("ascend-910")).extra_constraint(chain)
        assert ub is not None, "every test chain has an intermediate"
        # The preset's buffer, tightened until it binds here.
        writes = [
            chain.producers_of(tensor)[0].access_of(tensor)
            for tensor in chain.intermediate_tensors()
        ]
        return {
            "constraint": FootprintConstraint(
                chain, writes, min(ub.capacity, capacity / 3)
            )
        }
    assert scenario == "inner_level"
    rng = random.Random(f"parent-{chain.name}-{capacity}")
    parent = {n: rng.randint(max(1, extents[n] // 3), extents[n]) for n in names}
    pinned = names[len(names) // 2]
    return {
        "max_parent": parent,
        "hard_min_tiles": {pinned: max(1, parent[pinned] // 2)},
        "min_tiles": {name: 2 for name in names},
    }


def _recorded(model, capacity, **kwargs):
    """``(args, kwargs)`` of every descent ``solve_tiles`` runs."""
    calls = []
    real = solver._canonical_descent

    def spy(*args, **kw):
        calls.append((args, kw))
        return real(*args, **kw)

    with mock.patch.object(solver, "_canonical_descent", spy):
        solver.solve_tiles(model, capacity, **kwargs)
    return calls


def _extra_starts(args, rng):
    """Lattice corners, the all-lower point and random in-box points of a
    recorded descent's bounds."""
    base, names, lower, upper = args[1], args[3], args[4], args[5]
    lo = [int(v) for v in lower]
    hi = [int(v) for v in upper]
    points = [lo, hi]
    points.append([rng.choice(pair) for pair in zip(lo, hi)])
    points += [[rng.randint(a, b) for a, b in zip(lo, hi)] for _ in range(2)]
    starts = []
    for values in points:
        start = dict(base)
        start.update(zip(names, values))
        starts.append(start)
    return starts


def _hints(model, rng, count=1):
    """Hint-style tiles: drawn from ``[1, extent]``, some loops omitted."""
    extents = model.chain.loop_extents()
    return [
        {
            name: rng.randint(1, extents[name])
            for name in model.perm
            if rng.random() > 0.3
        }
        for _ in range(count)
    ]


def _compare(args, kw, start):
    call = (args[0], start) + tuple(args[2:])
    expected = sequential_descent(*call, **kw)
    for cap in (solver._DESCENT_BATCH_ROWS, TINY_CAP):
        with mock.patch.object(solver, "_DESCENT_BATCH_ROWS", cap):
            got = solver._canonical_descent(*call, **kw)
        assert _same(got, expected), (start, cap, got, expected)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("family", sorted(CHAINS))
def test_batched_descent_matches_sequential(family, scenario):
    chain = CHAINS[family]()
    rng = random.Random(f"descent-{family}-{scenario}")
    compared = 0
    for model in _models(chain):
        for capacity in _capacities(model):
            kwargs = _solve_kwargs(scenario, model, capacity)
            calls = _recorded(model, capacity, **kwargs)
            for hint in _hints(model, rng):
                calls += _recorded(model, capacity, x0_hint=hint, **kwargs)
            for args, kw in calls:
                for start in [args[1]] + _extra_starts(args, rng):
                    _compare(args, kw, start)
                    compared += 1
    assert compared >= 12


def test_pass_above_the_batch_row_cap():
    """A constrained solve keeps full aligned grids, so one
    single-coordinate pass here stacks more rows than the cap and is
    scored in several batches."""
    chain = batch_gemm_chain(1, 4096, 64, 64, 4096, name="descent_wide")
    model = MovementModel(chain, ("b", "m", "l", "k", "n"))
    constraint = ChimeraOptimizer(preset("ascend-910")).extra_constraint(chain)
    calls = _recorded(model, 512 * 1024.0, constraint=constraint)
    assert calls
    args, kw = calls[0]
    lower, upper = args[4], args[5]
    single_rows = sum(int(hi) - int(lo) + 1 for lo, hi in zip(lower, upper))
    assert single_rows > solver._DESCENT_BATCH_ROWS
    rng = random.Random("descent-wide")
    for start in [args[1]] + _extra_starts(args, rng)[:3]:
        expected = sequential_descent(
            *((args[0], start) + tuple(args[2:])), **kw
        )
        got = solver._canonical_descent(
            *((args[0], start) + tuple(args[2:])), **kw
        )
        assert _same(got, expected), (start, got, expected)


def test_final_score_is_the_end_point_score():
    """The returned DV and MU are the end point's own, though the batched
    descent reads them from its last batch instead of scoring again."""
    chain = CHAINS["conv_3x3"]()
    model = _models(chain)[0]
    for capacity in _capacities(model):
        for args, kw in _recorded(model, capacity):
            dv, mu, tiles = solver._canonical_descent(*args, **kw)
            assert dv == model.volume(tiles, exact=True)
            assert mu == model.usage(tiles)
