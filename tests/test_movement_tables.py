"""Bit-for-bit equivalence of the compiled movement tables.

The tables promise to replay :class:`MovementModel`'s exact
floating-point operation sequence — not merely to agree within a
tolerance — so the model is their oracle.  The fuzz below therefore
compares with ``==`` on floats: every (chain family, candidate order)
pair samples degenerate corners (all-ones tiles, full extents,
quantum-off lattice points) plus seeded interior points, and asserts the
row path and the padded ``(N, L)`` batch path — all of a model's samples
in one batch — reproduce ``MovementModel.volume``/``usage`` and both
analytic gradients exactly, and a :class:`FootprintConstraint`'s row,
batch and gradient reproduce a footprint sum written here.
"""

import gc
import random
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.core.tables as tables_module
from repro.core.footprint import footprint_bytes
from repro.core.movement import MovementModel, algorithm1
from repro.core.reordering import candidate_models
from repro.core.search import dv_lower_bounds
from repro.core.tables import (
    FootprintConstraint,
    MovementTables,
    SignatureTables,
    clear_tables_memo,
    evaluator_for,
    movement_tables,
    tables_memo_stats,
)
from repro.ir.chains import (
    attention_chain,
    batch_gemm_chain,
    conv_chain,
    conv_tower,
    gemm_chain,
    mlp_chain,
    separable_chain,
)
from repro.memo import LRUMemo
from repro.workloads import gemm_chain_config


def _chains():
    return [
        ("gemm", batch_gemm_chain(1, 32, 24, 16, 40, name="tbl_gemm")),
        ("gemm_softmax", gemm_chain_config("G1").build(with_softmax=True)),
        ("conv", conv_chain(1, 8, 14, 14, 12, 8, 1, 1, 3, 1, name="tbl_conv")),
        (
            "conv_stride",
            conv_chain(1, 8, 16, 16, 12, 8, 2, 1, 3, 3, name="tbl_strided"),
        ),
    ]


def _sample_models(chain, count=4):
    """A spread of candidate orders: first, last, and interior picks."""
    models = candidate_models(chain).models
    if len(models) <= count:
        return list(models)
    step = max(1, len(models) // count)
    return list(models[::step][:count])


def _tile_samples(model, rng, interior=6):
    extents = model.chain.loop_extents()
    names = list(model.perm)
    samples = [
        {n: 1 for n in names},
        {n: extents[n] for n in names},
    ]
    corner_pool = lambda n: [
        1,
        extents[n],
        max(1, extents[n] // 2),
        max(1, extents[n] // 2 + 1),  # quantum-off lattice point
        min(extents[n], 3),
        min(extents[n], 7),
    ]
    for _ in range(interior):
        samples.append({n: rng.choice(corner_pool(n)) for n in names})
    for _ in range(interior):
        samples.append(
            {n: rng.uniform(1.0, float(extents[n])) for n in names}
        )
    return samples


def _drawn_samples(family, chain):
    """``(model, tile samples)`` per sampled order, from one seeded draw
    per chain family."""
    rng = random.Random(f"tables-{family}")
    return [(model, _tile_samples(model, rng)) for model in _sample_models(chain)]


def _producer_writes(chain):
    """The intermediates' producer writes: the Unified Buffer's group."""
    return [
        chain.producers_of(tensor)[0].access_of(tensor)
        for tensor in chain.intermediate_tensors()
    ]


def _footprint_sum(chain, accesses, tiles, capacity):
    """``sum(footprint_bytes) - capacity`` and its partials per loop.

    Sums one access at a time: Python 3.12's ``sum`` compensates float
    rounding, which a sequential reference must not."""
    usage = 0.0
    grad = {}
    for access in accesses:
        usage += footprint_bytes(chain, access, tiles)
        spans = [dim.footprint(tiles) for dim in access.dims]
        fp_bytes = footprint_bytes(chain, access, tiles)
        for dim, span in zip(access.dims, spans):
            for name, coeff in dim.terms:
                grad[name] = grad.get(name, 0.0) + fp_bytes * (coeff / span)
    return usage - capacity, grad


@pytest.mark.parametrize("family,chain", _chains(), ids=lambda v: str(v))
def test_tables_match_scalar_bit_for_bit(family, chain):
    for model, samples in _drawn_samples(family, chain):
        tables = MovementTables(model)
        rows = [tables.row_of(tiles) for tiles in samples]
        for tiles, row in zip(samples, rows):
            assert tables.usage_row(row) == model.usage(tiles)
        # Every sample scored as one multi-row batch.
        batch = np.array(rows)
        volumes = tables.volume_batch(batch)
        usages = tables.usage_batch(batch)
        for i, tiles in enumerate(samples):
            assert float(volumes[i]) == model.volume(tiles, exact=True)
            assert float(usages[i]) == model.usage(tiles)


@pytest.mark.parametrize("family,chain", _chains(), ids=lambda v: str(v))
def test_footprint_constraint_matches_footprint_sum(family, chain):
    """Row, batch and gradient of the compiled constraint equal, bit for
    bit, the footprint sum over the producer writes and its partials, on
    the tiles the tables test draws."""
    writes = _producer_writes(chain)
    assert writes
    constraint = FootprintConstraint(chain, writes, 4096.0)
    for model, samples in _drawn_samples(family, chain):
        tables = MovementTables(model)
        rows = [tables.row_of(tiles) for tiles in samples]
        slacks = constraint.batch(np.array(rows))
        for i, (tiles, row) in enumerate(zip(samples, rows)):
            slack, grad = _footprint_sum(chain, writes, tiles, 4096.0)
            assert constraint.row(row) == slack
            assert float(slacks[i]) == slack
            partials = constraint.gradient_row(row)
            for name, col in tables.index.items():
                assert partials[col] == grad.get(name, 0.0)


#: One small chain per family, for properties that hold for all of them.
FAMILIES = {
    "gemm": lambda: gemm_chain(48, 40, 32, 56),
    "batch_gemm": lambda: batch_gemm_chain(2, 32, 24, 16, 40),
    "batch_gemm_softmax": lambda: batch_gemm_chain(
        2, 32, 24, 16, 40, with_softmax=True
    ),
    "attention": lambda: attention_chain(2, 48, 16),
    "conv": lambda: conv_chain(1, 8, 14, 14, 12, 8, 1, 1, 3, 3),
    "conv_stride": lambda: conv_chain(1, 8, 16, 16, 12, 8, 2, 1, 3, 1),
    "separable": lambda: separable_chain(1, 8, 14, 14, 12, with_relu=True),
    "conv_tower": lambda: conv_tower(1, 8, 12, 12, (8, 8, 12), (3, 1, 3)),
    "mlp": lambda: mlp_chain(24, 16, 48, 16),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_footprint_constraint_is_monotone_in_every_tile(family):
    """Growing any one tile never lowers the constraint's value — the
    property the solver's verdicts and the bound bisection rely on."""
    chain = FAMILIES[family]()
    constraint = FootprintConstraint(chain, _producer_writes(chain), 0.0)
    extents = np.array(list(chain.loop_extents().values()), dtype=float)
    rng = np.random.default_rng(sum(map(ord, family)))
    base = np.floor(rng.uniform(1.0, extents + 1.0, (64, len(extents))))
    values = constraint.batch(base)
    for col, extent in enumerate(extents):
        grown = base.copy()
        grown[:, col] = np.floor(rng.uniform(base[:, col], extent + 1.0))
        assert (constraint.batch(grown) >= values).all(), family
        # Real-valued tiles too: SLSQP evaluates between integers.
        grown[:, col] = rng.uniform(base[:, col], extent)
        assert (constraint.batch(grown) >= values).all(), family


def test_constraint_rejects_another_loop_universe():
    """A constraint compiled for one chain's loops cannot score the rows
    of a chain with other loops, from the solver or the bounds."""
    gemm = gemm_chain(48, 40, 32, 56)
    conv = conv_chain(1, 8, 14, 14, 12, 8, 1, 1, 3, 3)
    constraint = FootprintConstraint(gemm, _producer_writes(gemm), 4096.0)
    model = candidate_models(conv).models[0]
    with pytest.raises(ValueError, match="loops"):
        evaluator_for(model, list(model.perm), constraint)
    with pytest.raises(ValueError, match="loops"):
        dv_lower_bounds([model], 1e9, constraint)
    # Its own chain's tables pass; the same loops in another order are
    # another universe.
    constraint.check_universe(
        movement_tables(candidate_models(gemm).models[0]).loop_names
    )
    constraint.check_universe(SignatureTables(gemm, True).loop_names)
    with pytest.raises(ValueError, match="loops"):
        constraint.check_universe(constraint.loop_names[::-1])


@pytest.mark.parametrize("family,chain", _chains(), ids=lambda v: str(v))
def test_gradient_rows_match_scalar_bit_for_bit(family, chain):
    rng = random.Random(f"grads-{family}")
    for model in _sample_models(chain, count=3):
        tables = MovementTables(model)
        index = tables.index
        for tiles in _tile_samples(model, rng, interior=4):
            row = tables.row_of(tiles)
            ref_volume, ref_vgrad = model.volume_smooth_gradient(tiles)
            ref_usage, ref_ugrad = model.usage_gradient(tiles)
            volume, vgrad = tables.volume_smooth_gradient_row(row)
            usage, ugrad = tables.usage_gradient_row(row)
            assert volume == ref_volume
            assert usage == ref_usage
            for name in model.perm:
                assert vgrad[index[name]] == ref_vgrad[name]
                assert ugrad[index[name]] == ref_ugrad[name]


#: Exact (DV, MU) in bytes of ``gemm_chain(64, 48, 32, 80)`` (FP16) at
#: tiles m16 n8 k8 l16, per block order.  mlkn is Table III's closed form
#: ``(MK + MN) ceil(L/T_L) + (K + N) L ceil(M/T_M)`` =
#: ``(2048 + 3072) * 5 + 80 * 80 * 4`` = 51200 elements.  MU is the
#: model's, which keeps enlarged distribution buffers resident.
PINNED_GEMM_CHAIN = {
    "mnkl": (61440, 3072),
    "mnlk": (77824, 3072),
    "mknl": (61440, 3072),
    "mkln": (86016, 3072),
    "mlnk": (102400, 1024),
    "mlkn": (102400, 1024),
    "nmkl": (61440, 10752),
    "nmlk": (77824, 10752),
    "nkml": (61440, 10752),
    "nklm": (64000, 10752),
    "nlmk": (79360, 10752),
    "nlkm": (64000, 10752),
    "kmnl": (61440, 10752),
    "kmln": (86016, 10752),
    "knml": (61440, 10752),
    "knlm": (64000, 10752),
    "klmn": (87040, 10752),
    "klnm": (64000, 10752),
    "lmnk": (102400, 1024),
    "lmkn": (102400, 1024),
    "lnmk": (79360, 2560),
    "lnkm": (64000, 2560),
    "lkmn": (87040, 2560),
    "lknm": (64000, 2560),
}


@pytest.mark.parametrize("order", sorted(PINNED_GEMM_CHAIN))
def test_gemm_chain_movement_pinned_per_order(order):
    chain = gemm_chain(64, 48, 32, 80)
    perm = tuple(order)
    tiles = {"m": 16, "n": 8, "k": 8, "l": 16}
    dv, mu = PINNED_GEMM_CHAIN[order]
    model = MovementModel(chain, perm)
    tables = MovementTables(model)
    row = tables.row_of(tiles)
    batch = np.array([row])
    literal_dv, literal_mu = algorithm1(chain, perm, tiles)
    assert literal_dv == dv
    assert model.volume(tiles, exact=True) == dv
    assert float(tables.volume_batch(batch)[0]) == dv
    assert model.usage(tiles) == mu
    assert tables.usage_row(row) == mu
    assert float(tables.usage_batch(batch)[0]) == mu
    # Algorithm 1 as printed never enlarges a buffer.
    assert literal_mu == 1024
    assert (literal_mu == mu) == (not model.has_enlarged_buffers)


def test_volume_gradient_agrees_with_finite_differences():
    chain = batch_gemm_chain(1, 32, 24, 16, 40, name="tbl_fd")
    model = _sample_models(chain, count=1)[0]
    tables = MovementTables(model)
    tiles = {n: 5.0 for n in model.perm}
    row = tables.row_of(tiles)
    volume, grad = tables.volume_smooth_gradient_row(row)
    eps = 1e-4
    # Central differences on a ~volume-sized quantity carry cancellation
    # noise around volume * machine-eps / eps; compare against that floor.
    noise = abs(volume) * np.finfo(float).eps / eps * 8
    for name in model.perm:
        hi = dict(tiles)
        lo = dict(tiles)
        hi[name] += eps
        lo[name] -= eps
        fd = (
            model.volume(hi, exact=False) - model.volume(lo, exact=False)
        ) / (2 * eps)
        assert grad[tables.index[name]] == pytest.approx(
            fd, rel=1e-3, abs=noise
        )


def test_tables_memo_is_a_bounded_lru():
    memo = LRUMemo(capacity=2)
    memo.get_or_compute("a", lambda: "A")
    memo.get_or_compute("b", lambda: "B")
    assert memo.get_or_compute("a", lambda: "A2") == "A"  # hit refreshes
    memo.get_or_compute("c", lambda: "C")  # evicts "b" (least recent)
    stats = memo.stats()
    assert stats["evictions"] == 1
    assert stats["entries"] == 2
    assert memo.get_or_compute("b", lambda: "B2") == "B2"  # b was evicted
    assert memo.stats()["misses"] == 4


def test_movement_tables_memoized_per_model_and_signature():
    clear_tables_memo()
    chain = batch_gemm_chain(1, 16, 16, 16, 16, name="tbl_memo")
    model = _sample_models(chain, count=1)[0]
    twin = MovementModel(chain, model.perm)
    first = movement_tables(model)
    assert movement_tables(model) is first  # per-instance cache
    assert movement_tables(twin) is first  # signature-keyed LRU
    stats = tables_memo_stats()
    assert stats["hits"] >= 1 and stats["misses"] >= 1

    # A structurally identical but distinct chain must not share entries:
    # the memo key includes a per-chain lifetime token.
    other_chain = batch_gemm_chain(1, 16, 16, 16, 16, name="tbl_memo")
    other = MovementModel(other_chain, model.perm)
    assert movement_tables(other) is not first


def test_collected_chain_leaves_the_tables_memo():
    """Tables do not keep their chain alive, and once the chain is
    collected its entries leave the memo (its token is never looked up
    again)."""
    clear_tables_memo()
    chain = batch_gemm_chain(1, 16, 16, 16, 16, name="tbl_dead")
    model = MovementModel(chain, ("b", "m", "l", "k", "n"))
    movement_tables(model)
    assert tables_memo_stats()["entries"] == 1
    alive = weakref.ref(chain)
    del model, chain
    gc.collect()
    assert alive() is None
    assert tables_memo_stats()["entries"] == 0


def test_chain_finalizer_never_waits_on_a_lock():
    """The finalizer runs inside whatever code the collector interrupts,
    here a thread while another holds the token lock: it must only queue
    the dead chain, and the next memo call forgets it."""
    clear_tables_memo()
    held = [batch_gemm_chain(1, 16, 16, 16, 16, name="tbl_gc")]
    movement_tables(MovementModel(held[0], ("b", "m", "l", "k", "n")))
    alive = weakref.ref(held[0])

    def collect():
        held.clear()
        gc.collect()

    with tables_module._CHAIN_TOKEN_LOCK:
        worker = threading.Thread(target=collect, daemon=True)
        worker.start()
        worker.join(timeout=30)
        finished = not worker.is_alive()
    assert finished
    assert alive() is None
    assert tables_memo_stats()["entries"] == 0


def test_reused_address_gets_a_fresh_token():
    """A finalizer only queues its chain's token, so the next lookup must
    forget queued tokens before it reads: an object born at a collected
    chain's address never inherits that chain's token, and with it the
    dead chain's tables."""

    class Holder:  # slotted, so a new one reuses the freed block
        __slots__ = ("a", "b", "c", "d", "e", "f", "g", "h", "__weakref__")

    reused = 0
    for _ in range(20):
        first = Holder()
        address, token = id(first), tables_module._chain_token(first)
        del first
        second = Holder()
        if id(second) == address:
            reused += 1
            assert tables_module._chain_token(second) != token
        del second
    assert reused


def test_chain_churn_across_threads_keeps_the_memo_consistent():
    """Threads build and drop chains while the collector runs: every
    lookup returns its own chain's tables, nothing waits forever, and once
    every chain is collected the memo is empty."""
    clear_tables_memo()
    errors = []

    def churn(seed):
        rng = random.Random(f"churn-{seed}")
        try:
            for _ in range(20):
                extent = rng.choice([8, 12, 16, 20, 24])
                chain = batch_gemm_chain(1, extent, 16, 16, extent,
                                         name=f"tbl_churn{seed}")
                model = MovementModel(chain, ("b", "m", "l", "k", "n"))
                extents = tuple(chain.loop_extents().values())
                if movement_tables(model).extents != extents:
                    errors.append(("foreign tables", seed, extents))
                del chain, model
                if rng.random() < 0.1:
                    gc.collect()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [
            threading.Thread(target=churn, args=(seed,), daemon=True)
            for seed in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        stuck = [worker for worker in workers if worker.is_alive()]
    finally:
        sys.setswitchinterval(interval)
    assert not stuck
    assert not errors, errors[:3]
    gc.collect()
    assert tables_memo_stats()["entries"] == 0


def test_solve_memo_counts_evictions():
    memo = LRUMemo(capacity=1)
    memo.put("k1", "v1")
    memo.put("k2", "v2")
    stats = memo.stats()
    assert stats["entries"] == 1
    assert stats["evictions"] == 1
