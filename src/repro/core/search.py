"""Pruned, memoized inter-block order search.

The inter-block optimizer enumerates candidate block execution orders and
runs the constrained tile-size solve (:func:`repro.core.solver.solve_tiles`)
on each — the dominant cost of a cold compile.  This module makes that
search fast **without changing its answer**:

* **Pruning** — every candidate gets a cheap *admissible* lower bound on
  the data movement volume any feasible tile assignment can reach
  (:func:`dv_lower_bound`).  DV is coordinatewise non-increasing in the
  tile sizes while MU is non-decreasing, so evaluating DV at each loop's
  capacity-relaxed maximum tile (the largest tile that fits capacity with
  every other loop at its minimum — a relaxation of the joint constraint)
  bounds the solve result from below.  Candidates whose bound cannot beat
  the incumbent are skipped, exactly as analytical schedulers prune
  dominated schedules.
* **Memoization** — solve results are cached under the movement model's
  :meth:`~repro.core.movement.MovementModel.signature` (plus every other
  solve input), so symmetric orders with identical movement terms — and
  repeated compiles of the same chain — are solved once per process.
* **Observability** — :class:`SearchStats` counts orders enumerated,
  pruned, memo hits and solves, with per-stage wall time; a process-global
  aggregate backs ``service.stats()`` and the ``repro search-stats`` CLI.

Determinism guarantee: for a fixed candidate list, the (model, solution)
pair returned by :func:`search_tiles` is the one solving every candidate
and taking the minimum would return — pruning is admissible (a pruned
candidate provably cannot win the total order ``(infeasible, dv,
order-tuple)``), and memoized entries are keyed on every input that
influences the solve.  The exhaustive search survives as the test oracle
this guarantee is checked against (``tests/search_oracle.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pickle
import threading
import time
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..ir.chain import OperatorChain
from ..memo import LRUMemo
from .movement import MovementModel
from .solver import TileSolution, solve_tiles
from .tables import FootprintConstraint, SignatureTables, tables_memo_stats


@dataclasses.dataclass
class SearchStats:
    """Counters and per-stage wall time of one or more order searches."""

    searches: int = 0
    orders_enumerated: int = 0
    candidates: int = 0
    bound_evals: int = 0
    pruned: int = 0
    memo_hits: int = 0
    solves: int = 0
    bound_seconds: float = 0.0
    solve_seconds: float = 0.0

    def merge(self, other: "SearchStats") -> None:
        for field in dataclasses.fields(self):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


_GLOBAL_STATS = SearchStats()
_GLOBAL_STATS_LOCK = threading.Lock()


def record_search_stats(stats: SearchStats) -> None:
    """Fold one search's stats into the process-global aggregate."""
    with _GLOBAL_STATS_LOCK:
        _GLOBAL_STATS.merge(stats)


def search_stats_snapshot() -> Dict[str, Any]:
    """Point-in-time copy of the process-global search counters."""
    with _GLOBAL_STATS_LOCK:
        snap = _GLOBAL_STATS.as_dict()
    snap["memo"] = _GLOBAL_MEMO.stats()
    snap["tables_memo"] = tables_memo_stats()
    return snap


def reset_search_stats() -> None:
    with _GLOBAL_STATS_LOCK:
        global _GLOBAL_STATS
        _GLOBAL_STATS = SearchStats()


# ----------------------------------------------------------------------
# admissible DV lower bound
# ----------------------------------------------------------------------
def chain_digest(chain: OperatorChain) -> str:
    """Content fingerprint of a chain for memo keys.

    Hashes the pickled IR: equal chains built by the same code path hash
    equally; a hash mismatch merely forfeits a memo hit, never correctness.
    """
    return hashlib.sha256(pickle.dumps(chain)).hexdigest()


def _bound_tiles(
    models: Sequence[MovementModel],
    capacity: float,
    constraint: Optional[FootprintConstraint],
    max_parent: Optional[Mapping[str, int]],
) -> Tuple[SignatureTables, np.ndarray, np.ndarray, np.ndarray]:
    """Capacity-relaxed maximum tiles of equally long orders of one chain,
    in one pass.

    Returns ``(tables, rows, feasible, tiles)``: the chain's signature
    tables, each model's signature row, whether all-ones tiles fit it,
    and one full-universe tile row per model holding each of its loops at
    its bound (every other loop at 1).

    Every (model, loop) pair runs its own binary search (invariant: ``lo``
    fits, ``hi`` does not), all in lockstep: each bisection step is one MU
    batch whose rows carry their model's buffer overlay, plus one batch
    of the constraint.  MU and the constraint are monotone in every tile,
    which is what makes the bisection exact.
    """
    tables = SignatureTables(models[0].chain, models[0].reuse_intermediates)
    if constraint is not None:
        constraint.check_universe(tables.loop_names)
    width = len(tables.loop_names)
    rows = tables.rows_of(
        np.array(
            [[tables.index[name] for name in model.perm] for model in models],
            dtype=np.int64,
        ).reshape(len(models), -1)
    )

    def fits(owner: np.ndarray, tiles: np.ndarray) -> np.ndarray:
        ok = tables.usage(rows[owner], tiles) <= capacity
        if constraint is not None:
            ok &= constraint.batch(tiles) <= 0
        return ok

    feasible = fits(np.arange(len(models)), np.ones((len(models), width)))
    parent = max_parent or {}
    owner_list: List[int] = []
    col_list: List[int] = []
    hi_list: List[int] = []
    for k in np.flatnonzero(feasible).tolist():
        for name in models[k].perm:
            col = tables.index[name]
            extent = tables.extents[col]
            owner_list.append(k)
            col_list.append(col)
            hi_list.append(max(1, min(extent, parent.get(name, extent))))
    owner = np.array(owner_list, dtype=np.intp)
    cols = np.array(col_list, dtype=np.intp)
    hi = np.array(hi_list, dtype=np.int64)

    def fits_at(pairs: np.ndarray, values: np.ndarray) -> np.ndarray:
        tiles = np.ones((pairs.size, width))
        tiles[np.arange(pairs.size), cols[pairs]] = values.astype(float)
        return fits(owner[pairs], tiles)

    fit_hi = fits_at(np.arange(owner.size), hi)
    lo = np.ones(owner.size, dtype=np.int64)
    hi_search = hi.copy()
    active = ~fit_hi
    while True:
        work = np.nonzero(active & (hi_search - lo > 1))[0]
        if not work.size:
            break
        mids = (lo[work] + hi_search[work]) // 2
        fit_mid = fits_at(work, mids)
        lo[work] = np.where(fit_mid, mids, lo[work])
        hi_search[work] = np.where(fit_mid, hi_search[work], mids)
    tiles = np.ones((len(models), width))
    tiles[owner, cols] = np.where(fit_hi, hi, lo)
    return tables, rows, feasible, tiles


def upper_tile_bounds(
    model: MovementModel,
    capacity: float,
    constraint: Optional[FootprintConstraint] = None,
    max_parent: Optional[Mapping[str, int]] = None,
) -> Optional[Dict[str, int]]:
    """Per-loop capacity-relaxed maximum tiles, or ``None`` if nothing fits.

    For each loop the largest integer tile such that the assignment (that
    tile, every other loop at 1) satisfies the capacity bound and the extra
    constraint.  MU and the constraint are coordinatewise
    non-decreasing in the tiles, so for *any* jointly feasible assignment
    ``T``, ``T_l`` cannot exceed this per-loop bound — the bounds form a
    box relaxation of the feasible region.  ``None`` means even all-ones
    tiles violate a constraint: no feasible assignment exists at all.
    This is the one-model case of the pass :func:`dv_lower_bounds` runs.
    """
    tables, _, feasible, tiles = _bound_tiles(
        [model], capacity, constraint, max_parent
    )
    if not feasible[0]:
        return None
    return {name: int(tiles[0, tables.index[name]]) for name in model.perm}


def dv_lower_bound(
    model: MovementModel,
    capacity: float,
    constraint: Optional[FootprintConstraint] = None,
    max_parent: Optional[Mapping[str, int]] = None,
) -> float:
    """Admissible lower bound on the DV of any feasible tile assignment.

    DV is coordinatewise non-increasing in the tiles (every multiplier
    ``ceil(L/T)`` shrinks as ``T`` grows and the edge-clamped footprint
    factors cancel the growth), so DV evaluated at the coordinatewise
    upper bounds of the feasible region (:func:`upper_tile_bounds`) is a
    floor under every solution the solver can return.  ``inf`` when the
    order admits no feasible tiles — such candidates only lose to a
    feasible incumbent, so pruning them is exact as well.
    """
    return dv_lower_bounds([model], capacity, constraint, max_parent)[0]


def dv_lower_bounds(
    models: Sequence[MovementModel],
    capacity: float,
    constraint: Optional[FootprintConstraint] = None,
    max_parent: Optional[Mapping[str, int]] = None,
) -> List[float]:
    """:func:`dv_lower_bound` across candidate orders (the pruning pass).

    The orders of each chain (and reuse flag and order length) are
    bounded together: one lockstep bisection over every (order, loop)
    pair, then one batch of exact DVs at the bounds from the orders'
    signature rows.  No order compiles movement
    tables here, so a pruned candidate never compiles any.
    """
    bounds = [math.inf] * len(models)
    groups: Dict[Tuple[int, bool, int], List[int]] = {}
    for position, model in enumerate(models):
        key = (id(model.chain), model.reuse_intermediates, len(model.perm))
        groups.setdefault(key, []).append(position)
    for positions in groups.values():
        group = [models[position] for position in positions]
        tables, rows, feasible, tiles = _bound_tiles(
            group, capacity, constraint, max_parent
        )
        volumes = tables.volume(rows, tiles, exact=True)
        for position, fit, volume in zip(positions, feasible, volumes):
            if fit:
                bounds[position] = float(volume)
    return bounds


# ----------------------------------------------------------------------
# solve memo
# ----------------------------------------------------------------------
#: Process-global LRU of tile-size solve results, keyed by
#: :func:`memo_key` on every input that influences :func:`solve_tiles`.
_GLOBAL_MEMO: LRUMemo[TileSolution] = LRUMemo(capacity=4096)


def solve_memo() -> LRUMemo[TileSolution]:
    """The process-global solve memo (exposed for tests and tooling)."""
    return _GLOBAL_MEMO


def _sorted_items(mapping: Optional[Mapping[str, int]]) -> Tuple:
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


def memo_key(
    digest: str,
    model: MovementModel,
    capacity: float,
    *,
    hint: Optional[Mapping[str, float]],
    min_tiles: Optional[Mapping[str, int]],
    quanta: Optional[Mapping[str, int]],
    max_parent: Optional[Mapping[str, int]],
    hard_min_tiles: Optional[Mapping[str, int]],
    constraint: Optional[FootprintConstraint],
) -> Hashable:
    """The full solve-input key.

    The chain content (``digest``), the movement-model signature (equal
    signatures induce bit-identical DV/MU functions — multiplier tuples
    are stored sorted), capacity, bounds, quanta and the constraint's
    ``key``.  ``hint`` is the solve's ``x0_hint`` (``None`` for a cold
    solve), keyed by its sorted items: a solve refined from a hint can
    land elsewhere on the DV-flat ridge than a cold one or one refined
    from another hint, so a search reads only entries solved from its own
    hint (or cold ones when it is cold).
    """
    return (
        _sorted_items(hint),
        digest,
        model.signature_digest(),
        float(capacity),
        _sorted_items(min_tiles),
        _sorted_items(quanta),
        _sorted_items(max_parent),
        _sorted_items(hard_min_tiles),
        None if constraint is None else constraint.key,
    )


# ----------------------------------------------------------------------
# the search driver
# ----------------------------------------------------------------------
def _solution_key(
    solution: TileSolution, perm: Tuple[str, ...]
) -> Tuple[int, float, Tuple[str, ...]]:
    """Total order on candidate outcomes: feasible first, best DV, then the
    canonical order tuple — DV ties between distinct orders are broken
    deterministically, independent of enumeration or completion order."""
    return (0 if solution.feasible else 1, solution.dv, perm)


def _best_result(
    results: List[Tuple[MovementModel, TileSolution]]
) -> Tuple[MovementModel, TileSolution]:
    """The eps-aware total-order minimum over solved candidates.

    First minimize ``(infeasible, dv, perm)`` exactly, then — because
    mathematically tied DVs differ by ulps between symmetric orders — give
    the win to the smallest order tuple among results on the same DV
    plateau (within :data:`_DV_TIE_MARGIN` of the minimum, same
    feasibility class).  The plateau representative is independent of the
    solve sequence, which keeps warm-started searches byte-identical to
    cold ones.
    """
    best = min(results, key=lambda pair: _solution_key(pair[1], pair[0].perm))
    feasible_class = best[1].feasible
    ceiling = best[1].dv * (1.0 + _DV_TIE_MARGIN)
    tied = [
        pair
        for pair in results
        if pair[1].feasible == feasible_class and pair[1].dv <= ceiling
    ]
    return min(tied, key=lambda pair: pair[0].perm)


class _Solver:
    """Shared solve-once helper: memo lookup, solve, memo fill, counters."""

    def __init__(
        self,
        capacity: float,
        solve_kwargs: Dict[str, Any],
        *,
        stats: SearchStats,
        digest: str,
        memo: LRUMemo[TileSolution],
        x0_hint: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.capacity = capacity
        self.kwargs = solve_kwargs
        # The warm-start hint travels to every solve.  A hinted solve
        # refines from the hint instead of from SLSQP's landing point and
        # can end on another point of the DV-flat ridge, so its memo
        # entries are keyed on the hint.
        self.x0_hint = dict(x0_hint) if x0_hint else None
        self.stats = stats
        self.memo = memo
        self.digest = digest

    def key_for(self, model: MovementModel) -> Hashable:
        return memo_key(
            self.digest,
            model,
            self.capacity,
            hint=self.x0_hint,
            min_tiles=self.kwargs.get("min_tiles"),
            quanta=self.kwargs.get("quanta"),
            max_parent=self.kwargs.get("max_parent"),
            hard_min_tiles=self.kwargs.get("hard_min_tiles"),
            constraint=self.kwargs.get("constraint"),
        )

    def solve(self, model: MovementModel) -> TileSolution:
        key = self.key_for(model)
        cached = self.memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        started = time.perf_counter()
        solution = solve_tiles(
            model, self.capacity, x0_hint=self.x0_hint, **self.kwargs
        )
        self.stats.solves += 1
        self.stats.solve_seconds += time.perf_counter() - started
        self.memo.put(key, solution)
        return solution


#: Relative margin under which two DV values are considered tied.  The
#: lower bound and the solver evaluate DV through different floating-point
#: paths (and symmetric twin orders sum the same terms in different
#: sequences), so mathematically equal DVs differ by a few ulps.  Exact
#: comparisons once made the winner depend on which candidate was solved
#: first: each traversal order pruned the *other's* winner over a one-ulp
#: difference.  DV plateaus in this problem are separated by real gaps
#: (ceil steps), so values within this relative margin are the same
#: plateau — ties are broken by the order tuple, identically from every
#: solve sequence.
_DV_TIE_MARGIN = 1e-9


def _prunable(
    bound: float,
    perm: Tuple[str, ...],
    incumbent: Tuple[MovementModel, TileSolution],
) -> bool:
    """True when a candidate provably cannot win the eps-aware total order.

    The candidate's best conceivable outcome is ``(feasible, bound,
    perm)``; against a *feasible* incumbent it loses when the bound is
    worse than the incumbent's DV by more than the tie margin, or when it
    can at best tie (bound already inside the margin) and its order tuple
    is lexicographically larger — mirroring how :func:`_best_result`
    resolves solved ties, so pruning decisions agree with the winner
    selection no matter which candidate was solved first.
    """
    model, solution = incumbent
    if not solution.feasible:
        return False
    if bound > solution.dv * (1.0 + _DV_TIE_MARGIN):
        return True
    return (
        bound >= solution.dv * (1.0 - _DV_TIE_MARGIN) and perm > model.perm
    )


def _hint_index(
    bounded: List[Tuple[float, MovementModel]],
    incumbent_hint: Sequence[str],
) -> Optional[int]:
    """Position of the candidate the incumbent hint names, or ``None``.

    Exact permutation match first; failing that, the hint's DV *signature*
    (candidates are deduplicated by signature, so the neighbor's exact
    order may be represented by a symmetric twin).  A hint that matches
    nothing — wrong loops, wrong structure, adversarial neighbor — is
    simply ignored.
    """
    hint = tuple(incumbent_hint)
    for index, (_, model) in enumerate(bounded):
        if model.perm == hint:
            return index
    if not bounded:
        return None
    reference = bounded[0][1]
    try:
        digest = MovementModel(
            reference.chain,
            hint,
            reuse_intermediates=reference.reuse_intermediates,
        ).signature_digest()
    except Exception:  # noqa: BLE001 - adversarial hints must not raise
        return None
    for index, (_, model) in enumerate(bounded):
        if model.signature_digest() == digest:
            return index
    return None


def search_tiles(
    models: Sequence[MovementModel],
    capacity: float,
    *,
    min_tiles: Optional[Mapping[str, int]] = None,
    quanta: Optional[Mapping[str, int]] = None,
    constraint: Optional[FootprintConstraint] = None,
    max_parent: Optional[Mapping[str, int]] = None,
    hard_min_tiles: Optional[Mapping[str, int]] = None,
    stats: Optional[SearchStats] = None,
    digest: Optional[str] = None,
    x0_hint: Optional[Mapping[str, float]] = None,
    incumbent_hint: Optional[Sequence[str]] = None,
) -> Tuple[MovementModel, TileSolution]:
    """Pick the best (model, tile solution) among candidate orders.

    Equivalent to solving every candidate and taking the minimum under
    ``(infeasible, dv, order)`` — but pruned and memoized.

    Args:
        models: candidate movement models (one per DV signature).
        capacity: per-block memory capacity in bytes.
        constraint: the extra footprint bound every solve and bound
            honours (the NPU Unified Buffer), keyed into the memo by its
            ``key``.
        digest: :func:`chain_digest` of the chain (computed if omitted).
        stats: accumulator to fill (also folded into the process-global
            aggregate).
        x0_hint: warm-start tiles forwarded to every candidate's
            :func:`solve_tiles` call (loop names are shared across orders
            of one chain, so a neighbor's tile magnitudes transfer).  The
            solver's canonical descent carries a near-optimal hint to the
            cold solve's integer solution, so the hint is meant to change
            how fast the search runs, not its result (see
            :func:`solve_tiles` for where that can fail).  Hinted solves
            are memoized under their hint, apart from cold ones.
        incumbent_hint: a neighboring shape's winning order.  The matching
            candidate (exact permutation or DV-signature twin) is solved
            *first*, so the DV lower bound prunes against a near-optimal
            incumbent from the start.  The candidate set is never extended
            and pruning stays admissible, so the hint changes how fast the
            search runs, never its winner.
            Unmatched (e.g. adversarial) hints are ignored.

    Returns:
        the winning ``(model, solution)`` pair.
    """
    if not models:
        raise ValueError("search_tiles needs at least one candidate model")
    local = SearchStats(searches=1, candidates=len(models))
    if digest is None:
        digest = chain_digest(models[0].chain)
    solve_kwargs = {
        "min_tiles": min_tiles,
        "quanta": quanta,
        "constraint": constraint,
        "max_parent": max_parent,
        "hard_min_tiles": hard_min_tiles,
    }
    solver = _Solver(
        capacity,
        solve_kwargs,
        stats=local,
        digest=digest,
        memo=_GLOBAL_MEMO,
        x0_hint=x0_hint,
    )

    started = time.perf_counter()
    bounds = dv_lower_bounds(models, capacity, constraint, max_parent)
    bounded = list(zip(bounds, models))
    local.bound_evals += len(bounded)
    local.bound_seconds += time.perf_counter() - started
    bounded.sort(key=lambda item: (item[0], item[1].perm))

    if incumbent_hint is not None:
        # Solve the neighbor's winning order first: its solution becomes
        # the incumbent before any other candidate is considered, so the
        # DV bound prunes maximally.  Reordering the solve sequence never
        # changes the reduce's total-order minimum.
        index = _hint_index(bounded, incumbent_hint)
        if index is not None and index > 0:
            bounded.insert(0, bounded.pop(index))

    results: List[Tuple[MovementModel, TileSolution]] = []
    incumbent: Optional[Tuple[MovementModel, TileSolution]] = None

    def push(model: MovementModel, solution: TileSolution) -> None:
        nonlocal incumbent
        results.append((model, solution))
        if incumbent is None or _solution_key(solution, model.perm) < (
            _solution_key(incumbent[1], incumbent[0].perm)
        ):
            incumbent = (model, solution)

    for bound, model in bounded:
        if incumbent is not None and _prunable(bound, model.perm, incumbent):
            local.pruned += 1
            continue
        push(model, solver.solve(model))

    if stats is not None:
        stats.merge(local)
    record_search_stats(local)
    return _best_result(results)

