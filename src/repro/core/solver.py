"""Constrained tile-size optimization (Section IV-B).

For a fixed block execution order the paper minimizes the smooth (real
valued) data movement volume ``DV(S)`` subject to the memory usage bound
``MU(S) <= MemoryCapacity``, solves in the reals (Lagrange multipliers),
then floor-rounds to integers and picks the best feasible integer candidate.

This module implements the same recipe for *arbitrary* chains:

* the continuous problem is solved numerically by one SLSQP run in
  log-tile space — the general-purpose stand-in for the per-shape
  Lagrange derivation.  The problem is geometric-programming-like
  (posynomial DV against monotone footprints), so one run suffices; it
  starts from the log-midpoint of every loop's ``[lower, upper]`` range,
  shrunk toward the lower bounds until MU fits (:func:`_project_feasible`).
  A warm start (``x0_hint``) skips SLSQP and refines from the projected
  hint instead.  The objective, the MU bound and the extra constraint
  feed SLSQP *analytic* log-space gradients (Algorithm 1 is a
  product of affine spans, so the partials are closed-form) instead of
  finite differences;
* DV/MU evaluation goes through the compiled tables of
  :mod:`repro.core.tables`, which replay :class:`MovementModel`'s exact
  floating-point operation sequence (the model stays the test oracle);
* the closed-form GEMM-chain solution the paper derives analytically is
  provided separately (:func:`gemm_chain_closed_form`) and used by tests to
  validate the numeric path;
* integer refinement evaluates the floor/ceil lattice around the continuous
  optimum with the *exact* (ceil-based) DV and the exact MU, honouring
  per-loop minimum tiles and quanta imposed by the micro kernels.  The
  whole lattice is scored in one batched ``volume_batch``/``usage_batch``
  call.  When no lattice point fits, the min-MU point is halved toward
  the lower bounds — hard minimums included, which are never relaxed;
* the refined point is then **canonicalized** by a deterministic cyclic
  per-coordinate scan to the minimum of ``(DV, MU, tile)`` over each
  loop's aligned tile range (:func:`_canonical_descent`).  The exact
  ceil-based DV is piecewise constant, so the continuous optimum sits on
  a DV-flat ridge whose floor/ceil lattice depends on *which* ridge point
  SLSQP converged to; the scan collapses nearby ridge points to the same
  integer solution, and as a bonus canonical points never waste memory:
  among equal-DV tiles the scan keeps the smallest MU.  Each pass of the
  scan is scored as stacked batches, which moves exactly as scoring one
  scan at a time would (``tests/descent_oracle.py`` is that order).  The
  scan is a local search, though: started far from the continuous
  optimum (say, at the raw log-midpoint) it can stall in a worse valley,
  which is why a cold refinement always starts from SLSQP's landing point;
* the one extra constraint a solve may carry is a
  :class:`~repro.core.tables.FootprintConstraint` (the NPU Unified Buffer
  bound), compiled over the chain's loops like MU.  MU and that
  constraint are sums of affine footprints, monotone in every tile, so
  when all-ones tiles do not fit — or the hard-minimum point, once the
  soft minimums are relaxed — the answer is that point marked
  ``feasible=False``, with neither a continuous solve nor a lattice.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from .movement import MovementModel
from .tables import FootprintConstraint, TablesEvaluator, evaluator_for

#: Largest 2-D grid the canonical descent's pairwise pass will score.
#: Depends only on bounds and quanta — never on where SLSQP landed — so
#: skipping an oversized pair is the same decision from every landing
#: point.  4096 rows is one cheap batched evaluation.
_PAIR_SCAN_CAP = 4096

#: Most rows one canonical-descent batch stacks (twice the pair cap): a
#: pass's scans are scored together up to this many rows, so a batch's
#: memory does not grow with the number of loops.  A scan larger than
#: this is scored alone.
_DESCENT_BATCH_ROWS = 2 * _PAIR_SCAN_CAP


@dataclasses.dataclass(frozen=True)
class TileSolution:
    """Result of one tile-size solve.

    Attributes:
        tiles: integer tile per ordering loop (degenerate loops included
            with tile 1).
        dv: exact data movement volume at ``tiles``, bytes.
        mu: exact memory usage at ``tiles``, bytes.
        feasible: whether ``mu`` (and the extra constraint) fit capacity.
    """

    tiles: Dict[str, int]
    dv: float
    mu: float
    feasible: bool


def _full_tiles(model: MovementModel, tiles: Mapping[str, int]) -> Dict[str, int]:
    """Extend solved tiles with tile=1 for degenerate (omitted) loops."""
    extents = model.chain.loop_extents()
    full = {name: 1 for name in extents}
    full.update({name: int(t) for name, t in tiles.items()})
    return full


def solve_tiles(
    model: MovementModel,
    capacity: float,
    *,
    min_tiles: Optional[Mapping[str, int]] = None,
    quanta: Optional[Mapping[str, int]] = None,
    constraint: Optional[FootprintConstraint] = None,
    max_parent: Optional[Mapping[str, int]] = None,
    hard_min_tiles: Optional[Mapping[str, int]] = None,
    x0_hint: Optional[Mapping[str, float]] = None,
) -> TileSolution:
    """Minimize DV(S) s.t. MU(S) <= capacity for one movement model.

    Args:
        model: precompiled Algorithm-1 model (chain + order).
        capacity: per-block memory capacity in bytes.
        min_tiles: *soft* lower bound per loop (micro-kernel minimums; the
            paper's ``alpha`` for free variables).  Automatically relaxed
            when even the minimum point exceeds capacity — an unaligned
            feasible schedule beats an infeasible aligned one.  A minimum
            above a loop's extent means "take the whole loop": it is
            clamped to the extent, never treated as infeasible.
        quanta: tile sizes are rounded to multiples of these (e.g. 16 for
            tensor-core loops); bounds are respected first.
        constraint: an extra footprint bound (the NPU Unified Buffer bound
            on the intermediate footprint), compiled over the chain's
            loops; SLSQP gets its analytic jacobian.
        max_parent: per-loop upper bounds below the loop extent — used for
            inner memory levels, whose tiles nest inside the parent level's.
        hard_min_tiles: lower bounds that are never relaxed (the outer-level
            pins on producer-private reductions).
        x0_hint: warm-start tile vector (e.g. a neighboring shape's solved
            tiles).  When given, SLSQP is skipped: the hint — clipped into
            bounds, projected feasible, with the log-midpoint for loops it
            does not name — feeds the integer refinement directly, and
            the canonical descent carries a near-optimal entry point to
            the cold solve's integer solution.  A hint is therefore meant
            to change how fast the solve runs, not what it returns; but
            the descent is a local search, so a far-off hint can end on a
            different point (the solve memo keys hinted solves apart).

    Returns:
        the best feasible integer solution found; ``feasible=False`` with
        all-ones tiles if even those exceed capacity, or at the
        hard-minimum point if that exceeds it.  MU and the constraint are
        monotone in every tile, so both verdicts come before any search.
    """
    chain = model.chain
    extents = chain.loop_extents()
    names = [n for n in model.perm]
    min_tiles = dict(min_tiles or {})
    hard_min_tiles = dict(hard_min_tiles or {})
    quanta = dict(quanta or {})
    evaluator = evaluator_for(model, names, constraint)

    upper_src = max_parent or {}
    upper = np.array(
        [max(1, min(extents[n], upper_src.get(n, extents[n]))) for n in names],
        dtype=float,
    )

    def lower_for(softs: Mapping[str, int]) -> np.ndarray:
        values = []
        for n in names:
            low = max(1, softs.get(n, 1), hard_min_tiles.get(n, 1))
            values.append(min(low, extents[n]))
        # Parent bounds win over micro-kernel minimums: a child tile can
        # never exceed its parent tile.
        return np.minimum(np.array(values, dtype=float), upper)

    def fits(values: np.ndarray) -> bool:
        return bool(evaluator.fits_batch(values.reshape(1, -1), capacity)[0])

    if not names:
        values = np.ones(0)
        return TileSolution(
            _full_tiles(model, {}),
            float(evaluator.volume_exact_batch(values.reshape(1, 0))[0]),
            evaluator.usage(values),
            fits(values),
        )

    size = len(names)
    lower = lower_for(min_tiles)
    if not fits(lower):
        # MU and the extra constraint are monotone in every tile, so when
        # the smallest legal point does not fit, nothing does, whatever
        # the start: all-ones tiles first, then the hard minimums once the
        # soft minimums are relaxed.
        ones = np.ones((1, size))
        if not fits(ones):
            return _infeasible(model, evaluator, names, ones)
        lower = lower_for({})
        if not fits(lower):
            return _infeasible(model, evaluator, names, lower.reshape(1, -1))

    # SLSQP evaluates the objective, the capacity slack, and their
    # jacobians at the same point in turn; share one exp(x) per point so
    # every closure hands the evaluator the identical values array (which
    # also lets the tables evaluator reuse its expanded row).
    point_key: List[Optional[bytes]] = [None]
    point_values: List[Optional[np.ndarray]] = [None]

    def values_at(x: np.ndarray) -> np.ndarray:
        key = x.tobytes()
        if key != point_key[0]:
            point_key[0] = key
            point_values[0] = np.exp(x)
        return point_values[0]

    def objective(x: np.ndarray) -> Tuple[float, np.ndarray]:
        # Log the objective for conditioning: DV spans many decades.  The
        # gradient is chained through tiles = exp(x); below DV = 1 the
        # clamp makes the objective flat, so the gradient is zero there.
        values = values_at(x)
        volume, grad = evaluator.volume_smooth_gradient(values)
        if volume > 1.0:
            return math.log(volume), grad * values / volume
        return 0.0, np.zeros(size)

    # Constraints are fed to SLSQP in *relative* units (fraction of the
    # capacity) so the merit function sees an O(1) violation scale next to
    # the O(1) log-volume objective.  Raw byte-valued slacks (~1e5..1e8)
    # make SLSQP's L1 penalty wildly ill-conditioned and its line search
    # backtrack for most of the iteration budget.
    inv_capacity = 1.0 / capacity if capacity > 0 else 1.0

    def capacity_slack(x: np.ndarray) -> float:
        return (capacity - evaluator.usage(values_at(x))) * inv_capacity

    def capacity_slack_jac(x: np.ndarray) -> np.ndarray:
        values = values_at(x)
        _, grad = evaluator.usage_gradient(values)
        return -grad * values * inv_capacity

    cons: List[Dict] = [
        {"type": "ineq", "fun": capacity_slack, "jac": capacity_slack_jac}
    ]
    if constraint is not None:
        cons.append({
            "type": "ineq",
            "fun": lambda x: (
                -evaluator.constraint_row(values_at(x)) * inv_capacity
            ),
            "jac": lambda x: (
                -evaluator.constraint_gradient(values_at(x))
                * values_at(x)
                * inv_capacity
            ),
        })

    log_lower, log_upper = np.log(lower), np.log(upper)
    if x0_hint:
        logs = (log_lower + log_upper) / 2
        for idx, name in enumerate(names):
            value = x0_hint.get(name)
            if value is not None and value > 0:
                logs[idx] = math.log(float(value))
        x = _project_feasible(
            np.clip(logs, log_lower, log_upper), capacity_slack, log_lower
        )
    else:
        x = _project_feasible(
            log_lower + 0.5 * (log_upper - log_lower),
            capacity_slack,
            log_lower,
        )
        try:
            res = optimize.minimize(
                objective,
                x,
                jac=True,
                method="SLSQP",
                bounds=list(zip(log_lower, log_upper)),
                constraints=cons,
                options={"maxiter": 200, "ftol": 1e-9},
            )
        except (ValueError, RuntimeError):
            res = None
        if res is not None and res.x is not None:
            landed = np.clip(res.x, log_lower, log_upper)
            # A landing point that violates capacity is discarded: the
            # refinement then starts from the projected seed instead.
            if capacity_slack(landed) >= -1e-6 * capacity * inv_capacity:
                x = landed
    return _integer_refine(
        model,
        {n: float(v) for n, v in zip(names, np.exp(x))},
        capacity,
        names,
        lower,
        upper,
        quanta,
        evaluator=evaluator,
    )


def _infeasible(
    model: MovementModel,
    evaluator: TablesEvaluator,
    names: Sequence[str],
    row: np.ndarray,
) -> TileSolution:
    """The infeasible verdict at the ``(1, len(names))`` smallest legal
    point, which does not fit."""
    return TileSolution(
        _full_tiles(model, dict(zip(names, (int(v) for v in row[0])))),
        float(evaluator.volume_exact_batch(row)[0]),
        float(evaluator.usage_batch(row)[0]),
        False,
    )


def _project_feasible(
    x: np.ndarray,
    capacity_slack: Callable[[np.ndarray], float],
    log_lower: np.ndarray,
    shrink: float = 0.85,
    max_iter: int = 200,
) -> np.ndarray:
    """Shrink tiles geometrically toward the lower bound until MU fits."""
    for _ in range(max_iter):
        if capacity_slack(x) >= 0:
            return x
        x = log_lower + shrink * (x - log_lower)
    return log_lower.copy()


def _quantize(value: int, quantum: int, lo: int, hi: int) -> int:
    """Round down to a multiple of ``quantum`` within [lo, hi] if possible.

    Degenerate bounds are resolved toward the *extent* side: an empty range
    (``lo > hi``, e.g. a micro-kernel minimum above a small loop's extent)
    yields ``hi`` — the whole loop — rather than a candidate above the
    extent, and a quantum that cannot fit between the bounds falls back to
    the clamped unaligned value (a feasible unaligned tile beats none).
    """
    if lo > hi:
        return hi
    if quantum <= 1:
        return max(lo, min(hi, value))
    snapped = (value // quantum) * quantum
    if snapped < lo:
        snapped = ((lo + quantum - 1) // quantum) * quantum
    if snapped > hi:
        snapped = (hi // quantum) * quantum
    if snapped < lo:  # quantum does not fit between the bounds at all
        return max(lo, min(hi, value))
    return snapped


def _lattice_values(
    continuous: Mapping[str, float],
    names: Sequence[str],
    lower: np.ndarray,
    upper: np.ndarray,
    quanta: Mapping[str, int],
) -> List[List[int]]:
    """Per-loop candidate tiles: quantized floor/ceil/minimum (vectorized
    ``_quantize`` outcome, deduplicated and clamped to ``[lo, hi]``)."""
    candidate_values: List[List[int]] = []
    for idx, name in enumerate(names):
        lo, hi = int(lower[idx]), int(upper[idx])
        quantum = quanta.get(name, 1)
        raw = continuous[name]
        options = {
            _quantize(int(math.floor(raw)), quantum, lo, hi),
            _quantize(int(math.ceil(raw)), quantum, lo, hi),
            _quantize(lo, quantum, lo, hi),
        }
        if quantum > hi:
            # No aligned tile exists below the extent: the whole loop is
            # the canonical choice (remainder handling covers the short
            # tile either way), so make sure it is on the lattice.
            options.add(hi)
        # Never propose a tile outside [lo, hi]: quantized candidates must
        # not exceed the loop extent (or the parent level's tile).
        candidate_values.append(sorted({max(lo, min(hi, v)) for v in options}))
    return candidate_values


def _coordinate_candidates(lo: int, hi: int, quantum: int) -> List[int]:
    """Every aligned tile for one loop, ascending (``_quantize`` semantics:
    an empty or quantum-defeating range degrades to the whole loop)."""
    if lo > hi:
        return [hi]
    if quantum <= 1:
        return list(range(lo, hi + 1))
    first = ((lo + quantum - 1) // quantum) * quantum
    values = list(range(first, hi + 1, quantum))
    if not values:  # quantum does not fit between the bounds at all
        return [hi]
    return values


def _canonical_descent(
    model: MovementModel,
    tiles: Dict[str, int],
    capacity: float,
    names: Sequence[str],
    lower: np.ndarray,
    upper: np.ndarray,
    quanta: Mapping[str, int],
    evaluator: TablesEvaluator,
    max_passes: int = 16,
) -> Tuple[float, float, Dict[str, int]]:
    """Collapse a feasible integer point to its canonical ridge corner.

    The exact (ceil-based) DV is piecewise constant in every tile, so the
    continuous optimum sits on a DV-flat ridge: SLSQP's landing point and
    a warm-start hint can sit on different ridge points whose floor/ceil
    lattices disagree — same DV, different tiles.  This scan moves the
    *returned* integer solution toward a function of the ridge, not of
    the entry point:

    * **single-coordinate passes** cycle over the loops in order and move
      each tile to the feasible aligned value minimizing ``(DV, MU,
      tile)`` with the other tiles held fixed;
    * when those stall, **pairwise passes** jointly minimize each ordered
      loop pair over its full 2-D aligned grid — product-flat valleys
      (e.g. ``m``·``l`` trade-offs where every corner ties in DV) are not
      traversable one coordinate at a time, but every start agrees on a
      2-D grid's global ``(DV, MU, t_i, t_j)`` minimum.  Pairs whose grid
      exceeds a fixed cap are skipped — the cap depends only on bounds
      and quanta, never on the landing point, so skipping is itself
      start-invariant.

    The candidate grids depend only on the bounds and quanta, and each
    accepted move strictly decreases the ``(DV, MU, tiles)`` key (so the
    scan terminates).  Each pass is scored in batches: the grids of its
    scans, all built from the current point, are stacked up to
    :data:`_DESCENT_BATCH_ROWS` rows and scored at once, and one
    ``lexsort`` keyed by scan gives every scan's minimum.  The first scan
    whose minimum is not the current point moves it; only the scans after
    that one read the new point, so they are rebuilt and re-scored.  Every
    scan before it read the same point the one-scan-at-a-time order reads,
    so the moves are exactly that order's.  The returned point's DV and MU
    come from the last batch, which scored it.

    It is still a local search, not a proof of start invariance: entry
    points far apart (say, the raw log-midpoint and the continuous
    optimum, or a far-off hint) can stall in different valleys.
    """
    current = dict(tiles)
    names = list(names)
    # Raw aligned grids are a pure function of bounds, quanta and extents —
    # every start sees the same ones, so cap/skip decisions made from them
    # are start-invariant by construction.  Without an extra constraint the
    # grids shrink to ceil-bucket lower edges: each movement term is
    # piecewise constant in a multiplier loop's tile (the effective tile is
    # ``extent / trips``) and monotone increasing in footprint-only loops,
    # and MU is monotone, so within one ``ceil(extent / tile)`` bucket the
    # ``(DV, MU, tile)`` key is strictly minimized at the bucket's smallest
    # aligned value — dropping the rest cannot change any scan's argmin.
    # The extra constraint is monotone too, so the same holds for
    # constrained solves, but they keep the full grids: the pair cap below
    # is counted on the raw grids, and edge grids would let more pairs
    # under it, which moves some constrained descents to other end points.
    # The exact grid search meant to replace this descent settles that.
    extents = model.chain.loop_extents()

    def _raw_grid(idx: int) -> List[int]:
        candidates = _coordinate_candidates(
            int(lower[idx]), int(upper[idx]), quanta.get(names[idx], 1)
        )
        if evaluator.constraint is not None:
            return candidates
        extent = int(extents[names[idx]])
        edges: List[int] = []
        last_trips = None
        for tile in candidates:  # ascending, so trips is nonincreasing
            trips = -(-extent // tile)
            if trips != last_trips:
                edges.append(tile)
                last_trips = trips
        return edges

    raw_sets = [set(_raw_grid(idx)) for idx in range(len(names))]
    raw_grids = [np.array(sorted(grid), dtype=float) for grid in raw_sets]
    point = np.array([float(current[n]) for n in names])
    # (DV, MU) of ``point``, as the last scored batch found it.
    scored: Optional[Tuple[float, float]] = None

    def pinned(idx: int) -> bool:
        """A coordinate already sitting on its only aligned value cannot
        move, and scanning it re-evaluates rows an earlier (stalled) scan
        already rejected — skipping changes nothing."""
        return len(raw_grids[idx]) == 1 and raw_grids[idx][0] == point[idx]

    def grids_for(scan: Tuple[int, ...]) -> Optional[List[np.ndarray]]:
        """The scan's per-loop candidates, or ``None`` if it is skipped.
        The current value rides along so its key is scored by the same
        batch as every candidate."""
        if any(pinned(idx) for idx in scan):
            return None
        grids = []
        for idx in scan:
            grid, value = raw_grids[idx], point[idx]
            if int(value) not in raw_sets[idx]:
                grid = np.insert(grid, np.searchsorted(grid, value), value)
            grids.append(grid)
        return grids

    def score(batch: List[Tuple[Tuple[int, ...], List[np.ndarray]]]) -> int:
        """Score the stacked scans; move to the first one's minimum that is
        not the current point and return its position in ``batch``, or -1
        when none moves."""
        nonlocal scored
        sizes = [math.prod(len(g) for g in grids) for _, grids in batch]
        arity = len(batch[0][0])
        rows = np.repeat(point[None, :], sum(sizes), axis=0)
        moved = np.empty((rows.shape[0], arity))
        here = np.empty((len(batch), arity))
        offset = 0
        for k, ((scan, grids), size) in enumerate(zip(batch, sizes)):
            # A pair's block is its 2-D grid in ``meshgrid(...,
            # indexing="ij")`` order: row-major over (t_i, t_j).
            shape = tuple(len(g) for g in grids)
            row_block = rows[offset:offset + size].reshape(shape + (-1,))
            moved_block = moved[offset:offset + size].reshape(shape + (-1,))
            for c, (idx, values) in enumerate(zip(scan, grids)):
                axis = (slice(None),) + (None,) * (arity - 1 - c)
                row_block[..., idx] = values[axis]
                moved_block[..., c] = values[axis]
                here[k, c] = point[idx]
            offset += size
        owner = np.repeat(np.arange(len(batch)), sizes)
        dv, mu, ok = evaluator.score_batch(rows, capacity)
        feasible = np.flatnonzero(ok)
        # Per scan, the feasible row minimizing (DV, MU, moved tiles...).
        order = np.lexsort(
            tuple(moved[feasible, c] for c in reversed(range(arity)))
            + (mu[feasible], dv[feasible], owner[feasible])
        )
        ranked = feasible[order]
        firsts = np.ones(ranked.size, dtype=bool)
        firsts[1:] = owner[ranked[1:]] != owner[ranked[:-1]]
        best = ranked[firsts]
        moves = (moved[best] != here[owner[best]]).any(axis=1)
        if moves.any():
            row = int(best[np.argmax(moves)])
            for c, idx in enumerate(batch[owner[row]][0]):
                point[idx] = moved[row, c]
                current[names[idx]] = int(moved[row, c])
            scored = (dv[row], mu[row])
            return int(owner[row])
        # Every scan holds the current point; its score closes the descent.
        row = int(np.flatnonzero((moved[:sizes[0]] == here[0]).all(axis=1))[0])
        scored = (dv[row], mu[row])
        return -1

    def run_pass(scans: List[Tuple[int, ...]]) -> bool:
        improved = False
        start = 0
        while start < len(scans):
            batch: List[Tuple[Tuple[int, ...], List[np.ndarray]]] = []
            positions: List[int] = []
            total = 0
            stop = len(scans)
            for pos in range(start, len(scans)):
                grids = grids_for(scans[pos])
                if grids is None:
                    continue
                size = math.prod(len(g) for g in grids)
                if batch and total + size > _DESCENT_BATCH_ROWS:
                    stop = pos
                    break
                batch.append((scans[pos], grids))
                positions.append(pos)
                total += size
            if not batch:
                break
            moved_at = score(batch)
            if moved_at < 0:
                start = stop
            else:
                improved = True
                start = positions[moved_at] + 1
        return improved

    singles = [(idx,) for idx in range(len(names))]
    # The cap is computed from the raw grids so every start skips the same
    # pairs.  A pair with a pinned side is a single-coordinate scan in
    # disguise — already stalled — so ``grids_for`` skips it.
    pairs = [
        (i, j)
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if len(raw_grids[i]) * len(raw_grids[j]) <= _PAIR_SCAN_CAP
    ]
    for _ in range(max_passes):
        if run_pass(singles):
            continue
        if not run_pass(pairs):
            break
    if scored is None:  # no scan ran: every loop is pinned
        dv, mu, _ = evaluator.score_batch(point.reshape(1, -1), capacity)
        scored = (dv[0], mu[0])
    return float(scored[0]), float(scored[1]), current


def _integer_refine(
    model: MovementModel,
    continuous: Mapping[str, float],
    capacity: float,
    names: Sequence[str],
    lower: np.ndarray,
    upper: np.ndarray,
    quanta: Mapping[str, int],
    evaluator: TablesEvaluator,
) -> TileSolution:
    """Floor/ceil lattice search around the continuous optimum.

    The entire lattice is scored in one batched DV/MU evaluation (DV on
    the feasible points only, unless none is feasible).  The selection
    rule is the first-occurrence (in lexicographic lattice order) strict
    minimum of DV among feasible points, with the first-occurrence
    ``(MU, DV)`` minimum as the infeasible fallback, halved toward
    ``lower`` until it fits.  ``lower`` must fit (:func:`solve_tiles`
    checks it first), so the halving ends on a feasible point.
    Every result is then canonicalized by :func:`_canonical_descent`,
    which erases the lattice's dependence on the exact continuous landing
    point.
    """
    candidate_values = _lattice_values(continuous, names, lower, upper, quanta)
    grids = np.meshgrid(
        *[np.asarray(v, dtype=float) for v in candidate_values],
        indexing="ij",
    )
    lattice = np.stack([g.reshape(-1) for g in grids], axis=1)
    dv_all, mu_all, feasible = evaluator.score_batch(lattice, capacity)

    def tiles_of(values: np.ndarray) -> Dict[str, int]:
        return _full_tiles(model, dict(zip(names, (int(v) for v in values))))

    feasible_rows = np.nonzero(feasible)[0]
    if feasible_rows.size:
        best = int(feasible_rows[np.argmin(dv_all[feasible_rows])])
        start = lattice[best]
    else:
        # No feasible lattice point: halve the min-MU candidate toward the
        # lower bounds, which include the hard minimums (never relaxed).
        dv_all = evaluator.volume_exact_batch(lattice)
        shrunk = lattice[int(np.lexsort((dv_all, mu_all))[0])].reshape(1, -1)
        floor = lower.reshape(1, -1)
        while not evaluator.fits_batch(shrunk, capacity)[0]:
            shrunk = np.maximum(floor, np.floor(shrunk / 2))
        start = shrunk[0]
    dv, mu, tiles = _canonical_descent(
        model,
        tiles_of(start),
        capacity,
        names,
        lower,
        upper,
        quanta,
        evaluator=evaluator,
    )
    return TileSolution(tiles, dv, mu, True)


def gemm_chain_closed_form(
    m: int,
    n: int,
    k: int,
    l: int,
    capacity_elements: float,
    alpha: float = 8.0,
) -> Dict[str, float]:
    """The paper's Lagrange-multiplier solution for the GEMM chain.

    Under the ``mlkn`` order, ``DV = MK ceil(L/T_L) + (K+N) L ceil(M/T_M) +
    MN ceil(L/T_L)`` and the optimum (Section IV-B) is::

        T_M* = T_L* = -alpha + sqrt(alpha^2 + MC),   T_N* = T_K* = alpha

    where ``alpha`` is the lower bound for the free variables ``T_N, T_K``
    and MC is the memory capacity in elements.

    Returns:
        real-valued tiles keyed by ``m``, ``n``, ``k``, ``l``.
    """
    if capacity_elements <= 0:
        raise ValueError("capacity must be positive")
    t = -alpha + math.sqrt(alpha * alpha + capacity_elements)
    return {
        "m": min(t, m),
        "l": min(t, l),
        "n": min(alpha, n),
        "k": min(alpha, k),
    }
