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
  hint instead.  The objective and every
  constraint feed SLSQP *analytic* log-space gradients (Algorithm 1 is a
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
  call;
* the refined point is then **canonicalized** by a deterministic cyclic
  per-coordinate scan to the minimum of ``(DV, MU, tile)`` over each
  loop's aligned tile range (:func:`_canonical_descent`).  The exact
  ceil-based DV is piecewise constant, so the continuous optimum sits on
  a DV-flat ridge whose floor/ceil lattice depends on *which* ridge point
  SLSQP converged to; the scan collapses nearby ridge points to the same
  integer solution, and as a bonus canonical points never waste memory:
  among equal-DV tiles the scan keeps the smallest MU.  The scan is a
  local search, though: started far from the continuous optimum (say,
  at the raw log-midpoint) it can stall in a worse valley, which is why
  a cold refinement always starts from SLSQP's landing point;
* when even all-ones tiles do not fit, the answer is those tiles marked
  ``feasible=False``.  MU and the extra constraints are monotone in every
  tile, so that verdict needs neither a start point nor a continuous
  solve.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from .movement import MovementModel
from .tables import TablesEvaluator, evaluator_for

ConstraintFn = Callable[[Mapping[str, float]], float]
"""Extra feasibility predicate: returns (usage - capacity); <= 0 is feasible."""

#: Largest 2-D grid the canonical descent's pairwise pass will score.
#: Depends only on bounds and quanta — never on where SLSQP landed — so
#: skipping an oversized pair is the same decision from every landing
#: point.  4096 rows is one cheap batched evaluation.
_PAIR_SCAN_CAP = 4096


@dataclasses.dataclass(frozen=True)
class TileSolution:
    """Result of one tile-size solve.

    Attributes:
        tiles: integer tile per ordering loop (degenerate loops included
            with tile 1).
        dv: exact data movement volume at ``tiles``, bytes.
        mu: exact memory usage at ``tiles``, bytes.
        feasible: whether ``mu`` (and all extra constraints) fit capacity.
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
    constraints: Sequence[ConstraintFn] = (),
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
        constraints: extra feasibility functions (e.g. the NPU Unified
            Buffer bound on the intermediate footprint).  A constraint
            exposing a ``gradient(tiles)`` method gets an analytic SLSQP
            jacobian; others fall back to finite differences.
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
            to change how fast the solve runs, not what it returns, and
            callers keep it out of memo keys; but the descent is a local
            search, so a far-off hint can end on a different point.

    Returns:
        the best feasible integer solution found; ``feasible=False`` with
        all-ones tiles if even the smallest legal tiles exceed capacity.
    """
    chain = model.chain
    extents = chain.loop_extents()
    names = [n for n in model.perm]
    min_tiles = dict(min_tiles or {})
    hard_min_tiles = dict(hard_min_tiles or {})
    quanta = dict(quanta or {})
    evaluator = evaluator_for(model, names, constraints)

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

    def fits_vector(values: np.ndarray) -> bool:
        if evaluator.usage(values) > capacity:
            return False
        return all(
            evaluator.constraint(i, values) <= 0
            for i in range(len(constraints))
        )

    if not names:
        values = np.ones(0)
        return TileSolution(
            _full_tiles(model, {}),
            float(evaluator.volume_exact_batch(values.reshape(1, 0))[0]),
            evaluator.usage(values),
            fits_vector(values),
        )

    lower = lower_for(min_tiles)
    if min_tiles and not fits_vector(lower):
        # Soft minimums don't fit: relax them and keep only the hard pins.
        lower = lower_for({})

    size = len(names)
    ones = np.ones((1, size))
    if (
        evaluator.usage_batch(ones)[0] > capacity
        or not evaluator.constraints_ok_batch(ones)[0]
    ):
        # MU and the extra constraints are monotone in every tile, so
        # nothing fits, whatever the start.
        return _all_ones(model, evaluator, ones)

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
    for idx in range(len(constraints)):
        entry: Dict = {
            "type": "ineq",
            "fun": lambda x, i=idx: (
                -evaluator.constraint(i, values_at(x)) * inv_capacity
            ),
        }
        if evaluator.constraint_has_gradient(idx):
            entry["jac"] = lambda x, i=idx: (
                -evaluator.constraint_gradient(i, values_at(x))
                * values_at(x)
                * inv_capacity
            )
        cons.append(entry)

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
        constraints,
        evaluator=evaluator,
    )


def _all_ones(
    model: MovementModel, evaluator: TablesEvaluator, ones: np.ndarray
) -> TileSolution:
    """The infeasible verdict: all-ones tiles, which do not fit."""
    return TileSolution(
        _full_tiles(model, {}),
        float(evaluator.volume_exact_batch(ones)[0]),
        float(evaluator.usage_batch(ones)[0]),
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
    constraints: Sequence[ConstraintFn],
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

    The candidate grids depend only on the bounds and quanta, each
    accepted move strictly decreases the ``(DV, MU, tiles)`` key (so the
    scan terminates), and each grid is scored in one batched evaluation.
    It is still a local search, not a proof of start invariance: entry
    points far apart (say, the raw log-midpoint and the continuous
    optimum, or a far-off hint) can stall in different valleys.
    """
    current = dict(tiles)
    names = list(names)
    # Raw aligned grids are a pure function of bounds, quanta and extents —
    # every start sees the same ones, so cap/skip decisions made from them
    # are start-invariant by construction.  With no extra constraints the
    # grids shrink to ceil-bucket lower edges: each movement term is
    # piecewise constant in a multiplier loop's tile (the effective tile is
    # ``extent / trips``) and monotone increasing in footprint-only loops,
    # and MU is monotone, so within one ``ceil(extent / tile)`` bucket the
    # ``(DV, MU, tile)`` key is strictly minimized at the bucket's smallest
    # aligned value — dropping the rest cannot change any scan's argmin.
    # An arbitrary extra constraint could make an edge infeasible while a
    # larger in-bucket tile is feasible, so constrained solves keep the
    # full grids.
    extents = model.chain.loop_extents()

    def _raw_grid(idx: int) -> List[int]:
        candidates = _coordinate_candidates(
            int(lower[idx]), int(upper[idx]), quanta.get(names[idx], 1)
        )
        if constraints:
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

    raw_grids = [_raw_grid(idx) for idx in range(len(names))]

    def grid_for(idx: int) -> List[int]:
        # The current value rides along so its key is scored by the same
        # batch as every candidate.
        return sorted(set(raw_grids[idx]) | {current[names[idx]]})

    def score(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dv, mu, feasible) per row; dv is NaN on infeasible rows (never
        consulted — feasible rows only)."""
        mu = evaluator.usage_batch(rows)
        ok = (mu <= capacity) & evaluator.constraints_ok_batch(rows)
        dv = np.full(rows.shape[0], np.nan)
        if ok.any():  # exact DV only where it can be selected
            dv[ok] = evaluator.volume_exact_batch(rows[ok])
        return dv, mu, ok

    def base_row() -> np.ndarray:
        return np.array([float(current[n]) for n in names], dtype=float)

    def accept(rows: np.ndarray, moved: Sequence[int]) -> bool:
        """Jump to the feasible row minimizing (dv, mu, moved tiles...) if
        it strictly beats the current point's row (always included)."""
        dv, mu, ok = score(rows)
        feasible = np.nonzero(ok)[0]
        if not feasible.size:
            return False
        columns = [rows[feasible, idx] for idx in reversed(moved)]
        order = np.lexsort(tuple(columns) + (mu[feasible], dv[feasible]))
        row = int(feasible[order[0]])
        cur = base_row()
        if all(rows[row, idx] == cur[idx] for idx in moved):
            return False
        cur_rows = np.nonzero((rows == cur).all(axis=1))[0]
        if cur_rows.size and ok[cur_rows[0]]:
            ref = int(cur_rows[0])
            best_key = (dv[row], mu[row]) + tuple(
                rows[row, idx] for idx in moved
            )
            cur_key = (dv[ref], mu[ref]) + tuple(
                rows[ref, idx] for idx in moved
            )
            if not best_key < cur_key:
                return False
        for idx in moved:
            current[names[idx]] = int(rows[row, idx])
        return True

    def pinned(idx: int) -> bool:
        """A coordinate already sitting on its only aligned value cannot
        move, and scanning it re-evaluates rows an earlier (stalled) scan
        already rejected — skipping changes nothing."""
        return (
            len(raw_grids[idx]) == 1
            and raw_grids[idx][0] == current[names[idx]]
        )

    def single_pass() -> bool:
        improved = False
        for idx in range(len(names)):
            if pinned(idx):
                continue
            candidates = grid_for(idx)
            rows = np.tile(base_row(), (len(candidates), 1))
            rows[:, idx] = np.asarray(candidates, dtype=float)
            improved |= accept(rows, [idx])
        return improved

    def pair_pass() -> bool:
        improved = False
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                # The cap is computed from the raw grids so every start
                # skips the same pairs.  A pair with a pinned side is a
                # single-coordinate scan in disguise — already stalled.
                if len(raw_grids[i]) * len(raw_grids[j]) > _PAIR_SCAN_CAP:
                    continue
                if pinned(i) or pinned(j):
                    continue
                grid_i, grid_j = grid_for(i), grid_for(j)
                rows = np.tile(
                    base_row(), (len(grid_i) * len(grid_j), 1)
                )
                mesh_i, mesh_j = np.meshgrid(
                    np.asarray(grid_i, dtype=float),
                    np.asarray(grid_j, dtype=float),
                    indexing="ij",
                )
                rows[:, i] = mesh_i.reshape(-1)
                rows[:, j] = mesh_j.reshape(-1)
                improved |= accept(rows, [i, j])
        return improved

    for _ in range(max_passes):
        if single_pass():
            continue
        if not pair_pass():
            break
    row = base_row().reshape(1, -1)
    dv, mu, _ = score(row)
    return float(dv[0]), float(mu[0]), current


def _integer_refine(
    model: MovementModel,
    continuous: Mapping[str, float],
    capacity: float,
    names: Sequence[str],
    lower: np.ndarray,
    upper: np.ndarray,
    quanta: Mapping[str, int],
    constraints: Sequence[ConstraintFn],
    evaluator: TablesEvaluator,
) -> TileSolution:
    """Floor/ceil lattice search around the continuous optimum.

    The entire lattice is scored in one batched DV/MU evaluation.  The
    selection rule is the first-occurrence (in lexicographic lattice
    order) strict minimum of DV among feasible points, with the
    first-occurrence ``(MU, DV)`` minimum as the infeasible fallback.
    Every feasible result is then canonicalized by
    :func:`_canonical_descent`, which erases the lattice's dependence on
    the exact continuous landing point.
    """
    candidate_values = _lattice_values(continuous, names, lower, upper, quanta)
    grids = np.meshgrid(
        *[np.asarray(v, dtype=float) for v in candidate_values],
        indexing="ij",
    )
    lattice = np.stack([g.reshape(-1) for g in grids], axis=1)
    dv_all = evaluator.volume_exact_batch(lattice)
    mu_all = evaluator.usage_batch(lattice)
    feasible = (mu_all <= capacity) & evaluator.constraints_ok_batch(lattice)

    def tiles_of(values: np.ndarray) -> Dict[str, int]:
        return _full_tiles(model, dict(zip(names, (int(v) for v in values))))

    feasible_rows = np.nonzero(feasible)[0]
    if feasible_rows.size:
        best = int(feasible_rows[np.argmin(dv_all[feasible_rows])])
        dv, mu, tiles = _canonical_descent(
            model,
            tiles_of(lattice[best]),
            capacity,
            names,
            lower,
            upper,
            quanta,
            constraints,
            evaluator=evaluator,
        )
        return TileSolution(tiles, dv, mu, True)

    # No feasible lattice point: shrink the min-MU candidate geometrically.
    shrunk = lattice[int(np.lexsort((dv_all, mu_all))[0])].reshape(1, -1)
    for _ in range(64):
        if (
            evaluator.usage_batch(shrunk)[0] <= capacity
            and evaluator.constraints_ok_batch(shrunk)[0]
        ):
            dv, mu, tiles = _canonical_descent(
                model,
                tiles_of(shrunk[0]),
                capacity,
                names,
                lower,
                upper,
                quanta,
                constraints,
                evaluator=evaluator,
            )
            return TileSolution(tiles, dv, mu, True)
        shrunk = np.maximum(1.0, np.floor(shrunk / 2))
    return _all_ones(model, evaluator, np.ones((1, len(names))))


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
