"""The one-scan-at-a-time canonical descent: the oracle for the batched one.

:func:`repro.core.solver._canonical_descent` stacks the scans of a pass
into batches and moves to the first scan whose minimum is not the current
point.  The descent here is the order that batching must reproduce: each
scan is built from the current point and scored alone, and a move is
applied before the next scan is built.  The differential suite
(``tests/test_descent_equivalence.py``) compares the two with ``==``.
"""

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.movement import MovementModel
from repro.core.solver import _PAIR_SCAN_CAP, _coordinate_candidates
from repro.core.tables import TablesEvaluator


def sequential_descent(
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
    """:func:`repro.core.solver._canonical_descent` one scan at a time.

    Takes the same arguments and returns the same ``(dv, mu, tiles)``.
    Every single-coordinate or pairwise scan is built from the current
    point and scored on its own (one ``accept`` per scan), and the final
    point is scored once more at the end.
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
    # Constrained solves keep the full grids, as the solver does (the pair
    # cap is counted on them).
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

    raw_grids = [_raw_grid(idx) for idx in range(len(names))]

    def grid_for(idx: int) -> List[int]:
        # The current value rides along so its key is scored by the same
        # batch as every candidate.
        return sorted(set(raw_grids[idx]) | {current[names[idx]]})

    def score(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dv, mu, feasible) per row; dv is NaN on infeasible rows (never
        consulted — feasible rows only)."""
        mu = evaluator.usage_batch(rows)
        ok = mu <= capacity
        if evaluator.constraint is not None:
            ok &= evaluator.constraint.batch(evaluator.matrix(rows)) <= 0
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
