"""The full-rebuild anneal: the oracle for the incremental one.

:func:`repro.runtime.scheduler._anneal` keeps the live profile between
moves and updates only the two steps an adjacent swap changes.  The anneal
here rebuilds the whole profile with
:func:`~repro.runtime.scheduler._live_profile` after every swap, so
``tests/test_graph_schedule.py`` can compare the two's ``(order, peak)``
with ``==``.
"""

import math
import random
from typing import List, Mapping, Set, Tuple

from repro.runtime.scheduler import _live_profile, _peak


def anneal_by_rebuild(
    order: List[str],
    edges: Set[Tuple[str, str]],
    footprints: Mapping[str, int],
    consumers: Mapping[str, Tuple[str, ...]],
    rng: random.Random,
    iterations: int,
    transients: Mapping[str, int] = (),
) -> Tuple[List[str], int]:
    """:func:`repro.runtime.scheduler._anneal`, one full profile per swap.

    Takes the same arguments and returns the same ``(order, peak)``.
    """
    current = list(order)
    current_peak = _peak(
        _live_profile(current, footprints, consumers, {}, transients)
    )
    best = list(current)
    best_peak = current_peak
    count = len(current)
    if count < 2 or iterations <= 0:
        return best, best_peak
    t_start = max(1.0, 0.05 * max(best_peak, 1))
    t_end = max(1.0, 1e-3 * t_start)
    for step in range(iterations):
        index = rng.randrange(count - 1)
        left, right = current[index], current[index + 1]
        if (left, right) in edges:
            continue
        current[index], current[index + 1] = right, left
        peak = _peak(
            _live_profile(current, footprints, consumers, {}, transients)
        )
        temperature = t_start * (t_end / t_start) ** (
            step / max(1, iterations - 1)
        )
        delta = peak - current_peak
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current_peak = peak
            if peak < best_peak:
                best = list(current)
                best_peak = peak
        else:
            current[index], current[index + 1] = left, right
    return best, best_peak
