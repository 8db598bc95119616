"""The exhaustive order search: the oracle for the pruned, memoized one.

:func:`repro.core.search.search_tiles` prunes candidates with an admissible
DV lower bound and reuses solves through the process-global memo; both
are meant to change how fast it runs, never what it returns.  The oracle
here solves every candidate with :func:`~repro.core.solver.solve_tiles`,
with no bound and no memo, and picks the winner with the same eps-aware
total order, so the equivalence suites and benchmarks can compare the two
exactly.
"""

import contextlib
import time
from unittest import mock

import repro.core.optimizer as optimizer_module
from repro.core.search import SearchStats, _best_result
from repro.core.solver import solve_tiles


def exhaustive_search_tiles(
    models,
    capacity,
    *,
    min_tiles=None,
    quanta=None,
    constraint=None,
    max_parent=None,
    hard_min_tiles=None,
    stats=None,
    digest=None,
    x0_hint=None,
    incumbent_hint=None,
):
    """:func:`~repro.core.search.search_tiles` by solving every candidate.

    Takes ``search_tiles``'s arguments; ``digest`` and ``incumbent_hint``
    only steer the memo and the solve sequence, so the oracle ignores
    them.  ``stats`` counts one search and one solve
    per candidate.
    """
    if not models:
        raise ValueError("search_tiles needs at least one candidate model")
    started = time.perf_counter()
    results = [
        (
            model,
            solve_tiles(
                model,
                capacity,
                min_tiles=min_tiles,
                quanta=quanta,
                constraint=constraint,
                max_parent=max_parent,
                hard_min_tiles=hard_min_tiles,
                x0_hint=dict(x0_hint) if x0_hint else None,
            ),
        )
        for model in models
    ]
    if stats is not None:
        stats.merge(
            SearchStats(
                searches=1,
                candidates=len(models),
                solves=len(models),
                solve_seconds=time.perf_counter() - started,
            )
        )
    return _best_result(results)


@contextlib.contextmanager
def exhaustive_search():
    """Within the block, the optimizer searches with the oracle."""
    with mock.patch.object(
        optimizer_module, "search_tiles", exhaustive_search_tiles
    ):
        yield


def exhaustive_optimize(optimizer, chain, **kwargs):
    """``optimizer.optimize(chain, **kwargs)`` through the oracle search."""
    with exhaustive_search():
        return optimizer.optimize(chain, **kwargs)
