"""Region access traces from block programs.

Each computation block reads tiles of its input tensors and writes a tile
of its output; the trace is the resulting stream of (tensor, region) touches
in execution order.  Region keys are derived from clamped element ranges, so
edge blocks and halo overlap behave exactly like on the device.

:func:`materialize_trace` replays the program's compiled schedule
(:mod:`repro.codegen.schedule`): regions and byte counts come from the
precomputed per-op block tables, and the materialized access list is cached
on the schedule, so repeated traversals (per hierarchy level, per boundary,
per simulated-timing query) regenerate nothing.  The equivalence suite
compares it against a tree-walking reference tracer kept with the tests
(``tests/line_oracle.py``).
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from ..codegen.program import BlockProgram
from ..codegen.schedule import CompiledSchedule, compile_schedule


@dataclasses.dataclass(frozen=True)
class RegionAccess:
    """One tile touch.

    Attributes:
        tensor: tensor name.
        region: per-dimension half-open (lo, hi) ranges — the region key.
        nbytes: region size in bytes (clamped).
        write: True for output-tile stores.
    """

    tensor: str
    region: Tuple[Tuple[int, int], ...]
    nbytes: int
    write: bool

    @property
    def key(self) -> Tuple:
        return (self.tensor, self.region)


def materialize_trace(program: BlockProgram) -> List[RegionAccess]:
    """The program's full region access stream as a cached list.

    Built once per compiled schedule from its block tables and kept in the
    schedule's cache, so every consumer — region hierarchy replay,
    profiling, movement validation — walks the same materialized list.
    """
    schedule = compile_schedule(program)
    cached = schedule.cache.get("trace")
    if cached is None:
        cached = _materialize(schedule)
        schedule.cache["trace"] = cached
    return cached


def _materialize(schedule: CompiledSchedule) -> List[RegionAccess]:
    per_table: List[List[List[RegionAccess]]] = []
    for table in schedule.tables:
        columns: List[List[RegionAccess]] = []
        for site in table.sites:
            tuples = site.region_tuples()
            nbytes = site.nbytes.tolist()
            columns.append(
                [
                    RegionAccess(site.tensor, region, size, site.write)
                    for region, size in zip(tuples, nbytes)
                ]
            )
        per_table.append(columns)

    trace: List[RegionAccess] = []
    append = trace.append
    for index, row in zip(
        schedule.block_table.tolist(), schedule.block_row.tolist()
    ):
        for column in per_table[index]:
            access = column[row]
            if access.nbytes:
                append(access)
    return trace
