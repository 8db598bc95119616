"""Slow, obvious references for the compiled validation paths.

The production tracer (:mod:`repro.sim.trace`) and line simulator
(:mod:`repro.sim.linecache`) replay a program's compiled schedule.  These
oracles re-derive the same quantities the direct way so the equivalence
suite can compare them exactly:

* :func:`trace_program_interpreted` re-walks the loop tree and re-derives
  every block's regions;
* :func:`simulate_lines_reference` expands every region row into its
  lines and feeds them one at a time through :class:`LineHierarchySim`,
  a stack of per-line set-associative LRU caches with write-back
  installation.
"""

from typing import Dict, Iterator, List, Optional, Tuple

from repro.codegen.executor import virtual_shapes
from repro.sim.cache import CacheStats
from repro.sim.linecache import (
    LINE_BYTES,
    TensorLayout,
    _geometry,
    _level_capacities,
    build_layouts,
)
from repro.sim.trace import RegionAccess


def trace_program_interpreted(program) -> Iterator[RegionAccess]:
    """Re-walk the loop tree, re-deriving every region per block."""
    chain = program.chain
    shapes = virtual_shapes(chain)
    dtype_bytes = {
        name: spec.dtype.nbytes for name, spec in chain.tensors.items()
    }
    for op, block in program.iterate_blocks():
        ranges = {
            loop.name: block.get(loop.name, (0, loop.extent))
            for loop in op.loops
        }
        for write, accesses in ((False, op.reads), (True, op.writes)):
            for access in accesses:
                region = access.region_from_ranges(
                    ranges, shapes[access.tensor]
                )
                nbytes = _region_bytes(region, dtype_bytes[access.tensor])
                if nbytes:
                    yield RegionAccess(access.tensor, region, nbytes, write)


def _region_bytes(
    region: Tuple[Tuple[int, int], ...], elem_bytes: int
) -> int:
    elems = 1
    for lo, hi in region:
        if hi <= lo:
            return 0
        elems *= hi - lo
    return elems * elem_bytes


def region_lines(
    layout: TensorLayout, region: Tuple[Tuple[int, int], ...]
) -> Iterator[Tuple[int, int]]:
    """Yield (first_line, last_line) spans covering a rectangular region.

    One span per contiguous row of the region (the innermost dimension is
    contiguous in row-major layout).
    """
    lo_last, hi_last = region[-1]
    if hi_last <= lo_last:
        return
    outer_ranges = region[:-1]

    def recurse(axis: int, offset: int) -> Iterator[Tuple[int, int]]:
        if axis == len(outer_ranges):
            start = (offset + lo_last * layout.strides[-1]) * layout.elem_bytes
            stop = (offset + (hi_last - 1) * layout.strides[-1] + 1) * layout.elem_bytes
            yield (
                (layout.base * layout.elem_bytes + start) // LINE_BYTES,
                (layout.base * layout.elem_bytes + stop - 1) // LINE_BYTES,
            )
            return
        lo, hi = outer_ranges[axis]
        for index in range(lo, hi):
            yield from recurse(axis + 1, offset + index * layout.strides[axis])

    yield from recurse(0, 0)


class SetAssociativeCache:
    """An N-way set-associative LRU cache over fixed-size lines."""

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.ways, self.num_sets = _geometry(capacity)
        self.stats = CacheStats()
        # Per set: list of (tag, dirty), most recently used last.
        self._sets: List[List[Tuple[int, bool]]] = [
            [] for _ in range(self.num_sets)
        ]

    def demand(
        self, line: int, *, write: bool = False
    ) -> Tuple[bool, Optional[int]]:
        """Demand access returning (hit, evicted dirty victim line)."""
        index = line % self.num_sets
        tag = line // self.num_sets
        ways = self._sets[index]
        for position, (resident, dirty) in enumerate(ways):
            if resident == tag:
                ways.pop(position)
                ways.append((tag, dirty or write))
                if write:
                    self.stats.write_hits += 1
                else:
                    self.stats.read_hits += 1
                return True, None
        if write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
            self.stats.fill_bytes += LINE_BYTES
        ways.append((tag, write))
        return False, self._evict_overflow(index)

    def install(self, line: int) -> Optional[int]:
        """Install a dirty line written back from the level inward.

        Not demand traffic: no hit/miss/fill counter moves.  Returns the
        dirty victim this level writes back, if any.
        """
        index = line % self.num_sets
        tag = line // self.num_sets
        ways = self._sets[index]
        for position, (resident, _) in enumerate(ways):
            if resident == tag:
                ways.pop(position)
                ways.append((tag, True))
                return None
        ways.append((tag, True))
        return self._evict_overflow(index)

    def _evict_overflow(self, index: int) -> Optional[int]:
        ways = self._sets[index]
        if len(ways) > self.ways:
            victim_tag, dirty = ways.pop(0)
            if dirty:
                self.stats.writeback_bytes += LINE_BYTES
                return victim_tag * self.num_sets + index
        return None

    def drain(self) -> List[int]:
        """Flush, returning the dirty lines in eviction order."""
        dirty_lines: List[int] = []
        for index, ways in enumerate(self._sets):
            for tag, dirty in ways:
                if dirty:
                    self.stats.writeback_bytes += LINE_BYTES
                    dirty_lines.append(tag * self.num_sets + index)
            ways.clear()
        return dirty_lines


class LineHierarchySim:
    """Stacked set-associative line caches, one line access at a time."""

    def __init__(self, hardware) -> None:
        self.caches = [
            SetAssociativeCache(name, capacity)
            for name, capacity in _level_capacities(
                hardware, shared_capacity_per_core=True
            )
        ]

    def _install(self, level: int, line: Optional[int]) -> None:
        """Cascade a written-back line outward from ``level``."""
        while line is not None and level < len(self.caches):
            line = self.caches[level].install(line)
            level += 1

    def _demand_read(self, level: int, line: int) -> None:
        """Read walking outward; victims install after the read passes."""
        if level >= len(self.caches):
            return
        hit, victim = self.caches[level].demand(line)
        if not hit:
            self._demand_read(level + 1, line)
        if victim is not None:
            self._install(level + 1, victim)

    def access_line(self, line: int, *, write: bool = False) -> None:
        if write:
            _, victim = self.caches[0].demand(line, write=True)
            if victim is not None:
                self._install(1, victim)
            return
        self._demand_read(0, line)

    def flush(self) -> None:
        """Drain inner levels outward: dead data still pays every hop."""
        for index, cache in enumerate(self.caches):
            for line in cache.drain():
                self._install(index + 1, line)


def simulate_lines_reference(chain, hardware, program) -> Dict[str, CacheStats]:
    """Per-level post-flush counters, one line access at a time."""
    layouts = build_layouts(chain)
    sim = LineHierarchySim(hardware)
    for access in trace_program_interpreted(program):
        for first, last in region_lines(layouts[access.tensor], access.region):
            for line in range(first, last + 1):
                sim.access_line(line, write=access.write)
    sim.flush()
    return {cache.name: cache.stats for cache in sim.caches}
