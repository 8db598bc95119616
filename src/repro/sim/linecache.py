"""Line-granularity set-associative cache simulation.

The primary measurement substrate (:mod:`repro.sim.cache`) tracks *tile
regions* — fast, and faithful to how block schedules move data.  This
module provides the ground-truth cross-check: a classic set-associative
LRU cache over 64-byte lines, with tensors laid out row-major in a flat
address space, exactly what the paper's hardware profilers measured.

A program's line-access stream is generated once with numpy (span arrays
per region row, expanded and run-length coalesced) and memoized on the
compiled schedule, then replayed through a batched LRU update one level
at a time.  Three exact properties make this lossless:

- consecutive accesses to the same line with the same read/write kind
  are, after the first, guaranteed MRU hits in the innermost level and
  touch nothing else — so a run of length ``n`` contributes ``n - 1``
  straight to that level's hit counter;
- reads walk inward-out, demand writes land in the innermost level, and
  a dirty victim evicted from level ``k`` installs into level ``k+1``
  (the write-back path) — so level ``k+1``'s input stream is exactly
  level ``k``'s read misses interleaved with its dirty write-backs, and
  levels can be simulated one at a time;
- a boundary query therefore needs only the levels up to the requested
  one (lazy simulation), because a level's counters depend only on its
  own input stream.

The write-back installation is what makes fusion visible at line
granularity: a produced-then-consumed intermediate that outgrows the
innermost level migrates outward through the hierarchy instead of
falling off the chip, so its later reads hit in an outer level.
Stitched chains (:mod:`repro.ir.stitch`) lean on exactly this — the
bridge tensor between a CI block and its folded memory-intensive op
stays somewhere on chip, contributing zero DRAM-boundary *fills*
(:func:`boundary_fill_traffic` attributes them per tensor), whereas the
unstitched per-op programs write it back and re-read it cold.

The equivalence suite (``tests/test_compiled_schedule.py``) asserts
field-by-field equal :class:`CacheStats` against a per-line reference
hierarchy kept with the tests (``tests/line_oracle.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..codegen.executor import virtual_shapes
from ..codegen.program import BlockProgram
from ..codegen.schedule import compile_schedule
from ..hardware.spec import HardwareSpec
from .cache import CacheStats

#: Cache line size in bytes.
LINE_BYTES = 64
#: Associativity of every level (degraded at capacities below one set).
WAYS = 8


def _geometry(capacity: int) -> Tuple[int, int]:
    """Effective (ways, num_sets) of one level.

    Capacities below one full set degrade associativity rather than
    rounding the cache away.
    """
    ways = WAYS
    if capacity < LINE_BYTES * ways:
        ways = max(1, capacity // LINE_BYTES)
    num_sets = max(1, capacity // (LINE_BYTES * ways))
    return ways, num_sets


@dataclasses.dataclass(frozen=True)
class TensorLayout:
    """Row-major placement of one tensor in the flat address space."""

    base: int
    shape: Tuple[int, ...]
    strides: Tuple[int, ...]  # in elements
    elem_bytes: int


def build_layouts(chain) -> Dict[str, TensorLayout]:
    """Assign every tensor a line-aligned row-major address range."""
    layouts: Dict[str, TensorLayout] = {}
    cursor = 0
    shapes = virtual_shapes(chain)
    for name, spec in chain.tensors.items():
        shape = shapes[name]
        strides = [1] * len(shape)
        for axis in range(len(shape) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * shape[axis + 1]
        layouts[name] = TensorLayout(
            base=cursor,
            shape=tuple(shape),
            strides=tuple(strides),
            elem_bytes=spec.dtype.nbytes,
        )
        nbytes = strides[0] * shape[0] * spec.dtype.nbytes
        cursor += (nbytes + 4095) // 4096 * 4096  # page-align tensors
    return layouts


def _level_capacities(
    hardware: HardwareSpec, shared_capacity_per_core: bool
) -> List[Tuple[str, int]]:
    levels: List[Tuple[str, int]] = []
    for level in hardware.on_chip_levels:
        capacity = level.capacity
        if level.shared and shared_capacity_per_core:
            capacity = hardware.per_block_capacity(level)
        levels.append((level.name, int(capacity)))
    return levels


def _ragged_ramp(lengths: np.ndarray) -> np.ndarray:
    """``[0..l0), [0..l1), ...`` concatenated, for int64 ``lengths``."""
    total = int(lengths.sum())
    return np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )


def _site_lines(layout: TensorLayout, site) -> Tuple[np.ndarray, np.ndarray]:
    """All line numbers one access site touches, for every block at once.

    Batched over the site's ``(B, ndim, 2)`` region table: ragged
    outer-dimension offsets (repeat + ramp per dimension), then the
    first/last line of each contiguous row (the innermost dimension is
    contiguous in row-major layout) and one final expansion.  Blocks
    with empty regions (``nbytes == 0``) contribute nothing, matching the
    materialized trace.

    Returns:
        ``(lines, counts)`` — the concatenated int64 line numbers in
        block-major, row-major order, and the number of lines each block
        contributed (one entry per block, zeros for empty regions).
    """
    regions = site.regions
    blocks, ndim = regions.shape[0], regions.shape[1]
    lo = regions[..., 0]
    hi = regions[..., 1]
    blk = np.flatnonzero(site.nbytes > 0)
    offsets = np.zeros(blk.shape[0], dtype=np.int64)
    for axis in range(ndim - 1):
        stride = layout.strides[axis]
        widths = hi[blk, axis] - lo[blk, axis]
        ramp = _ragged_ramp(widths)
        offsets = np.repeat(offsets + lo[blk, axis] * stride, widths)
        offsets += ramp * stride
        blk = np.repeat(blk, widths)
    elem_bytes = layout.elem_bytes
    base_bytes = layout.base * elem_bytes
    stride_last = layout.strides[-1]
    first = (
        base_bytes + (offsets + lo[blk, -1] * stride_last) * elem_bytes
    ) // LINE_BYTES
    last = (
        base_bytes
        + ((offsets + (hi[blk, -1] - 1) * stride_last + 1) * elem_bytes)
        - 1
    ) // LINE_BYTES
    lengths = last - first + 1
    lines = np.repeat(first, lengths) + _ragged_ramp(lengths)
    counts = np.bincount(
        np.repeat(blk, lengths), minlength=blocks
    ).astype(np.int64)
    return lines, counts


@dataclasses.dataclass
class _LineStream:
    """A program's coalesced line-access stream (memoized per schedule).

    ``lines``/``writes`` are run-length coalesced over consecutive
    accesses with equal (line, kind); ``repeat_read_hits`` /
    ``repeat_write_hits`` hold the folded repeats — a run's second and
    later accesses are guaranteed MRU hits in the innermost level, so
    they land straight in its hit counters without touching LRU state.
    """

    lines: List[int]
    writes: List[bool]
    repeat_read_hits: int
    repeat_write_hits: int
    #: per-geometry set indices (keyed by num_sets).  Plain int lists on
    #: purpose: ints are not GC-tracked, so the replay loop — which pairs
    #: them with ``lines``/``writes`` through a lazy ``zip`` — allocates
    #: no collector-visible objects.  (Materializing ``list(zip(...))``
    #: here costs ~80 gen-0 collections per replay.)
    set_indices: Dict[int, List[int]] = dataclasses.field(default_factory=dict)

    def sets_for(self, num_sets: int) -> List[int]:
        cached = self.set_indices.get(num_sets)
        if cached is None:
            cached = (
                np.asarray(self.lines, dtype=np.int64) % num_sets
            ).tolist()
            self.set_indices[num_sets] = cached
        return cached


def _line_stream(program: BlockProgram) -> _LineStream:
    """Build (or fetch) the memoized line stream of a program.

    Each access site expands to its lines for *all* blocks in one numpy
    pass (:func:`_site_lines`); the per-(block, site) chunks are then
    scattered into global execution order — blocks by their traversal
    position, sites of one block reads-then-writes, exactly the
    materialized trace's order.  Cached in the compiled schedule's
    scratch space — the layouts derive from the chain alone, so the
    schedule digest subsumes them.
    """
    schedule = compile_schedule(program)
    cached = schedule.cache.get("line_stream")
    if cached is not None:
        return cached

    layouts = build_layouts(schedule.chain)
    site_stride = max(
        (len(table.sites) for table in schedule.tables), default=1
    )
    chunk_keys: List[np.ndarray] = []
    chunk_lens: List[np.ndarray] = []
    chunk_writes: List[np.ndarray] = []
    site_chunks: List[np.ndarray] = []
    for table in schedule.tables:
        for ordinal, site in enumerate(table.sites):
            lines, counts = _site_lines(layouts[site.tensor], site)
            if not lines.shape[0]:
                continue
            valid = np.flatnonzero(counts)
            site_chunks.append(lines)
            chunk_keys.append(table.positions[valid] * site_stride + ordinal)
            chunk_lens.append(counts[valid])
            chunk_writes.append(
                np.full(valid.shape[0], site.write, dtype=bool)
            )
    if not site_chunks:
        stream = _LineStream([], [], 0, 0)
        schedule.cache["line_stream"] = stream
        return stream

    keys = np.concatenate(chunk_keys)
    lens = np.concatenate(chunk_lens)
    flags = np.concatenate(chunk_writes)
    unordered = np.concatenate(site_chunks)
    # Scatter chunks to their stream positions: sorting the (few hundred)
    # chunk keys sidesteps a full sort of the line array itself.
    order = np.argsort(keys, kind="stable")
    sorted_lens = lens[order]
    starts = np.empty(order.shape[0], dtype=np.int64)
    starts[order] = np.cumsum(sorted_lens) - sorted_lens
    dest = np.repeat(starts, lens) + _ragged_ramp(lens)
    lines = np.empty(unordered.shape[0], dtype=np.int64)
    lines[dest] = unordered
    writes = np.empty(unordered.shape[0], dtype=bool)
    writes[dest] = np.repeat(flags, lens)
    keep = np.empty(lines.shape[0], dtype=bool)
    keep[0] = True
    keep[1:] = (lines[1:] != lines[:-1]) | (writes[1:] != writes[:-1])
    starts = np.flatnonzero(keep)
    repeats = np.diff(np.append(starts, lines.shape[0])) - 1
    run_writes = writes[starts]
    stream = _LineStream(
        lines=lines[starts].tolist(),
        writes=run_writes.tolist(),
        repeat_read_hits=int(repeats[~run_writes].sum()),
        repeat_write_hits=int(repeats[run_writes].sum()),
    )
    schedule.cache["line_stream"] = stream
    return stream


def _replay_innermost(
    stream: _LineStream,
    ways: int,
    num_sets: int,
    collect_misses: bool,
) -> Tuple[CacheStats, List[int]]:
    """Replay the full read/write stream through the innermost level.

    Per set a plain dict keyed by line (insertion order = LRU order,
    pop + reinsert = move-to-MRU) holds the dirty bit.  Returns the
    level's post-flush stats and (optionally) its output event stream —
    the next level's input: read misses interleaved, in order, with the
    dirty victims this level writes back (``line << 1 | kind``, kind 1
    for a write-back install).
    """
    sets: List[Dict[int, bool]] = [dict() for _ in range(num_sets)]
    read_hits = read_misses = write_hits = write_misses = 0
    writeback_lines = 0
    events: List[int] = []
    emit = events.append
    sentinel = -1  # dirty bits are bools; -1 marks "absent"

    for line, set_index, write in zip(
        stream.lines, stream.sets_for(num_sets), stream.writes
    ):
        entries = sets[set_index]
        dirty = entries.pop(line, sentinel)
        if dirty is sentinel:
            if write:
                write_misses += 1
            else:
                read_misses += 1
                if collect_misses:
                    emit(line << 1)
            entries[line] = write
            if len(entries) > ways:
                victim = next(iter(entries))
                if entries.pop(victim):
                    writeback_lines += 1
                    if collect_misses:
                        emit((victim << 1) | 1)
        else:
            entries[line] = dirty or write
            if write:
                write_hits += 1
            else:
                read_hits += 1

    # Flush: every still-resident dirty line writes back (installing
    # into the next level outward, exactly like mid-stream victims).
    for entries in sets:
        for line, dirty in entries.items():
            if dirty:
                writeback_lines += 1
                if collect_misses:
                    emit((line << 1) | 1)

    stats = CacheStats(
        read_hits=read_hits + stream.repeat_read_hits,
        read_misses=read_misses,
        write_hits=write_hits + stream.repeat_write_hits,
        write_misses=write_misses,
        fill_bytes=read_misses * LINE_BYTES,
        writeback_bytes=writeback_lines * LINE_BYTES,
    )
    return stats, events


def _replay_events(
    events: Sequence[int],
    ways: int,
    num_sets: int,
    collect_misses: bool,
) -> Tuple[CacheStats, List[int]]:
    """Replay one outer level's input event stream.

    Events are the inner level's read misses (demand reads here) and its
    dirty write-backs (installs here).  Installs are not demand traffic:
    they land dirty at MRU without touching hit/miss/fill counters, and
    they never fetch from the next level on absence — data arrives from
    inside the chip.  The level's own output stream has the same shape,
    so levels still factor and a boundary query stays lazy.
    """
    sets: List[Dict[int, bool]] = [dict() for _ in range(num_sets)]
    read_hits = read_misses = 0
    writeback_lines = 0
    out: List[int] = []
    emit = out.append
    sentinel = -1
    for event in events:
        line = event >> 1
        entries = sets[line % num_sets]
        dirty = entries.pop(line, sentinel)
        if event & 1:  # write-back install from the level inward
            entries[line] = True
            if dirty is sentinel and len(entries) > ways:
                victim = next(iter(entries))
                if entries.pop(victim):
                    writeback_lines += 1
                    if collect_misses:
                        emit((victim << 1) | 1)
        elif dirty is sentinel:  # demand read miss
            read_misses += 1
            if collect_misses:
                emit(line << 1)
            entries[line] = False
            if len(entries) > ways:
                victim = next(iter(entries))
                if entries.pop(victim):
                    writeback_lines += 1
                    if collect_misses:
                        emit((victim << 1) | 1)
        else:  # demand read hit (dirty bit survives)
            entries[line] = dirty
            read_hits += 1

    for entries in sets:
        for line, dirty in entries.items():
            if dirty:
                writeback_lines += 1
                if collect_misses:
                    emit((line << 1) | 1)

    stats = CacheStats(
        read_hits=read_hits,
        read_misses=read_misses,
        fill_bytes=read_misses * LINE_BYTES,
        writeback_bytes=writeback_lines * LINE_BYTES,
    )
    return stats, out


def _replay_levels(
    hardware: HardwareSpec,
    program: BlockProgram,
    level: Optional[str],
    shared_capacity_per_core: bool,
    *,
    emit_last: bool,
) -> Tuple[Dict[str, CacheStats], List[int]]:
    """Replay a program's line stream from the innermost level outward.

    Simulates the on-chip levels up to and including ``level`` (``None``:
    the outermost on-chip level).  Returns each simulated level's
    post-flush stats and, with ``emit_last``, the last level's output
    events (its read misses and dirty write-backs, see
    :func:`_replay_innermost`); otherwise an empty event list.

    Raises:
        ValueError: if ``level`` is not an on-chip level of ``hardware``.
    """
    levels = _level_capacities(hardware, shared_capacity_per_core)
    names = [name for name, _ in levels]
    if level is None:
        last = len(levels) - 1
    elif level in names:
        last = names.index(level)
    else:
        raise ValueError(
            f"unknown cache level {level!r}; the on-chip levels of "
            f"{hardware.name} are {names}"
        )
    stream = _line_stream(program)
    results: Dict[str, CacheStats] = {}
    events: List[int] = []
    for index, (name, capacity) in enumerate(levels[: last + 1]):
        ways, num_sets = _geometry(capacity)
        collect = emit_last or index < last
        if index == 0:
            stats, events = _replay_innermost(stream, ways, num_sets, collect)
        else:
            # This level's input: the previous level's read misses plus
            # its dirty write-backs, interleaved in eviction order.
            stats, events = _replay_events(events, ways, num_sets, collect)
        results[name] = stats
    return results, events


def simulate_movement_lines(
    chain,
    hardware: HardwareSpec,
    program: BlockProgram,
    *,
    shared_capacity_per_core: bool = True,
    upto_level: Optional[str] = None,
) -> Dict[str, CacheStats]:
    """Per-level line-cache counters for a schedule (post-flush).

    Args:
        upto_level: stop after this level — exact, because a level's
            counters depend only on its own input stream.  ``None``
            simulates the whole on-chip hierarchy.

    Returns:
        ``{level name: CacheStats}`` for every simulated level.
    """
    stats, _ = _replay_levels(
        hardware, program, upto_level, shared_capacity_per_core,
        emit_last=False,
    )
    return stats


def measure_movement_lines(
    chain,
    hardware: HardwareSpec,
    program: BlockProgram,
    level: Optional[str] = None,
) -> float:
    """Line-granularity measured traffic at one boundary for a schedule.

    ``level`` defaults to the innermost level; only the levels up to it
    are simulated.  The traffic is the level's fills plus write-backs.
    """
    if level is None:
        level = hardware.innermost.name
    stats = simulate_movement_lines(chain, hardware, program, upto_level=level)
    level_stats = stats[level]
    return float(level_stats.fill_bytes + level_stats.writeback_bytes)


def boundary_fill_traffic(
    chain,
    hardware: HardwareSpec,
    program: BlockProgram,
    level: Optional[str] = None,
    *,
    shared_capacity_per_core: bool = True,
) -> Dict[str, int]:
    """Per-tensor fill bytes a level fetches from the next level outward.

    With ``level`` left at the outermost on-chip level this is the read
    traffic crossing the DRAM boundary, attributed to tensors by address
    span (tensor placements are page-aligned, so no line is shared).
    Tensors that never miss at the level — e.g. a stitched bridge tensor
    written on chip and re-read before eviction from the hierarchy — get
    a zero entry, which is how the stitching suite proves an
    intermediate's round trip disappeared rather than just shrank.

    Only fills are attributed: write-backs of dead intermediates at the
    final flush are unavoidable for any cache (it cannot know the data
    is dead), so the read side is where stitching's saving shows.
    """
    _, events = _replay_levels(
        hardware, program, level, shared_capacity_per_core, emit_last=True
    )

    layouts = build_layouts(chain)
    starts, ends, order = [], [], []
    for name, layout in sorted(
        layouts.items(), key=lambda item: item[1].base
    ):
        start = layout.base * layout.elem_bytes // LINE_BYTES
        nbytes = layout.strides[0] * layout.shape[0] * layout.elem_bytes
        starts.append(start)
        ends.append(start + (nbytes + LINE_BYTES - 1) // LINE_BYTES)
        order.append(name)

    counts = {name: 0 for name in layouts}
    if events:
        raw = np.asarray(events, dtype=np.int64)
        lines = raw[(raw & 1) == 0] >> 1  # demand-read fills only
        slots = np.searchsorted(np.asarray(starts), lines, side="right") - 1
        for slot, count in zip(*np.unique(slots, return_counts=True)):
            if 0 <= slot < len(order) and lines[slots == slot].max() < ends[slot]:
                counts[order[slot]] += int(count) * LINE_BYTES
    return counts
