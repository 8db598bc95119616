"""Tests for the line-granularity ground-truth cache model.

The unit scenarios drive the production replay directly: a hand-built
line stream through :func:`_replay_innermost`, or a hand-built event list
(``line << 1``: demand read; ``line << 1 | 1``: write-back install)
through :func:`_replay_events`, asserting exact counters and the output
events each level hands outward.
"""

import pytest

from repro.codegen.program import lower_schedule
from repro.hardware import xeon_gold_6240
from repro.ir.chains import gemm_chain
from repro.sim.cache import CacheStats
from repro.sim.linecache import (
    _geometry,
    _LineStream,
    _replay_events,
    _replay_innermost,
    boundary_fill_traffic,
    build_layouts,
    measure_movement_lines,
    simulate_movement_lines,
)

from tests.line_oracle import region_lines


def _stream(*accesses):
    """A line stream of ``(line, write)`` accesses, nothing coalesced."""
    return _LineStream(
        lines=[line for line, _ in accesses],
        writes=[write for _, write in accesses],
        repeat_read_hits=0,
        repeat_write_hits=0,
    )


def _read(line):
    return line << 1


def _install(line):
    return (line << 1) | 1


class TestSetAssociativeCache:
    """One level's set-associative LRU behaviour: geometry and replay."""

    def test_hit_after_fill(self):
        stats, events = _replay_innermost(
            _stream((0, False), (0, False)), ways=2, num_sets=8,
            collect_misses=True,
        )
        assert stats == CacheStats(read_hits=1, read_misses=1, fill_bytes=64)
        assert events == [_read(0)]

    def test_way_conflict_eviction(self):
        # 2 ways, 4 sets: three lines mapping to set 0 conflict.
        stats, events = _replay_innermost(
            _stream((0, False), (4, False), (8, False), (0, False)),
            ways=2, num_sets=4, collect_misses=True,
        )
        # Line 8 evicted line 0 (LRU within set 0), so line 0 misses again.
        assert stats == CacheStats(read_misses=4, fill_bytes=4 * 64)
        assert events == [_read(0), _read(4), _read(8), _read(0)]

    def test_dirty_eviction_writes_back(self):
        # Direct-mapped, 2 sets: lines 0 and 2 share set 0.
        stats, events = _replay_innermost(
            _stream((0, True), (2, False)), ways=1, num_sets=2,
            collect_misses=True,
        )
        assert stats == CacheStats(
            read_misses=1, write_misses=1, fill_bytes=64, writeback_bytes=64
        )
        # The read miss goes outward before the victim it displaced.
        assert events == [_read(2), _install(0)]

    def test_flush_writes_back_dirty(self):
        ways, num_sets = _geometry(1024)
        stats, events = _replay_innermost(
            _stream((3, True), (5, False)), ways, num_sets,
            collect_misses=True,
        )
        assert stats == CacheStats(
            read_misses=1, write_misses=1, fill_bytes=64, writeback_bytes=64
        )
        assert events == [_read(5), _install(3)]

    def test_tiny_capacity_degrades_ways(self):
        assert _geometry(64) == (1, 1)
        assert _geometry(3 * 64) == (3, 1)
        assert _geometry(1024) == (8, 2)


class TestWriteBackInstallation:
    """Dirty victims install into the next level out — the path that keeps
    produced-then-consumed intermediates on chip across kernel stages.

    The two-level scenarios use a direct-mapped 128 B first level (2 sets)
    and a direct-mapped 1 KiB second level (16 sets)."""

    def test_install_is_not_demand_traffic(self):
        stats, events = _replay_events(
            [_install(3), _read(3)], ways=1, num_sets=16, collect_misses=True
        )
        # The install moves no demand counter; the read then hits the
        # installed line, and the flush writes the dirty line back.
        assert stats == CacheStats(read_hits=1, writeback_bytes=64)
        assert events == [_install(3)]

    def test_install_cascades_its_own_dirty_victim(self):
        stats, events = _replay_events(
            [_install(0), _install(2)], ways=1, num_sets=2, collect_misses=True
        )
        # Installing line 2 evicts dirty line 0 (same set) mid-stream; the
        # flush then writes line 2 back.
        assert stats == CacheStats(writeback_bytes=2 * 64)
        assert events == [_install(0), _install(2)]

    def test_evicted_dirty_line_lands_in_next_level(self):
        l1, events = _replay_innermost(
            _stream((0, True), (2, False), (0, False)), ways=1, num_sets=2,
            collect_misses=True,
        )
        assert l1 == CacheStats(
            read_misses=2, write_misses=1, fill_bytes=2 * 64,
            writeback_bytes=64,
        )
        assert events == [_read(2), _install(0), _read(0)]
        l2, _ = _replay_events(events, ways=1, num_sets=16, collect_misses=True)
        # L1 missed line 0, but L2 holds the written-back line; only line 2
        # was demand-filled.
        assert l2 == CacheStats(
            read_hits=1, read_misses=1, fill_bytes=64, writeback_bytes=64
        )

    def test_flush_drains_inner_levels_outward(self):
        l1, events = _replay_innermost(
            _stream((0, True)), ways=1, num_sets=2, collect_misses=True
        )
        l2, out = _replay_events(events, ways=1, num_sets=16, collect_misses=True)
        # The dirty line pays every hop: L1 -> L2, then L2 -> DRAM, so the
        # outermost write-back counter is the true DRAM write traffic.
        assert l1 == CacheStats(write_misses=1, writeback_bytes=64)
        assert l2 == CacheStats(writeback_bytes=64)
        assert out == [_install(0)]

    def test_boundary_fill_traffic_attributes_compulsory_io(self):
        """With the full LLC, a fused chain's DRAM fills are exactly the
        compulsory input fetches; intermediates never cross the boundary."""
        chain = gemm_chain(16, 16, 16, 16)
        hw = xeon_gold_6240()
        program = lower_schedule(
            chain, ("m", "l", "k", "n"),
            {"m": 16, "l": 16, "k": 16, "n": 16},
        )
        fills = boundary_fill_traffic(
            chain, hw, program, shared_capacity_per_core=False
        )
        assert set(fills) == set(chain.tensors)
        for name in chain.input_tensors():
            assert fills[name] >= chain.tensors[name].nbytes
        for name in chain.intermediate_tensors():
            assert fills[name] == 0


class TestLayouts:
    def test_row_major_strides(self):
        chain = gemm_chain(16, 16, 16, 16)
        layouts = build_layouts(chain)
        a = layouts["A"]
        assert a.strides == (16, 1)

    def test_tensors_do_not_overlap(self):
        chain = gemm_chain(16, 16, 16, 16)
        layouts = build_layouts(chain)
        spans = []
        for name, layout in layouts.items():
            nbytes = layout.strides[0] * layout.shape[0] * layout.elem_bytes
            spans.append((layout.base * layout.elem_bytes, nbytes, name))
        spans.sort()
        for (start_a, len_a, _), (start_b, _, _) in zip(spans, spans[1:]):
            assert start_a + len_a <= start_b

    def test_region_lines_cover_rows(self):
        chain = gemm_chain(16, 16, 16, 16)
        layout = build_layouts(chain)["A"]
        spans = list(region_lines(layout, ((2, 4), (0, 16))))
        assert len(spans) == 2  # one contiguous span per row
        for first, last in spans:
            assert last >= first


class TestLevelQueries:
    def test_unknown_level_lists_the_on_chip_levels(self):
        chain = gemm_chain(16, 16, 16, 16)
        hw = xeon_gold_6240()
        program = lower_schedule(
            chain, ("m", "l", "k", "n"), {"m": 8, "l": 8, "k": 8, "n": 8}
        )
        names = [level.name for level in hw.on_chip_levels]
        for query in (
            lambda: measure_movement_lines(chain, hw, program, "DRAM"),
            lambda: simulate_movement_lines(
                chain, hw, program, upto_level="DRAM"
            ),
            lambda: boundary_fill_traffic(chain, hw, program, "DRAM"),
        ):
            with pytest.raises(ValueError, match="'DRAM'") as info:
                query()
            assert str(names) in str(info.value)

    def test_upto_level_is_a_prefix_of_the_full_walk(self):
        chain = gemm_chain(32, 32, 32, 32)
        hw = xeon_gold_6240()
        program = lower_schedule(
            chain, ("m", "l", "k", "n"), {"m": 8, "l": 16, "k": 8, "n": 8}
        )
        full = simulate_movement_lines(chain, hw, program)
        names = list(full)
        assert names == [level.name for level in hw.on_chip_levels]
        for index, name in enumerate(names):
            partial = simulate_movement_lines(
                chain, hw, program, upto_level=name
            )
            assert partial == {n: full[n] for n in names[: index + 1]}


class TestCrossValidation:
    def test_line_sim_confirms_region_sim_ranking(self):
        """The ground-truth line model must rank schedules the same way as
        the fast region model (and as Algorithm 1)."""
        from repro.analysis.validation import measure_movement
        from repro.core.movement import MovementModel

        chain = gemm_chain(64, 64, 64, 64)
        hw = xeon_gold_6240()
        order = ("m", "l", "k", "n")
        model = MovementModel(chain, order)

        candidates = [
            {"m": 32, "l": 32, "k": 16, "n": 16},
            {"m": 8, "l": 8, "k": 8, "n": 8},
            {"m": 16, "l": 64, "k": 8, "n": 32},
        ]
        predicted, region_measured, line_measured = [], [], []
        for tiles in candidates:
            program = lower_schedule(chain, order, tiles)
            predicted.append(model.volume(tiles))
            region_measured.append(
                measure_movement(chain, hw, order, tiles, "L1")
            )
            line_measured.append(
                measure_movement_lines(chain, hw, program, "L1")
            )
        # All three orderings agree on which candidate moves the least.
        assert (
            predicted.index(min(predicted))
            == region_measured.index(min(region_measured))
            == line_measured.index(min(line_measured))
        )

    def test_line_traffic_within_factor_of_region_traffic(self):
        from repro.analysis.validation import measure_movement

        chain = gemm_chain(64, 64, 64, 64)
        hw = xeon_gold_6240()
        order = ("m", "l", "k", "n")
        tiles = {"m": 16, "l": 16, "k": 16, "n": 16}
        program = lower_schedule(chain, order, tiles)
        region = measure_movement(chain, hw, order, tiles, "L1")
        lines = measure_movement_lines(chain, hw, program, "L1")
        # Line granularity rounds regions up to 64B lines; agreement within
        # 2x validates the fast model's accounting.
        assert 0.5 <= lines / region <= 2.0
