"""Memory-hierarchy simulator: the measurement substrate.

Stands in for the paper's real devices and hardware profilers — the
quantities Chimera optimizes (per-boundary data movement) are measured
directly by replaying block schedules through stacked LRU region caches.
"""

from .cache import CacheStats, RegionCache
from .hierarchy import MemoryHierarchySim, SimConfig
from .linecache import (
    boundary_fill_traffic,
    measure_movement_lines,
    simulate_movement_lines,
)
from .profiler import (
    SimReport,
    simulate_plan,
    simulate_program,
    simulate_sequence,
)
from .residency import ResidencyTrace, ScheduleReplayError, replay_schedule
from .timing import movement_times, roofline_time
from .trace import RegionAccess, materialize_trace

__all__ = [
    "CacheStats",
    "RegionCache",
    "MemoryHierarchySim",
    "SimConfig",
    "boundary_fill_traffic",
    "measure_movement_lines",
    "simulate_movement_lines",
    "SimReport",
    "simulate_plan",
    "simulate_program",
    "simulate_sequence",
    "ResidencyTrace",
    "ScheduleReplayError",
    "replay_schedule",
    "movement_times",
    "roofline_time",
    "RegionAccess",
    "materialize_trace",
]
