"""Property-based tests for the simulator and block programs."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen.program import lower_schedule
from repro.hardware.spec import HardwareSpec, MemoryLevel
from repro.ir.chains import batch_gemm_chain, conv_chain, mlp_chain
from repro.sim.cache import RegionCache
from repro.sim.hierarchy import MemoryHierarchySim
from repro.sim.trace import materialize_trace

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class _ReferenceLRU:
    """A naive, obviously-correct LRU used to cross-check RegionCache."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []  # (key, nbytes), most recent last
        self.used = 0

    def access(self, key, nbytes):
        for index, (k, n) in enumerate(self.entries):
            if k == key:
                self.entries.pop(index)
                self.used -= n
                self.entries.append((key, nbytes if False else n))
                self.used += n
                return True
        if nbytes > self.capacity:
            return False
        self.entries.append((key, nbytes))
        self.used += nbytes
        while self.used > self.capacity:
            _, n = self.entries.pop(0)
            self.used -= n
        return False


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 6), st.integers(20, 90)),
        min_size=1,
        max_size=80,
    ),
    capacity=st.integers(100, 400),
)
@SETTINGS
def test_region_cache_matches_reference_lru(ops, capacity):
    cache = RegionCache("L1", capacity)
    reference = _ReferenceLRU(capacity)
    for key, nbytes in ops:
        got = cache.access(key, nbytes)
        want = reference.access(key, nbytes)
        assert got == want, (key, nbytes)
    assert cache.used_bytes == reference.used


@given(
    perm=st.permutations(["b", "m", "n", "k", "l"]),
    tiles=st.tuples(*(st.sampled_from([2, 4, 8]) for _ in range(5))),
)
@SETTINGS
def test_producer_blocks_precede_consumer_blocks(perm, tiles):
    """Dependency preservation: for every intermediate region, its producer
    writes it before any consumer reads it."""
    chain = batch_gemm_chain(2, 16, 8, 8, 16, with_softmax=True)
    tile_map = dict(zip(("b", "m", "n", "k", "l"), tiles))
    tile_map["b"] = min(tile_map["b"], 2)
    program = lower_schedule(chain, perm, tile_map)
    intermediates = set(chain.intermediate_tensors())
    written = set()
    for access in materialize_trace(program):
        if access.tensor not in intermediates:
            continue
        if access.write:
            written.add((access.tensor, access.region))
        else:
            # Every consumer read region must equal a previously written
            # region (BMM chains have plain accesses: regions align).
            assert (access.tensor, access.region) in written, access


@given(
    perm=st.permutations(["m", "h", "k", "n"]),
    tile=st.sampled_from([4, 8, 16]),
)
@SETTINGS
def test_trace_read_volume_at_least_compulsory(perm, tile):
    chain = mlp_chain(32, 16, 32, 16)
    tiles = {name: tile for name in chain.loop_extents()}
    program = lower_schedule(chain, perm, tiles)
    read = sum(a.nbytes for a in materialize_trace(program) if not a.write)
    input_bytes = sum(
        chain.tensors[t].nbytes for t in chain.input_tensors()
    )
    assert read >= input_bytes


@given(capacity_kb=st.integers(1, 64))
@SETTINGS
def test_hierarchy_traffic_monotone_in_capacity(capacity_kb):
    """A bigger L1 never increases L1 fill traffic for this trace."""
    chain = batch_gemm_chain(1, 16, 8, 8, 16)
    program = lower_schedule(
        chain,
        ("m", "l", "k", "n"),
        {"m": 4, "l": 4, "k": 4, "n": 4},
    )

    def run(cap_bytes):
        hw = HardwareSpec(
            name="t",
            backend="cpu",
            peak_flops=1e12,
            num_cores=1,
            levels=(
                MemoryLevel("L1", cap_bytes, 1e9),
                MemoryLevel("DRAM", None, 1e9),
            ),
        )
        sim = MemoryHierarchySim(hw)
        for access in materialize_trace(program):
            if access.write:
                sim.write(access.key, access.nbytes)
            else:
                sim.read(access.key, access.nbytes)
        sim.flush()
        return sim.caches[0].stats.fill_bytes

    small = run(capacity_kb * 1024)
    large = run(capacity_kb * 2 * 1024)
    assert large <= small


def test_conv_trace_regions_inside_virtual_shapes():
    from repro.codegen.executor import virtual_shapes

    chain = conv_chain(1, 4, 10, 10, 6, 5, 2, 1, 3, 3)
    extents = chain.loop_extents()
    order = tuple(n for n in chain.independent_loops() if extents[n] > 1)
    program = lower_schedule(chain, order, {n: 3 for n in extents})
    shapes = virtual_shapes(chain)
    for access in materialize_trace(program):
        shape = shapes[access.tensor]
        for (lo, hi), size in zip(access.region, shape):
            assert 0 <= lo <= hi <= size
