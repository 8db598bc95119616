"""Plans depend only on their arguments.

The plan cache keys on the chain, the hardware and the optimizer config.
Anything else that can move a plan — an environment variable, or what
the process compiled before — is a hidden input: a cache filled under
one value serves its plans to requests made under another.  These tests
pin that no such input exists.
"""

import json
import pathlib
import re

import pytest

import repro
from repro.core.reordering import candidate_models
from repro.core.search import search_tiles, solve_memo
from repro.hardware import mesh_npu_16
from repro.ir.chains import batch_gemm_chain, conv_chain
from repro.runtime.pipeline import compile_chain
from repro.service import CompileService
from tests.test_search_equivalence import decision_json, paper_decision

#: Source patterns that would read a value no cache key carries.
HIDDEN_INPUT = re.compile(r"os\.environ|os\.getenv|REPRO_")


def test_source_reads_no_environment():
    root = pathlib.Path(repro.__file__).parent
    hits = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if HIDDEN_INPUT.search(line)
    ]
    assert hits == []


def test_cores_variable_does_not_reach_the_plan_cache(tmp_path, monkeypatch):
    """A cache filled under ``REPRO_CORES=2`` serves the default plan.

    A forced width of 2 loses to the aggregate plan on mesh-npu-16, while
    the full placement search shards this attention chain; if the
    variable reached the optimizer, the cache would pin the unpartitioned
    plan for every later default request.
    """
    chain = batch_gemm_chain(8, 256, 64, 64, 256, with_softmax=True)
    hw = mesh_npu_16()
    monkeypatch.setenv("REPRO_CORES", "2")
    CompileService(cache_dir=tmp_path).compile(chain, hw)
    monkeypatch.delenv("REPRO_CORES")
    served = CompileService(cache_dir=tmp_path).compile(chain, hw)

    default = paper_decision(chain, hw)
    assert json.loads(default)["fused"]["partition"] is not None
    assert decision_json(served.decision) == default


def test_forced_width_is_refused_on_the_cached_path():
    """``cores=`` moves the plan but not the cache key, so the service
    path must not accept it."""
    chain = batch_gemm_chain(8, 256, 64, 64, 256, with_softmax=True)
    with pytest.raises(ValueError, match="cache key"):
        compile_chain(chain, mesh_npu_16(), service=CompileService(), cores=2)


def test_hinted_search_does_not_answer_a_later_cold_one():
    """A warm-started solve stays out of cold searches' memo entries.

    From this hint the solver refines to another point of the DV-flat
    ridge (415,744 B where the cold solve finds 411,648 B).  Stored under
    the key a cold search reads, it would change what the same cold
    search returns after a hinted one.
    """
    chain = conv_chain(1, 32, 28, 28, 32, 32, 1, 1, 1, 1)
    (model,) = [
        m for m in candidate_models(chain).models
        if m.perm == ("oc1", "ic", "oh", "ow", "oc2")
    ]
    min_tiles = {
        loop: min(8, extent) for loop, extent in chain.loop_extents().items()
    }
    hint = {"ic": 1, "n": 1, "oh": 23, "rh2": 1, "ow": 24, "rw2": 1,
            "oc2": 4}
    try:
        solve_memo().clear()
        cold = search_tiles([model], 16384.0, min_tiles=min_tiles)[1]
        solve_memo().clear()
        search_tiles([model], 16384.0, min_tiles=min_tiles, x0_hint=hint)
        after = search_tiles([model], 16384.0, min_tiles=min_tiles)[1]
    finally:
        solve_memo().clear()
    assert cold.dv == 411648.0
    assert (after.tiles, after.dv) == (cold.tiles, cold.dv)


def test_hinted_search_depends_only_on_its_hint():
    """A near-miss search answers from entries solved from its own hint.

    Hinted with the cold tiles, this search returns 411,648 B on a fresh
    memo; a search hinted elsewhere first refines to 415,744 B.  Keyed on
    the hint, that entry is never read by the later search.
    """
    chain = conv_chain(1, 32, 28, 28, 32, 32, 1, 1, 1, 1)
    (model,) = [
        m for m in candidate_models(chain).models
        if m.perm == ("oc1", "ic", "oh", "ow", "oc2")
    ]
    min_tiles = {
        loop: min(8, extent) for loop, extent in chain.loop_extents().items()
    }
    far = {"ic": 1, "n": 1, "oh": 23, "rh2": 1, "ow": 24, "rw2": 1,
           "oc2": 4}
    try:
        solve_memo().clear()
        cold = search_tiles([model], 16384.0, min_tiles=min_tiles)[1]
        near = dict(cold.tiles)
        solve_memo().clear()
        fresh = search_tiles(
            [model], 16384.0, min_tiles=min_tiles, x0_hint=near
        )[1]
        solve_memo().clear()
        search_tiles([model], 16384.0, min_tiles=min_tiles, x0_hint=far)
        after = search_tiles(
            [model], 16384.0, min_tiles=min_tiles, x0_hint=near
        )[1]
    finally:
        solve_memo().clear()
    assert fresh.dv == 411648.0
    assert (after.tiles, after.dv) == (fresh.tiles, fresh.dv)
