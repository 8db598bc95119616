"""Search equivalence: pruning and memoization change speed, never the plan.

Every (workload, hardware preset) pair is compiled through the exhaustive
oracle (``tests/search_oracle.py``) and through the pruned, memoized
search, and the serialized plans must match **byte for byte** — the
guarantee that lets the optimizer always prune and memoize without
revalidating results.

Refactors of the optimizer must not move a plan either:
``test_plan_matches_golden`` pins the sha256 of every serialized plan in
``tests/data/golden_plans.json`` — GEMM + conv workloads on every preset
(the exhaustive oracle is held to the same bytes by
``TestSearchEquivalence``), the multicore attention chain's fusion
decision on each link preset, and (slow) Table IV/V workloads — as
plans on every preset, and as the whole ``compile_chain`` fusion decision
(unfused per-op plans and multi-core placement included) on the four
presets the repository benchmark compiles.  Plan JSON
holds integer tiles and exact DV/MU, never SLSQP's continuous landing
point, so the digests are stable across solver internals that keep the
canonical solution.
"""

import hashlib
import json
import pathlib

import pytest

from repro.core.optimizer import ChimeraOptimizer
from repro.core.search import reset_search_stats, solve_memo
from repro.core.tables import clear_tables_memo
from repro.hardware import all_presets, multicore_presets
from repro.ir.chains import batch_gemm_chain, conv_chain
from repro.runtime.serialization import plan_to_dict
from tests.search_oracle import exhaustive_optimize

PRESETS = all_presets() + multicore_presets()


def gemm_workload():
    return batch_gemm_chain(1, 128, 64, 64, 128, name="equiv_gemm")


def conv_workload():
    return conv_chain(1, 16, 28, 28, 24, 16, 1, 1, 3, 1, name="equiv_conv")


WORKLOADS = [gemm_workload, conv_workload]


def plan_json(plan):
    return json.dumps(plan_to_dict(plan), sort_keys=True)


def serialized_plan(chain, hw):
    """The default (pruned, memoized) plan from cold process memos."""
    clear_global_memos()
    return plan_json(ChimeraOptimizer(hw).optimize(chain))


def oracle_plan(chain, hw):
    """The exhaustive oracle's plan from cold process memos."""
    clear_global_memos()
    return plan_json(exhaustive_optimize(ChimeraOptimizer(hw), chain))


@pytest.mark.parametrize("hw", PRESETS, ids=lambda h: h.name)
@pytest.mark.parametrize(
    "build", WORKLOADS, ids=["gemm_chain", "conv_chain"]
)
class TestSearchEquivalence:
    def test_pruned_memoized_plan_is_byte_identical(self, build, hw):
        chain = build()
        assert serialized_plan(chain, hw) == oracle_plan(chain, hw)

    def test_warm_memo_replays_identically(self, build, hw):
        chain = build()
        solve_memo().clear()
        reset_search_stats()
        optimizer = ChimeraOptimizer(hw)
        cold = plan_json(optimizer.optimize(chain))
        warm = plan_json(optimizer.optimize(chain))
        assert warm == cold


GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_plans.json"

#: Table IV/V workloads pinned in the slow suite.
PAPER_WORKLOADS = ("G1", "G4", "C4", "C6")

#: Presets whose whole Table IV/V fusion decisions are pinned (slow).
DECISION_PRESETS = ("xeon-gold-6240", "a100", "ascend-910", "mesh-npu-16")


def multicore_attention():
    return batch_gemm_chain(
        8, 256, 64, 64, 256, with_softmax=True, name="equiv_mc"
    )


def paper_chain(name):
    from repro.workloads import conv_chain_config, gemm_chain_config

    if name.startswith("G"):
        return gemm_chain_config(name).build()
    return conv_chain_config(name).build()


def decision_json(decision):
    """A whole fusion decision, chosen core count included."""
    return json.dumps(
        {
            "use_fusion": decision.use_fusion,
            "fused": (
                None
                if decision.fused_plan is None
                else plan_to_dict(decision.fused_plan)
            ),
            "unfused": [
                plan_to_dict(plan) for plan in decision.unfused_plans
            ],
        },
        sort_keys=True,
    )


def multicore_decision(hw):
    from repro.core.fusion import decide_fusion

    clear_global_memos()
    return decision_json(decide_fusion(multicore_attention(), hw))


def paper_decision(chain, hw):
    """The fusion decision ``compile_chain`` makes for ``chain`` on ``hw``."""
    from repro.core.fusion import decide_fusion
    from repro.runtime.pipeline import chimera_config

    clear_global_memos()
    return decision_json(decide_fusion(chain, hw, chimera_config(chain, hw)))


def golden_cases():
    """``(case id, serializer, slow)`` for every pinned plan or decision.

    The equivalence workloads on every preset, the multicore attention
    chain's fusion decision on each link preset, and (slow) Table IV/V
    workloads on every preset, plus every plain Table IV/V chain's fusion
    decision on :data:`DECISION_PRESETS`.
    """
    from repro.hardware import preset
    from repro.workloads import TABLE_IV, TABLE_V

    cases = []
    for build, label in zip(WORKLOADS, ("gemm_chain", "conv_chain")):
        for hw in PRESETS:
            cases.append((
                f"{label}-default-{hw.name}",
                lambda b=build, h=hw: serialized_plan(b(), h),
                False,
            ))
    for hw in multicore_presets():
        cases.append((
            f"decision-equiv_mc-{hw.name}",
            lambda h=hw: multicore_decision(h),
            False,
        ))
    for name in PAPER_WORKLOADS:
        for hw in PRESETS:
            cases.append((
                f"{name}-default-{hw.name}",
                lambda n=name, h=hw: serialized_plan(paper_chain(n), h),
                True,
            ))
    for row in TABLE_IV + TABLE_V:
        for name in DECISION_PRESETS:
            cases.append((
                f"decision-{row.name}-{name}",
                lambda r=row, n=name: paper_decision(r.build(), preset(n)),
                True,
            ))
    return cases


GOLDEN_CASES = golden_cases()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["digests"]


@pytest.mark.parametrize(
    "case_id,serialize",
    [
        pytest.param(
            case_id,
            serialize,
            id=case_id,
            marks=[pytest.mark.slow] if slow else [],
        )
        for case_id, serialize, slow in GOLDEN_CASES
    ],
)
def test_plan_matches_golden(case_id, serialize, golden):
    """Every pinned plan and decision serializes to its recorded bytes."""
    assert digest(serialize()) == golden[case_id]


def record_golden():
    """Rewrite :data:`GOLDEN_PATH` from the current code.

    Only for a change that moves plans on purpose — a refactor must pass
    the recorded file unedited.
    """
    digests = {
        case_id: digest(serialize())
        for case_id, serialize, _ in GOLDEN_CASES
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "description": (
                    "sha256 of json.dumps(plan_to_dict(plan), "
                    "sort_keys=True) per case of "
                    "tests/test_search_equivalence.py::golden_cases "
                    "(decision cases hash the decide_fusion JSON)"
                ),
                "digests": digests,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def perturbed_gemm():
    """Same structure as :func:`gemm_workload`, different extents."""
    return batch_gemm_chain(1, 112, 64, 72, 128, name="equiv_gemm_p")


def perturbed_conv():
    """Same structure as :func:`conv_workload`, different extents."""
    return conv_chain(1, 16, 26, 26, 24, 16, 1, 1, 3, 1, name="equiv_conv_p")


WARM_PAIRS = [
    (gemm_workload, perturbed_gemm),
    (conv_workload, perturbed_conv),
]


def canonical_decision(served):
    return decision_json(served.result.decision)


def clear_global_memos():
    """Hints must prove equivalence on their own, not via shared memos."""
    solve_memo().clear()
    reset_search_stats()
    clear_tables_memo()


@pytest.mark.parametrize("hw", PRESETS, ids=lambda h: h.name)
@pytest.mark.parametrize(
    "pair", WARM_PAIRS, ids=["gemm_chain", "conv_chain"]
)
class TestWarmStartEquivalence:
    """Cold, exact-hit and near-miss warm-started compiles must agree.

    The service's shape index turns a miss on a new shape into a compile
    warm-started from the nearest same-structure cached plan.  Warm starts
    are latency-only (see :mod:`repro.core.warmstart`), so every path must
    produce byte-identical plans.
    """

    def test_cold_exact_and_near_are_byte_identical(self, pair, hw):
        from repro.service import WARM_EXACT, WARM_NEAR, CompileService

        build_base, build_near = pair
        warm_service = CompileService()
        clear_global_memos()
        seeded = warm_service.serve((build_base(), hw))
        assert seeded.warm_start == "cold"

        # Near miss: new extents, same structure -> warm-started compile.
        clear_global_memos()
        near = warm_service.serve((build_near(), hw))
        assert near.source == "compiled"
        assert near.warm_start == WARM_NEAR

        # Exact hit: the same request replays the cached plan verbatim.
        exact = warm_service.serve((build_near(), hw))
        assert exact.from_cache
        assert exact.warm_start == WARM_EXACT
        assert canonical_decision(exact) == canonical_decision(near)

        # Cold twin: a fresh service, which has not seen the base shape,
        # compiling the same shape from scratch must land on the same bytes.
        cold_service = CompileService()
        clear_global_memos()
        cold = cold_service.serve((build_near(), hw))
        assert cold.warm_start == "cold"
        assert canonical_decision(near) == canonical_decision(cold)

    def test_adversarial_wrong_neighbor_hint_is_harmless(self, pair, hw):
        """A hint from an unrelated chain must not change the plan.

        The order hint matches no candidate permutation (different loop
        names), so it is ignored; foreign tile values only enter the
        integer refinement somewhere unhelpful, and its canonical descent
        still lands on the cold solve's tiles for these shapes.
        """
        from repro.core.warmstart import plan_hint_from_dict

        build_base, build_near = pair
        chain = build_near()
        # The "wrong neighbor": the other family's plan on the same
        # hardware (conv hints for gemm and vice versa).
        other = (
            conv_workload() if build_base is gemm_workload else gemm_workload()
        )
        clear_global_memos()
        wrong_plan = ChimeraOptimizer(hw).optimize(other)
        wrong_hint = plan_hint_from_dict(plan_to_dict(wrong_plan))
        assert wrong_hint is not None

        baseline = serialized_plan(chain, hw)
        clear_global_memos()
        hinted = ChimeraOptimizer(hw).optimize(chain, hint=wrong_hint)
        assert plan_json(hinted) == baseline


if __name__ == "__main__":
    record_golden()
