"""Warm-start hints: reusing a neighboring shape's plan to speed a solve.

The shape-generalizing plan cache maps a cache miss to the nearest cached
plan with the same chain structure (same operators, accesses, hardware and
config — only the loop extents differ).  That neighbor's plan seeds the
optimizer through the types here:

* :class:`LevelHint` — one memory level's winning block order plus its
  integer tile vector;
* :class:`PlanHint` — the per-level hints of one fused (or single-op)
  plan, keyed by level name;
* :class:`ChainHints` — everything a ``decide_fusion`` run can reuse: the
  fused plan's hint plus one per-operator hint for the unfused
  alternatives, keyed by operator name.

Hints are meant to change **how fast** the optimizer runs, never **what
it returns**:

* an ``incumbent_hint`` (the neighbor's winning order) only *reorders* the
  candidate solve sequence — the hinted order is solved first, so the
  admissible DV lower bound prunes against a near-optimal incumbent
  immediately.  The candidate set itself is untouched and pruning remains
  exact, so the winner under the ``(infeasible, dv, order)`` total order
  is unchanged;
* an ``x0_hint`` (the neighbor's tiles) replaces the solver's SLSQP run:
  the projected-feasible hint point feeds the integer refinement
  directly.  The exact ceil-based DV is piecewise constant, so the
  optimum sits on a DV-flat ridge, and the hint and SLSQP's landing
  point can sit on different ridge points.  The solver's canonical
  descent (``repro.core.solver._canonical_descent``) collapses a
  near-optimal hint onto the cold solve's integer solution, which is
  what makes a hinted solve return byte-for-byte what a cold one
  returns on the shapes the warm-start tests and benchmark pin.  The
  descent is a local search, so that is a measured property, not a
  theorem: a far-off hint can end elsewhere.

Because hints are not meant to change results, they stay **out** of
every plan-cache key.  The solve memo does key on the tile hint itself:
a hinted solve can land elsewhere on the ridge, so a cold search must
never read its entry, and neither may a search hinted otherwise — else a
near-miss plan would depend on which near miss the process solved first.

An adversarial (wrong-neighbor) hint degrades gracefully: an order that
matches no candidate is ignored, and tiles from an unrelated shape enter
the refinement somewhere unhelpful (``tests/test_search_equivalence.py``
pins that the plan still matches the cold one on its shapes).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class LevelHint:
    """One memory level of a neighboring plan: its order and tiles."""

    order: Tuple[str, ...]
    tiles: Mapping[str, int]


@dataclasses.dataclass(frozen=True)
class PlanHint:
    """Per-level hints extracted from one serialized fusion plan."""

    levels: Mapping[str, LevelHint]

    def level(self, name: str) -> Optional[LevelHint]:
        return self.levels.get(name)


@dataclasses.dataclass(frozen=True)
class ChainHints:
    """Hints for a full fuse-or-not decision on one chain.

    Attributes:
        fused: hint for the whole-chain fused plan (``None`` when the
            neighbor entry carried no fused plan, e.g. a fallback).
        unfused: per-operator hints for the unfused alternatives, keyed by
            operator name (single-op chains are named after their op).
    """

    fused: Optional[PlanHint] = None
    unfused: Mapping[str, PlanHint] = dataclasses.field(default_factory=dict)


def plan_hint_from_dict(data: Optional[Dict[str, Any]]) -> Optional[PlanHint]:
    """Extract a :class:`PlanHint` from a serialized plan dict.

    Tolerant by design — hints are advisory, so a malformed or
    foreign-format payload yields ``None`` (or skips the bad level)
    instead of raising.
    """
    if not isinstance(data, dict):
        return None
    levels: Dict[str, LevelHint] = {}
    for sched in data.get("levels") or ():
        try:
            name = sched["level"]
            order = tuple(str(loop) for loop in sched["order"])
            tiles = {
                str(loop): int(tile) for loop, tile in sched["tiles"].items()
            }
        except (KeyError, TypeError, ValueError, AttributeError):
            continue
        levels[name] = LevelHint(order=order, tiles=tiles)
    if not levels:
        return None
    return PlanHint(levels=levels)


def hints_from_entry(entry: Dict[str, Any]) -> Optional[ChainHints]:
    """Build :class:`ChainHints` from a cached service entry.

    The fused hint comes from ``entry["fused_plan"]``; unfused hints are
    keyed by each single-op plan's chain name (== the operator name).
    Returns ``None`` when the entry carries nothing usable.
    """
    if not isinstance(entry, dict):
        return None
    fused = plan_hint_from_dict(entry.get("fused_plan"))
    unfused: Dict[str, PlanHint] = {}
    for plan_data in entry.get("unfused_plans") or ():
        hint = plan_hint_from_dict(plan_data)
        if hint is None:
            continue
        try:
            op_name = plan_data["chain"]["name"]
        except (KeyError, TypeError):
            continue
        if isinstance(op_name, str):
            unfused[op_name] = hint
    if fused is None and not unfused:
        return None
    return ChainHints(fused=fused, unfused=unfused)
