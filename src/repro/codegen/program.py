"""Block programs: the loop nest a fusion plan lowers to.

A block execution order is realized by **loop distribution**: operators
share the outer loops they have in common; where they diverge, each
operator's remaining loops become a *sibling sub-nest*, ordered by the
chain's dependencies (producers first).  This construction is what makes
every permutation of the independent loops a valid schedule — a producer's
private reduction always completes before its consumers read the
intermediate.

Multi-level plans lower **hierarchically**: the outermost level's order
traverses its (large) blocks; inside each, the next level's order traverses
sub-blocks clipped to the parent's iteration range, down to the innermost
level.  Bodies therefore receive half-open *iteration ranges* per loop
rather than flat block indices — tile sizes need not divide their parents.

The same :class:`BlockProgram` tree feeds two consumers: the numpy executor
(numerical correctness) and the cache simulators (measured data movement).
Both replay the tree through its flattened :class:`~repro.codegen.schedule.
CompiledSchedule` rather than re-interpreting it per run.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from ..ir.chain import OperatorChain
from ..ir.operator import OperatorSpec

Range = Tuple[int, int]
Ranges = Dict[str, Range]


@dataclasses.dataclass(frozen=True)
class BodyNode:
    """Execute one computation block of ``op`` over the current ranges."""

    op: OperatorSpec


@dataclasses.dataclass(frozen=True)
class LoopNode:
    """Iterate sub-blocks of one loop (tile size ``tile``) around a nest."""

    loop: str
    tile: int
    body: "Node"


@dataclasses.dataclass(frozen=True)
class SeqNode:
    """Run sub-nests in order (the loop-distribution point)."""

    parts: Tuple["Node", ...]


Node = Union[BodyNode, LoopNode, SeqNode]


@dataclasses.dataclass(frozen=True)
class LevelSpec:
    """One tiling level of the hierarchy (outermost first in a program)."""

    order: Tuple[str, ...]
    tiles: Mapping[str, int]


@dataclasses.dataclass(frozen=True)
class BlockProgram:
    """A fully lowered (possibly multi-level) block schedule.

    Attributes:
        chain: source chain.
        levels: tiling levels, outermost first.
        root: the distributed, hierarchically nested loop tree.
    """

    chain: OperatorChain
    levels: Tuple[LevelSpec, ...]
    root: Node

    @property
    def order(self) -> Tuple[str, ...]:
        """The innermost level's block order."""
        return self.levels[-1].order

    @property
    def tiles(self) -> Mapping[str, int]:
        """The innermost level's tile sizes."""
        return self.levels[-1].tiles

    def iterate_blocks(self) -> Iterator[Tuple[OperatorSpec, Ranges]]:
        """Yield ``(op, ranges)`` pairs in execution order.

        ``ranges`` maps every loop appearing in any level's order to the
        half-open iteration range of the current innermost block; loops not
        mentioned default to their full extent at interpretation time.

        This traversal (:func:`_walk`) is the single source of truth for
        execution order; the compiled schedule and ``block_count`` both
        derive from it.
        """
        extents = self.chain.loop_extents()
        yield from _walk(self.root, {}, extents)

    def block_count(self) -> int:
        """Total number of body executions.

        Derived from the compiled schedule (memoized), so the count and the
        materialized block tables can never drift apart.
        """
        from .schedule import compile_schedule

        return compile_schedule(self).n_blocks

    def describe(self) -> str:
        lines: List[str] = [
            f"block program for {self.chain.name}: "
            + " | ".join("/".join(level.order) for level in self.levels)
        ]
        _describe(self.root, lines, 1)
        return "\n".join(lines)


def _span(
    loop: str, ranges: Ranges, extents: Mapping[str, int]
) -> Range:
    return ranges.get(loop, (0, extents[loop]))


def _walk(
    node: Node, ranges: Ranges, extents: Mapping[str, int]
) -> Iterator[Tuple[OperatorSpec, Ranges]]:
    if isinstance(node, BodyNode):
        yield node.op, dict(ranges)
    elif isinstance(node, LoopNode):
        start, stop = _span(node.loop, ranges, extents)
        outer = ranges.get(node.loop)
        position = start
        while position < stop:
            ranges[node.loop] = (position, min(position + node.tile, stop))
            yield from _walk(node.body, ranges, extents)
            position += node.tile
        if outer is None:
            del ranges[node.loop]
        else:
            ranges[node.loop] = outer
    else:
        for part in node.parts:
            yield from _walk(part, ranges, extents)


def _describe(node: Node, lines: List[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(node, BodyNode):
        lines.append(f"{pad}{node.op.name} block")
    elif isinstance(node, LoopNode):
        lines.append(f"{pad}for {node.loop} step {node.tile}:")
        _describe(node.body, lines, depth + 1)
    else:
        for part in node.parts:
            _describe(part, lines, depth)


def _build_level(
    chain: OperatorChain,
    levels: Sequence[LevelSpec],
    level_idx: int,
    op_pos: Mapping[str, int],
    active: Tuple[OperatorSpec, ...],
    remaining: Tuple[str, ...],
) -> Node:
    """Distribution tree of ``active`` ops over one level's ``remaining``
    loops, recursing into the next level inside.

    A module-level recursion rather than a closure calling itself: such a
    closure is a reference cycle, left for the cyclic GC on every lowering.
    """
    if not active:
        return SeqNode(())
    if not remaining:
        if level_idx + 1 < len(levels):
            inner = levels[level_idx + 1]
            return _build_level(
                chain, levels, level_idx + 1, op_pos, active, tuple(inner.order)
            )
        return SeqNode(tuple(BodyNode(op) for op in active))
    loop, rest = remaining[0], remaining[1:]

    def build(ops: Tuple[OperatorSpec, ...]) -> Node:
        return _build_level(chain, levels, level_idx, op_pos, ops, rest)

    using = tuple(op for op in active if op.has_loop(loop))
    if not using:
        return build(active)
    first_user = min(op_pos[op.name] for op in using)
    last_user = max(op_pos[op.name] for op in using)
    before = tuple(
        op
        for op in active
        if not op.has_loop(loop) and op_pos[op.name] < first_user
    )
    after = tuple(
        op
        for op in active
        if not op.has_loop(loop) and op_pos[op.name] > first_user
    )
    if any(op_pos[op.name] < last_user for op in after):
        raise ValueError(f"operator interleaving conflict on loop {loop!r}")
    tile = levels[level_idx].tiles.get(loop, 1)
    parts: List[Node] = []
    if before:
        parts.append(build(before))
    parts.append(LoopNode(loop, tile, build(using)))
    if after:
        parts.append(build(after))
    if len(parts) == 1:
        return parts[0]
    return SeqNode(tuple(parts))


def lower_levels(
    chain: OperatorChain, levels: Sequence[LevelSpec]
) -> BlockProgram:
    """Lower a multi-level tiling (outermost level first) to a block nest.

    Raises:
        ValueError: if any level references unknown loops.
    """
    if not levels:
        raise ValueError("need at least one tiling level")
    extents = chain.loop_extents()
    for level in levels:
        unknown = set(level.order) - set(extents)
        if unknown:
            raise ValueError(f"order references unknown loops {sorted(unknown)}")
    op_pos = {op.name: i for i, op in enumerate(chain.ops)}
    root = _build_level(
        chain, tuple(levels), 0, op_pos, chain.ops, tuple(levels[0].order)
    )
    return BlockProgram(chain=chain, levels=tuple(levels), root=root)


def lower_schedule(
    chain: OperatorChain,
    order: Sequence[str],
    tiles: Mapping[str, int],
) -> BlockProgram:
    """Lower a single-level (chain, order, tiles) triple."""
    return lower_levels(
        chain, [LevelSpec(order=tuple(order), tiles=dict(tiles))]
    )


def lower_plan(plan) -> BlockProgram:
    """Lower a :class:`FusionPlan`'s full memory hierarchy.

    The plan's schedules are innermost-first; the program nests them
    outermost-first, each level's sub-blocks clipped to its parent's range.
    """
    levels = [
        LevelSpec(order=sched.order, tiles=dict(sched.tiles))
        for sched in reversed(plan.levels)
    ]
    return lower_levels(plan.chain, levels)
