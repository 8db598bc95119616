"""Algorithm 1: analytical data movement volume and memory usage.

Given an operator chain, a block execution order (a permutation of the
chain's independent loops, outermost first) and decomposition parameters
``S`` (tile size per loop), this module computes

* **DV** — the total data movement volume between off-chip memory and the
  on-chip level under consideration, and
* **MU** — the peak on-chip memory usage of one computation block,

exactly as Algorithm 1 of the paper does, using its three observations:

1. loops whose variables (and whose inner loops' variables) do not index a
   tensor cause no movement for it;
2. once some loop causes movement for a tensor, every loop outside it does
   too;
3. loops private to a producer operator never cause movement for its
   consumers' tensors.

Only the chain's IO tensors move — intermediates stay on chip (their DM is
0).  :class:`MovementModel` precompiles the permutation into per-tensor
multiplier sets so the tile-size solver can evaluate DV(S) and MU(S) cheaply
and in either the exact (ceil) or smooth (real-valued) form.

**Stitched memory-intensive ops** (see :mod:`repro.ir.stitch`) need no
special cases here, by construction: stitching turns the bridge tensor
between a CI operator and its softmax/layer-norm/elementwise neighbor into
a chain *intermediate*, so its DV term vanishes exactly like any other
fused intermediate, while the stitched op still contributes its MU rows
(its tile footprint joins the per-block usage sum that
:class:`repro.core.tables.MovementTables` turns into the unified-buffer
capacity row).  When the shared buffer cannot hold the stitched
intermediate at a candidate tiling, that capacity constraint — not an ad
hoc penalty — rejects the tiling; :func:`unfused_round_trip_bytes` prices
what the fallback (unstitched) execution pays instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import weakref
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..ir.access import TensorAccess
from ..ir.chain import OperatorChain
from .footprint import footprint_bytes


def algorithm1(
    chain: OperatorChain,
    perm: Sequence[str],
    tiles: Mapping[str, int],
    *,
    reuse_intermediates: bool = True,
) -> Tuple[float, float]:
    """Literal translation of the paper's Algorithm 1.

    Args:
        chain: the operator chain ``Ops``.
        perm: loop permutation, outermost first; blocks execute innermost
            (right-most) loop first.
        tiles: decomposition parameters ``S`` (tile size per loop name).
        reuse_intermediates: when False, intermediate tensors are treated as
            if they also round-tripped through off-chip memory (the Figure
            8(f) "no reuse of C" case).

    Returns:
        ``(DV, MU)`` in bytes.
    """
    _check_perm(chain, perm)
    io_set = set(chain.io_tensors())
    if not reuse_intermediates:
        io_set |= set(chain.intermediate_tensors())

    extents = chain.loop_extents()
    volume = 0.0
    usage = 0.0
    active = list(perm)
    for op in chain.ops:
        total_df = 0.0
        for access in op.all_accesses():
            df = footprint_bytes(chain, access, tiles)
            total_df += df
            if access.tensor in io_set:
                trips_total = 1
                effective = dict(tiles)
                keep_reuse = True
                for loop_name in reversed(active):
                    if not op.has_loop(loop_name):
                        continue
                    if access.uses(loop_name):
                        keep_reuse = False
                    if not keep_reuse:
                        trips = math.ceil(
                            extents[loop_name] / tiles.get(loop_name, 1)
                        )
                        trips_total *= trips
                        # Edge clamping: across a full sweep the average
                        # tile is extent/trips, so plain dims sum to the
                        # exact extent (Table III's MK*ceil(L/T_L) form).
                        effective[loop_name] = extents[loop_name] / trips
                dm = footprint_bytes(chain, access, effective) * trips_total
                volume += dm
        # Observation 3: producer-private loops do not iterate consumers.
        active = [n for n in active if not chain.is_private(n, op)]
        usage = max(usage, total_df)
    return volume, usage


def unfused_round_trip_bytes(chain: OperatorChain) -> int:
    """DRAM bytes the *unfused* execution round-trips for intermediates.

    Every chain intermediate — including the bridge tensors stitching
    created — is written to DRAM once and read back once per consuming
    operator when the chain runs as separate kernels.  This is the lower
    bound on the traffic fusion-with-stitching removes, used by the
    stitching benchmark and tests to sanity-check the simulator's
    counters against the analytical model.
    """
    total = 0
    for name in chain.intermediate_tensors():
        spec = chain.tensors[name]
        readers = len(chain.consumers_of(name))
        total += spill_round_trip_bytes(spec.nbytes, readers)
    return total


def spill_round_trip_bytes(nbytes: int, readers: int) -> int:
    """DRAM bytes one evicted tensor round-trips: one fill, ``readers`` reads.

    The same accounting Algorithm 1 applies at the chain level — a tensor
    that cannot stay resident crosses the DRAM boundary once on the write
    side and once per consumer on the read side — reused by
    :mod:`repro.runtime.scheduler` to price graph-level spill decisions
    (seconds follow by dividing through the DRAM bandwidth, exactly like
    any other movement-model volume).
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if readers < 0:
        raise ValueError(f"readers must be >= 0, got {readers}")
    return nbytes * (1 + readers)


@dataclasses.dataclass(frozen=True)
class _ChainPrep:
    """Per-chain invariants shared by every ``MovementModel`` over the chain.

    Almost everything Algorithm 1 consults — loop extents, IO
    classification, which loops each operator and access touch, loop
    privacy, the producer/consumer divergence sets of each intermediate —
    depends only on the chain.  Hoisting those into one memoized prep turns
    per-model construction into pure set membership tests over the
    permutation, and gives the chain's signature tables
    (:class:`repro.core.tables.SignatureTables`) the same term order.

    ``ops`` holds one ``(op_name, loop_set, accesses)`` triple per operator
    (chain order), where ``accesses`` lists
    ``(access, elem_bytes, used_loops)`` for every access of the operator.
    ``private_owner`` maps a loop to the sole operator name using it (loops
    shared by several operators are absent).  ``divergence_sets`` maps each
    intermediate tensor to the symmetric difference of producer/consumer
    loop sets, one entry per consumer — the loops at which that pair's
    sub-nests split.
    """

    extents: Dict[str, int]
    io_set: FrozenSet[str]
    io_set_noreuse: FrozenSet[str]
    intermediates: Tuple[str, ...]
    ops: Tuple[
        Tuple[str, FrozenSet[str], Tuple[Tuple[TensorAccess, int, FrozenSet[str]], ...]],
        ...,
    ]
    private_owner: Dict[str, str]
    divergence_sets: Dict[str, Tuple[FrozenSet[str], ...]]


_CHAIN_PREPS: Dict[int, _ChainPrep] = {}


def _chain_prep(chain: OperatorChain) -> _ChainPrep:
    """Memoized :class:`_ChainPrep` for ``chain`` (keyed by identity).

    Chains are frozen dataclasses holding unhashable mappings, so the memo
    keys on ``id`` and a ``weakref.finalize`` evicts the entry when the
    chain is collected (ids are recycled).
    """
    prep = _CHAIN_PREPS.get(id(chain))
    if prep is not None:
        return prep
    extents = chain.loop_extents()
    io_set = frozenset(chain.io_tensors())
    intermediates = chain.intermediate_tensors()

    loop_owners: Dict[str, List[str]] = {}
    ops = []
    for op in chain.ops:
        loop_set = frozenset(op.loop_names)
        for name in loop_set:
            loop_owners.setdefault(name, []).append(op.name)
        accesses = tuple(
            (
                access,
                chain.tensors[access.tensor].dtype.nbytes,
                frozenset(
                    name for dim in access.dims for name, _ in dim.terms
                ),
            )
            for access in op.all_accesses()
        )
        ops.append((op.name, loop_set, accesses))
    private_owner = {
        name: owners[0] for name, owners in loop_owners.items() if len(owners) == 1
    }

    divergence_sets: Dict[str, Tuple[FrozenSet[str], ...]] = {}
    for tensor in intermediates:
        producer_loops = set(chain.producers_of(tensor)[0].loop_names)
        divergence_sets[tensor] = tuple(
            frozenset(producer_loops ^ set(consumer.loop_names))
            for consumer in chain.consumers_of(tensor)
        )

    prep = _ChainPrep(
        extents=extents,
        io_set=io_set,
        io_set_noreuse=io_set | frozenset(intermediates),
        intermediates=intermediates,
        ops=tuple(ops),
        private_owner=private_owner,
        divergence_sets=divergence_sets,
    )
    _CHAIN_PREPS[id(chain)] = prep
    weakref.finalize(chain, _CHAIN_PREPS.pop, id(chain), None)
    return prep


@dataclasses.dataclass(frozen=True)
class MovementTerm:
    """One tensor's movement contribution under a fixed permutation.

    ``DM = footprint(access, S) * prod_{l in multipliers} ceil(L_l / S_l)``.
    """

    op_name: str
    access: TensorAccess
    elem_bytes: int
    multipliers: Tuple[Tuple[str, int], ...]  # (loop name, full extent)

    def movement_bytes(
        self, tiles: Mapping[str, float], *, exact: bool = True
    ) -> float:
        """``DM`` for this tensor under the given tiles.

        Edge tiles are clamped to the loop extent: a multiplier loop ``l``
        contributes ``ceil(L/T)`` trips whose *average* tile is
        ``L / ceil(L/T)``, so a full sweep of a plain dimension touches
        exactly ``L`` elements (this is what makes the result match the
        paper's closed forms like ``MK * ceil(L/T_L)`` in Table III).
        """
        if not exact:
            dm = self.access.footprint(tiles) * self.elem_bytes
            for loop_name, extent in self.multipliers:
                dm *= max(extent / tiles.get(loop_name, 1), 1.0)
            return dm
        effective = dict(tiles)
        dm = float(self.elem_bytes)
        for loop_name, extent in self.multipliers:
            trips = math.ceil(extent / tiles.get(loop_name, 1))
            effective[loop_name] = extent / trips
            dm *= trips
        return dm * self.access.footprint(effective)

    @property
    def tensor(self) -> str:
        return self.access.tensor

    @property
    def signature(self) -> Tuple:
        loops = frozenset(name for name, _ in self.multipliers)
        return (self.op_name, self.tensor, loops)


class MovementModel:
    """Algorithm 1 pre-compiled for one (chain, permutation) pair.

    The permutation only influences DV through each IO tensor's *multiplier
    set* — the loops at or outside its innermost accessing loop within the
    owning operator.  Precomputing those sets turns every DV evaluation into
    a handful of multiplications, which is what makes enumerating thousands
    of permutations with a tile-size solve per candidate affordable.

    **Memory usage correction.**  Any permutation is realizable by loop
    distribution: producer and consumer share the outer loops up to their
    *divergence point* (the outermost loop belonging to only one of them)
    and run as sibling sub-nests below it.  The intermediate tensor must
    then be buffered over the **full extent** of every loop at or below the
    divergence point — e.g. under order ``k/m/n/l`` the whole ``C`` matrix
    would have to stay on chip.  The paper's Algorithm 1 uses the plain tile
    footprint for MU, which under-constrains such orders; this class charges
    the distributed-buffer footprint instead, so the capacity constraint
    rules them out instead of letting the optimizer "win" with invalid
    schedules.  (:func:`algorithm1` stays a literal transcription.)
    """

    def __init__(
        self,
        chain: OperatorChain,
        perm: Sequence[str],
        *,
        reuse_intermediates: bool = True,
    ) -> None:
        _check_perm(chain, perm)
        self.chain = chain
        self.perm = tuple(perm)
        self.reuse_intermediates = reuse_intermediates
        prep = _chain_prep(chain)
        self.terms = self._build_terms(prep)
        self._buffer_full_loops = self._build_buffer_spec(prep)
        self._usage_plan_cache: Optional[Tuple] = None
        self._signature: Optional[Tuple] = None
        self._signature_digest: Optional[str] = None

    def _build_terms(self, prep: _ChainPrep) -> Tuple[MovementTerm, ...]:
        io_set = prep.io_set if self.reuse_intermediates else prep.io_set_noreuse
        extents = prep.extents
        private_owner = prep.private_owner

        terms: List[MovementTerm] = []
        active = list(self.perm)
        for op_name, op_loops, accesses in prep.ops:
            for access, elem_bytes, used_loops in accesses:
                if access.tensor not in io_set:
                    continue
                multipliers: List[Tuple[str, int]] = []
                keep_reuse = True
                for loop_name in reversed(active):
                    if loop_name not in op_loops:
                        continue
                    if loop_name in used_loops:
                        keep_reuse = False
                    if not keep_reuse:
                        multipliers.append((loop_name, extents[loop_name]))
                # Multipliers are a *set* semantically; storing them sorted
                # makes permutations with equal signatures evaluate DV/MU in
                # the same floating-point order, so the solve memo can reuse
                # one signature's solution for another bit-for-bit.
                terms.append(
                    MovementTerm(
                        op_name=op_name,
                        access=access,
                        elem_bytes=elem_bytes,
                        multipliers=tuple(sorted(multipliers)),
                    )
                )
            # Observation 3: producer-private loops do not iterate consumers.
            active = [n for n in active if private_owner.get(n) != op_name]
        return tuple(terms)

    def _build_buffer_spec(self, prep: _ChainPrep) -> Dict[str, Tuple[str, ...]]:
        """Loops buffered at full extent, per intermediate tensor.

        For each intermediate, find the divergence point between its
        producer and each consumer: the outermost permutation position
        holding a loop that belongs to one side but not both (the prep's
        precomputed symmetric-difference set).  Every loop from the
        earliest divergence onwards is buffered at full extent.
        """
        spec: Dict[str, Tuple[str, ...]] = {}
        if not self.reuse_intermediates:
            # Intermediates round-trip through off-chip memory: no on-chip
            # distribution buffer is required beyond the plain tile.
            return spec
        extents = prep.extents
        for tensor in prep.intermediates:
            divergence = len(self.perm)
            for split_loops in prep.divergence_sets[tensor]:
                for position, name in enumerate(self.perm):
                    if name in split_loops:
                        divergence = min(divergence, position)
                        break
            full = tuple(
                name
                for name in self.perm[divergence:]
                if extents[name] > 1
            )
            spec[tensor] = full
        return spec

    @property
    def _usage_plan(
        self,
    ) -> Tuple[Tuple[Tuple[TensorAccess, int, Tuple[Tuple[str, int], ...]], ...], ...]:
        """Precompiled MU evaluation plan: one entry per (op, access).

        Hoists everything :meth:`usage` would otherwise re-derive per call —
        the ``chain.loop_extents()`` lookup, the buffer-spec lookup per
        tensor and the dtype byte count — into a per-access tuple
        ``(access, elem_bytes, overlay)`` where ``overlay`` lists the
        ``(loop, extent)`` pairs an intermediate's distribution buffer pins
        at full extent.  Built lazily on first use: a model whose solve
        hits the memo never evaluates MU.
        """
        plan = self._usage_plan_cache
        if plan is None:
            prep = _chain_prep(self.chain)
            built = []
            for _, _, accesses in prep.ops:
                entries = []
                for access, elem_bytes, _ in accesses:
                    full_loops = self._buffer_full_loops.get(access.tensor) or ()
                    overlay = tuple(
                        (name, prep.extents[name]) for name in full_loops
                    )
                    entries.append((access, elem_bytes, overlay))
                built.append(tuple(entries))
            plan = tuple(built)
            self._usage_plan_cache = plan
        return plan

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def volume(self, tiles: Mapping[str, float], *, exact: bool = True) -> float:
        """Total data movement volume DV in bytes."""
        return sum(t.movement_bytes(tiles, exact=exact) for t in self.terms)

    def usage(self, tiles: Mapping[str, float]) -> float:
        """Peak per-block on-chip memory usage MU in bytes.

        IO tensors count their tile footprint; intermediates count their
        loop-distribution buffer (full extent below the divergence point).
        Invariants (extents, byte counts, buffer overlays) are precompiled
        into :attr:`_usage_plan`, so one call is a plain walk over it.
        """
        peak = 0.0
        for entries in self._usage_plan:
            total = 0.0
            for access, elem_bytes, overlay in entries:
                if overlay:
                    eff = dict(tiles)
                    for name, extent in overlay:
                        eff[name] = extent
                    footprint = access.footprint(eff)
                else:
                    footprint = access.footprint(tiles)
                total += footprint * elem_bytes
            peak = max(peak, total)
        return peak

    def volume_smooth_gradient(
        self, tiles: Mapping[str, float]
    ) -> Tuple[float, Dict[str, float]]:
        """Smooth DV and its partial derivatives ``dDV/dT_l``.

        This is the reference form of the analytic gradient the tile-size
        solver feeds SLSQP; :class:`repro.core.tables.MovementTables`
        evaluates the exact same operation sequence over precompiled
        arrays, so this method is its bit-exact test oracle.  Per term::

            dm = elem_bytes * prod_d span_d * prod_l max(L_l/T_l, 1)
            d dm/dT_j = dm * (sum_d c_dj/span_d - [j movement-active]/T_j)

        where a multiplier loop is movement-active while ``L_l/T_l > 1``
        (past that point the ``max`` clamps and the factor is constant).
        """
        volume = 0.0
        grad = {name: 0.0 for name in self.chain.loop_extents()}
        for term in self.terms:
            spans = []
            footprint = 1.0
            for dim in term.access.dims:
                span = 1.0
                for name, coeff in dim.terms:
                    span += coeff * (tiles.get(name, 1) - 1)
                spans.append(span)
                footprint *= span
            dm = footprint * term.elem_bytes
            for name, extent in term.multipliers:
                dm *= max(extent / tiles.get(name, 1), 1.0)
            volume += dm
            for dim, span in zip(term.access.dims, spans):
                for name, coeff in dim.terms:
                    grad[name] += dm * (coeff / span)
            for name, extent in term.multipliers:
                tile = tiles.get(name, 1)
                if extent / tile > 1.0:
                    grad[name] -= dm / tile
        return volume, grad

    def usage_gradient(
        self, tiles: Mapping[str, float]
    ) -> Tuple[float, Dict[str, float]]:
        """MU and the partials of the *peak* operator's footprint sum.

        MU is a max over operators; the returned gradient is the gradient
        of the first operator attaining the peak (the standard subgradient
        choice, applied identically by the compiled tables).  Loops pinned
        at full extent by a distribution buffer contribute zero — their
        effective tile does not vary with ``T``.
        """
        peak = 0.0
        peak_grad = {name: 0.0 for name in self.chain.loop_extents()}
        for entries in self._usage_plan:
            total = 0.0
            grad = {name: 0.0 for name in self.chain.loop_extents()}
            for access, elem_bytes, overlay in entries:
                pinned = {name for name, _ in overlay}
                if overlay:
                    eff = dict(tiles)
                    for name, extent in overlay:
                        eff[name] = extent
                else:
                    eff = tiles
                spans = []
                footprint = 1.0
                for dim in access.dims:
                    span = 1.0
                    for name, coeff in dim.terms:
                        span += coeff * (eff.get(name, 1) - 1)
                    spans.append(span)
                    footprint *= span
                footprint_bytes = footprint * elem_bytes
                total += footprint_bytes
                for dim, span in zip(access.dims, spans):
                    for name, coeff in dim.terms:
                        if name not in pinned:
                            grad[name] += footprint_bytes * (coeff / span)
            if total > peak:
                peak, peak_grad = total, grad
        return peak, peak_grad

    def buffered_full_loops(self, tensor: str) -> Tuple[str, ...]:
        """Loops an intermediate is buffered over at full extent."""
        return self._buffer_full_loops.get(tensor, ())

    @property
    def has_enlarged_buffers(self) -> bool:
        """Whether any intermediate needs more than its plain tile.

        True when the order diverges producer and consumer above a loop
        that indexes the intermediate — the loop-distribution buffer then
        spans that loop's full extent.  Such residency is only guaranteed
        on software-managed memories; hardware LRU levels reject these
        orders (see :meth:`ChimeraOptimizer.optimize`).
        """
        chain = self.chain
        for tensor, full_loops in self._buffer_full_loops.items():
            if not full_loops:
                continue
            producer = chain.producers_of(tensor)[0]
            access = producer.access_of(tensor)
            if any(access.uses(name) for name in full_loops):
                return True
        return False

    def per_tensor(
        self, tiles: Mapping[str, float], *, exact: bool = True
    ) -> Dict[str, float]:
        """DV broken down by tensor (bytes); intermediates report 0."""
        breakdown: Dict[str, float] = {t: 0.0 for t in self.chain.tensors}
        for term in self.terms:
            breakdown[term.tensor] += term.movement_bytes(tiles, exact=exact)
        return breakdown

    @property
    def signature(self) -> Tuple:
        """Hashable key identifying the (DV, MU) functions this perm induces.

        Permutations with equal signatures have identical DV *and* identical
        intermediate-buffer structure for every tile assignment, so the
        optimizer solves each signature once.  Cached after the first
        computation — the solve memo and the movement-tables memo both key
        on it, once per candidate each.
        """
        if self._signature is None:
            buffers = tuple(sorted(
                (tensor, frozenset(loops))
                for tensor, loops in self._buffer_full_loops.items()
            ))
            self._signature = (
                tuple(sorted(t.signature for t in self.terms)),
                buffers,
            )
        return self._signature

    def signature_digest(self) -> str:
        """Stable hex digest of :attr:`signature` (solve-memo key part).

        Frozensets have no deterministic iteration order, so the digest
        hashes a fully sorted rendering of the signature rather than its
        ``repr``.
        """
        if self._signature_digest is None:
            term_sigs, buffers = self.signature
            canonical = (
                tuple(
                    (op, tensor, tuple(sorted(loops)))
                    for op, tensor, loops in term_sigs
                ),
                tuple(
                    (tensor, tuple(sorted(loops))) for tensor, loops in buffers
                ),
                self.reuse_intermediates,
            )
            self._signature_digest = hashlib.sha256(
                repr(canonical).encode()
            ).hexdigest()
        return self._signature_digest

    def __repr__(self) -> str:
        return f"MovementModel({self.chain.name}, order={'/'.join(self.perm)})"


def executed_flops(
    chain: OperatorChain,
    perm: Sequence[str],
    tiles: Mapping[str, int],
) -> float:
    """Floating point operations actually executed under a block schedule.

    Differs from ``chain.total_flops()`` when fusion introduces
    recomputation: a 3x3 consumer convolution makes overlapping producer
    output regions, so halo elements are recomputed once per consumer block.

    Per operator: ``flops_per_inner_iteration x write_footprint(S) x
    reduction_tile_iterations x blocks``, where ``blocks`` multiplies
    ``ceil(L/S)`` over the operator's own loops present in the order (the
    operator's body is hoisted out of loops it does not use).
    """
    _check_perm(chain, perm)
    extents = chain.loop_extents()
    perm_set = set(perm)
    total = 0.0
    for op in chain.ops:
        out = op.output
        out_elements = chain.tensors[out.tensor].elements
        reduction_extent = 1
        for name in op.reduction_loop_names:
            reduction_extent *= extents[name]
        flops_per_iter = op.flops / (out_elements * reduction_extent)

        per_block = out.footprint(tiles)
        for name in op.reduction_loop_names:
            per_block *= tiles.get(name, 1) if name in perm_set else extents[name]

        blocks = 1.0
        for name in op.loop_names:
            if name in perm_set:
                blocks *= math.ceil(extents[name] / tiles.get(name, 1))
        total += flops_per_iter * per_block * blocks
    return total


def _check_perm(chain: OperatorChain, perm: Sequence[str]) -> None:
    """Validate a block order.

    Loops with extent 1 may be omitted — they never cause data replacement
    (their single iteration cannot evict anything), so the ordering layer
    drops them.  Every other independent loop must appear exactly once.
    """
    got = list(perm)
    if len(got) != len(set(got)):
        raise ValueError(f"permutation {got} repeats a loop")
    independent = set(chain.independent_loops())
    unknown = set(got) - independent
    if unknown:
        raise ValueError(
            f"permutation names unknown loops {sorted(unknown)}; "
            f"independent loops are {sorted(independent)}"
        )
    extents = chain.loop_extents()
    required = {n for n in independent if extents[n] > 1}
    missing = required - set(got)
    if missing:
        raise ValueError(
            f"permutation {got} misses non-degenerate loops {sorted(missing)}"
        )
