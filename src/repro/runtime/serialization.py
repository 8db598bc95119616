"""JSON serialization for chains, hardware and fusion plans.

Optimizing a chain costs seconds (order enumeration plus constrained
solves); production deployments cache the result.  This module round-trips
the full planning state — chain IR, machine model, per-level schedules —
through plain JSON, so plans can be persisted, diffed, and reloaded without
re-running the optimizer.

``save_plan`` / ``load_plan`` are the high-level entry points::

    plan = repro.optimize_chain(chain, hw)
    save_plan(plan, "g1.plan.json")
    ...
    plan = load_plan("g1.plan.json")
    kernel = build_kernel(plan)
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Any, Dict, Union

if TYPE_CHECKING:  # pragma: no cover - circular only for typing
    from .network import NetworkPlan

from ..core.plan import CorePartition, FusionPlan, LevelSchedule
from ..hardware.spec import (
    HardwareSpec,
    InterCoreLink,
    MatrixUnit,
    MemoryLevel,
    VectorUnit,
)
from ..ir.access import AffineExpr, TensorAccess
from ..ir.chain import OperatorChain
from ..ir.dtypes import dtype as dtype_by_name
from ..ir.loops import Loop, LoopKind
from ..ir.operator import OperatorSpec
from ..ir.tensor import TensorSpec

#: Version 3 added stitched-node membership (``members`` / ``stitched``)
#: to network plan nodes.  Version 4 added graph-level execution
#: scheduling: per-node ``spill_time`` and the network-level ``schedule``
#: (execution order, live-byte profile, residency decisions; ``null``
#: when compiled with ``schedule=False``).  Version 5 added multi-core
#: scale-out: the hardware ``link`` (inter-core interconnect), the plan
#: ``partition`` (block-to-core sharding and its communication term),
#: and per-node schedule ``transients`` (comm staging bytes).
FORMAT_VERSION = 5

PathLike = Union[str, pathlib.Path]


class PlanFormatError(ValueError):
    """A serialized plan cannot be decoded by this build.

    Raised for unknown ``format_version`` values and for structurally
    damaged payloads (missing required fields).  Subclasses ``ValueError``
    so callers that predate the typed error keep working.
    """


# ----------------------------------------------------------------------
# IR encoding
# ----------------------------------------------------------------------
def _encode_expr(expr: AffineExpr) -> Dict[str, Any]:
    return {"terms": [list(t) for t in expr.terms], "offset": expr.offset}


def _decode_expr(data: Dict[str, Any]) -> AffineExpr:
    return AffineExpr.of(
        *[(name, coeff) for name, coeff in data["terms"]],
        offset=data["offset"],
    )


def _encode_access(access: TensorAccess) -> Dict[str, Any]:
    return {
        "tensor": access.tensor,
        "dims": [_encode_expr(d) for d in access.dims],
    }


def _decode_access(data: Dict[str, Any]) -> TensorAccess:
    return TensorAccess(
        data["tensor"], tuple(_decode_expr(d) for d in data["dims"])
    )


def _encode_op(op: OperatorSpec) -> Dict[str, Any]:
    return {
        "name": op.name,
        "kind": op.kind,
        "tag": op.tag,
        "loops": [[l.name, l.extent, l.kind.value] for l in op.loops],
        "reads": [_encode_access(a) for a in op.reads],
        "writes": [_encode_access(a) for a in op.writes],
        "flops": op.flops,
        "attrs": dict(op.attrs),
    }


def _decode_op(data: Dict[str, Any]) -> OperatorSpec:
    return OperatorSpec(
        name=data["name"],
        kind=data["kind"],
        tag=data["tag"],
        loops=tuple(
            Loop(name, extent, LoopKind(kind))
            for name, extent, kind in data["loops"]
        ),
        reads=tuple(_decode_access(a) for a in data["reads"]),
        writes=tuple(_decode_access(a) for a in data["writes"]),
        flops=data["flops"],
        attrs=data["attrs"],
    )


def chain_to_dict(chain: OperatorChain) -> Dict[str, Any]:
    """Encode a chain (operators, tensors) as JSON-ready data."""
    return {
        "name": chain.name,
        "ops": [_encode_op(op) for op in chain.ops],
        "tensors": {
            name: {"shape": list(spec.shape), "dtype": spec.dtype.name}
            for name, spec in chain.tensors.items()
        },
    }


def chain_from_dict(data: Dict[str, Any]) -> OperatorChain:
    """Rebuild a chain; validation re-runs on construction."""
    tensors = {
        name: TensorSpec(name, tuple(td["shape"]), dtype_by_name(td["dtype"]))
        for name, td in data["tensors"].items()
    }
    return OperatorChain(
        name=data["name"],
        ops=tuple(_decode_op(od) for od in data["ops"]),
        tensors=tensors,
    )


# ----------------------------------------------------------------------
# hardware encoding
# ----------------------------------------------------------------------
def hardware_to_dict(hw: HardwareSpec) -> Dict[str, Any]:
    """Encode a machine model as JSON-ready data."""
    return {
        "name": hw.name,
        "backend": hw.backend,
        "peak_flops": hw.peak_flops,
        "num_cores": hw.num_cores,
        "levels": [
            {
                "name": level.name,
                "capacity": level.capacity,
                "bandwidth": level.bandwidth,
                "shared": level.shared,
                "software_managed": level.software_managed,
            }
            for level in hw.levels
        ],
        "kernel_launch_overhead": hw.kernel_launch_overhead,
        "vector_unit": (
            None
            if hw.vector_unit is None
            else {
                "num_registers": hw.vector_unit.num_registers,
                "register_bits": hw.vector_unit.register_bits,
                "fma_pipeline_depth": hw.vector_unit.fma_pipeline_depth,
            }
        ),
        "matrix_unit": (
            None
            if hw.matrix_unit is None
            else {
                "name": hw.matrix_unit.name,
                "m": hw.matrix_unit.m,
                "n": hw.matrix_unit.n,
                "k": hw.matrix_unit.k,
            }
        ),
        "unified_buffer": hw.unified_buffer,
        "unified_buffer_bandwidth": hw.unified_buffer_bandwidth,
        "link": (
            None
            if hw.link is None
            else {
                "bandwidth": hw.link.bandwidth,
                "latency": hw.link.latency,
                "topology": hw.link.topology,
                "per_hop_cost": hw.link.per_hop_cost,
            }
        ),
    }


def hardware_from_dict(data: Dict[str, Any]) -> HardwareSpec:
    """Rebuild a machine model from :func:`hardware_to_dict` output."""
    vector_unit = data.get("vector_unit")
    matrix_unit = data.get("matrix_unit")
    link = data.get("link")
    return HardwareSpec(
        name=data["name"],
        backend=data["backend"],
        peak_flops=data["peak_flops"],
        num_cores=data["num_cores"],
        levels=tuple(
            MemoryLevel(
                ld["name"], ld["capacity"], ld["bandwidth"],
                ld["shared"], ld["software_managed"],
            )
            for ld in data["levels"]
        ),
        kernel_launch_overhead=data["kernel_launch_overhead"],
        vector_unit=None if vector_unit is None else VectorUnit(**vector_unit),
        matrix_unit=None if matrix_unit is None else MatrixUnit(**matrix_unit),
        unified_buffer=data["unified_buffer"],
        unified_buffer_bandwidth=data["unified_buffer_bandwidth"],
        link=None if link is None else InterCoreLink(**link),
    )


# ----------------------------------------------------------------------
# plan encoding
# ----------------------------------------------------------------------
def plan_to_dict(plan: FusionPlan) -> Dict[str, Any]:
    """Encode a full fusion plan as JSON-ready data."""
    return {
        "format_version": FORMAT_VERSION,
        "chain": chain_to_dict(plan.chain),
        "hardware": hardware_to_dict(plan.hardware),
        "levels": [
            {
                "level": sched.level,
                "order": list(sched.order),
                "tiles": dict(sched.tiles),
                "predicted_dv": sched.predicted_dv,
                "predicted_mu": sched.predicted_mu,
                "capacity": sched.capacity,
                "bandwidth": sched.bandwidth,
            }
            for sched in plan.levels
        ],
        "fused": plan.fused,
        "micro_kernel": plan.micro_kernel,
        "compute_efficiency": plan.compute_efficiency,
        "executed_flops": plan.executed_flops,
        "notes": list(plan.notes),
        "partition": (
            None
            if plan.partition is None
            else {
                "cores": plan.partition.cores,
                "loop": plan.partition.loop,
                "full_extent": plan.partition.full_extent,
                "shard_extent": plan.partition.shard_extent,
                "comm_bytes": plan.partition.comm_bytes,
                "comm_steps": plan.partition.comm_steps,
            }
        ),
    }


def plan_from_dict(data: Dict[str, Any]) -> FusionPlan:
    """Rebuild a fusion plan.

    Raises:
        PlanFormatError: for unknown format versions or missing fields.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise PlanFormatError(
            f"unsupported plan format version {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    try:
        return FusionPlan(
            chain=chain_from_dict(data["chain"]),
            hardware=hardware_from_dict(data["hardware"]),
            levels=tuple(
                LevelSchedule(
                    level=ld["level"],
                    order=tuple(ld["order"]),
                    tiles=ld["tiles"],
                    predicted_dv=ld["predicted_dv"],
                    predicted_mu=ld["predicted_mu"],
                    capacity=ld["capacity"],
                    bandwidth=ld["bandwidth"],
                )
                for ld in data["levels"]
            ),
            fused=data["fused"],
            micro_kernel=data["micro_kernel"],
            compute_efficiency=data["compute_efficiency"],
            executed_flops=data["executed_flops"],
            notes=tuple(data["notes"]),
            partition=(
                None
                if data["partition"] is None
                else CorePartition(**data["partition"])
            ),
        )
    except KeyError as exc:
        raise PlanFormatError(
            f"serialized plan is missing required field {exc.args[0]!r}"
        ) from exc


# ----------------------------------------------------------------------
# network plan encoding
# ----------------------------------------------------------------------
def _encode_schedule(schedule: Any) -> Any:
    if schedule is None:
        return None
    return {
        "graph": schedule.graph,
        "order": list(schedule.order),
        "live_bytes": list(schedule.live_bytes),
        "peak_bytes": schedule.peak_bytes,
        "naive_peak_bytes": schedule.naive_peak_bytes,
        "memory_budget": schedule.memory_budget,
        "seed": schedule.seed,
        "transients": [list(t) for t in schedule.transients],
        "residency": [
            {
                "producer": record.producer,
                "tensor": record.tensor,
                "nbytes": record.nbytes,
                "consumers": list(record.consumers),
                "decision": record.decision,
                "overhead_time": record.overhead_time,
            }
            for record in schedule.residency
        ],
    }


def _decode_schedule(data: Any) -> Any:
    from .scheduler import GraphSchedule, TensorResidency

    if data is None:
        return None
    return GraphSchedule(
        graph=data["graph"],
        order=tuple(data["order"]),
        live_bytes=tuple(data["live_bytes"]),
        peak_bytes=data["peak_bytes"],
        naive_peak_bytes=data["naive_peak_bytes"],
        memory_budget=data["memory_budget"],
        seed=data["seed"],
        transients=tuple(
            (name, nbytes) for name, nbytes in data["transients"]
        ),
        residency=tuple(
            TensorResidency(
                producer=rd["producer"],
                tensor=rd["tensor"],
                nbytes=rd["nbytes"],
                consumers=tuple(rd["consumers"]),
                decision=rd["decision"],
                overhead_time=rd["overhead_time"],
            )
            for rd in data["residency"]
        ),
    )


def network_plan_to_dict(plan: "NetworkPlan") -> Dict[str, Any]:
    """Encode a network plan as JSON-ready data.

    Volatile fields (cache ``source``) are deliberately excluded so the
    encoding is byte-identical across cold and warm compiles.
    """
    return {
        "format_version": FORMAT_VERSION,
        "network": plan.network,
        "hardware": hardware_to_dict(plan.hardware),
        "timing": plan.timing,
        "schedule": _encode_schedule(plan.schedule),
        "nodes": [
            {
                "name": node.name,
                "repeat": node.repeat,
                "fusable": node.fusable,
                "fused": node.fused,
                "plans": [plan_to_dict(p) for p in node.plans],
                "time": node.time,
                "unfused_time": node.unfused_time,
                "spill_time": node.spill_time,
                "members": list(node.members),
                "stitched": [
                    {
                        "node": s.node,
                        "op": s.op,
                        "tag": s.tag,
                        "role": s.role,
                    }
                    for s in node.stitched
                ],
            }
            for node in plan.nodes
        ],
    }


def network_plan_from_dict(data: Dict[str, Any]) -> "NetworkPlan":
    """Rebuild a network plan from :func:`network_plan_to_dict` output.

    Raises:
        PlanFormatError: for unknown format versions or missing fields.
    """
    from ..ir.graph import StitchedOp
    from .network import NetworkPlan, NodePlan

    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise PlanFormatError(
            f"unsupported network plan format version {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    try:
        return NetworkPlan(
            network=data["network"],
            hardware=hardware_from_dict(data["hardware"]),
            timing=data["timing"],
            schedule=_decode_schedule(data["schedule"]),
            nodes=tuple(
                NodePlan(
                    name=nd["name"],
                    repeat=nd["repeat"],
                    fusable=nd["fusable"],
                    fused=nd["fused"],
                    plans=tuple(plan_from_dict(p) for p in nd["plans"]),
                    time=nd["time"],
                    unfused_time=nd["unfused_time"],
                    spill_time=nd["spill_time"],
                    members=tuple(nd["members"]),
                    stitched=tuple(
                        StitchedOp(
                            node=sd["node"],
                            op=sd["op"],
                            tag=sd["tag"],
                            role=sd["role"],
                        )
                        for sd in nd["stitched"]
                    ),
                )
                for nd in data["nodes"]
            ),
        )
    except KeyError as exc:
        raise PlanFormatError(
            f"serialized network plan is missing required field "
            f"{exc.args[0]!r}"
        ) from exc


def network_plan_json(plan: "NetworkPlan") -> str:
    """Canonical JSON text for a network plan (sorted keys, no whitespace).

    Two plans compare byte-identical exactly when this string matches —
    the representation the determinism tests and the cache diff on.
    """
    return json.dumps(
        network_plan_to_dict(plan), sort_keys=True, separators=(",", ":")
    )


def save_network_plan(plan: "NetworkPlan", path: PathLike) -> None:
    """Serialize a network plan to a JSON file (canonical key order)."""
    pathlib.Path(path).write_text(
        json.dumps(network_plan_to_dict(plan), indent=2, sort_keys=True)
    )


def load_network_plan(path: PathLike) -> "NetworkPlan":
    """Load a plan saved by :func:`save_network_plan`.

    Raises:
        PlanFormatError: when the file is not valid JSON, has an unknown
            ``format_version``, or is missing required fields.
    """
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PlanFormatError(
            f"network plan file {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise PlanFormatError(
            f"network plan file {path} does not hold a JSON object"
        )
    return network_plan_from_dict(data)


def save_plan(plan: FusionPlan, path: PathLike) -> None:
    """Serialize a plan to a JSON file."""
    pathlib.Path(path).write_text(json.dumps(plan_to_dict(plan), indent=2))


def load_plan(path: PathLike) -> FusionPlan:
    """Load a plan saved by :func:`save_plan`.

    Raises:
        PlanFormatError: when the file is not valid JSON, has an unknown
            ``format_version``, or is missing required fields.
    """
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PlanFormatError(f"plan file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise PlanFormatError(f"plan file {path} does not hold a JSON object")
    return plan_from_dict(data)
