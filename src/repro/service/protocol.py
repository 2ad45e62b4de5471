"""JSON wire protocol of the simulation service.

One canonical JSON shape per :class:`~repro.sweep.plan.SweepCell`, plus
the submission envelope clients POST to the front-end.  Parsing is
strict: every malformed field raises a typed
:class:`~repro.errors.ProtocolError` naming the offending field (the
HTTP layer maps it to a 400, mirroring the CLI's exit-2 validation
style), so a bad request can never reach the simulation engine.

Cell JSON layout::

    {"workload": "allreduce", "tasks": null, "workload_params": {},
     "topology": {"family": "nesttree", "params": {"t": 2, "u": 4}},
     "placement": "spread",
     "faults": {"cables": 4, "uplinks": 2, "seed": 7},   # or null
     "routing": "deterministic",
     "timeline": {"cables": 1, "uplinks": 1, "seed": 0,   # or null
                  "horizon": 1.0, "mttr": 0.25}}

The plan globals (endpoints, fidelity, seed) are *server* configuration:
a service instance answers for exactly one global configuration, echoed
in every response, and the content digest folds them in so stores of
different configurations never alias.
"""

from __future__ import annotations

import sys
from typing import Any

from repro.core.config import TopologySpec, WorkloadSpec
from repro.errors import ConfigError, ProtocolError
from repro.routing import ROUTING_POLICIES
from repro.sweep.plan import SweepCell
from repro.topology.timeline import TimelineSpec

__all__ = ["PLACEMENTS", "cell_from_json", "cell_to_json",
           "submission_from_json"]

#: Placement policies :func:`repro.mapping.placement.by_name` dispatches.
PLACEMENTS = ("identity", "block", "spread", "random")

#: Cells one submission may carry; a guard against a single request
#: swallowing the whole queue capacity.
MAX_CELLS_PER_SUBMISSION = 256

_CELL_FIELDS = frozenset({
    "workload", "tasks", "workload_params", "topology", "placement",
    "faults", "routing", "timeline",
})


def _require(doc: dict, field: str, kinds, where: str) -> Any:
    value = doc.get(field)
    if not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in
                         (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise ProtocolError(
            f"{where}: field {field!r} must be {names}, "
            f"got {type(value).__name__}")
    return value


def _count(doc: dict, field: str, where: str) -> int:
    """A non-negative, non-bool integer field (default 0)."""
    value = doc.get(field, 0)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ProtocolError(
            f"{where}: field {field!r} must be a non-negative integer, "
            f"got {value!r}")
    return value


def _seconds(doc: dict, field: str, where: str,
             default: float | None) -> float | None:
    """A finite, strictly positive number of seconds (``default`` when
    absent).  ``None`` is accepted only for an optional field, one whose
    ``default`` is ``None``."""
    value = doc.get(field, default)
    if value is None and default is None:
        return None
    # the upper bound also rejects ints too large to convert to a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 < value <= sys.float_info.max:
        raise ProtocolError(
            f"{where}: field {field!r} must be a finite positive number, "
            f"got {value!r}")
    return float(value)


def cell_to_json(cell: SweepCell) -> dict:
    """The canonical JSON form of a cell (inverse of
    :func:`cell_from_json`)."""
    return {
        "workload": cell.workload.name,
        "tasks": cell.workload.tasks,
        "workload_params": dict(cell.workload.params),
        "topology": {"family": cell.topology.family,
                     "params": dict(cell.topology.params)},
        "placement": cell.placement,
        "faults": cell.fault_fingerprint(),
        "routing": cell.routing,
        "timeline": (None if cell.timeline is None
                     else cell.timeline.fingerprint()),
    }


def cell_from_json(doc: Any, *, where: str = "cell") -> SweepCell:
    """Parse and validate one cell document into a :class:`SweepCell`.

    Raises :class:`~repro.errors.ProtocolError` naming the bad field for
    anything the simulation layer would reject later — unknown workload,
    topology family, placement or routing policy, invalid hybrid
    parameters, or a cell carrying both static faults and a timeline.
    """
    from repro.topology.registry import available as topo_available
    from repro.workloads import available as wl_available

    if not isinstance(doc, dict):
        raise ProtocolError(
            f"{where}: must be an object, got {type(doc).__name__}")
    unknown = doc.keys() - _CELL_FIELDS
    if unknown:
        raise ProtocolError(
            f"{where}: unknown fields {sorted(unknown)}; "
            f"expected a subset of {sorted(_CELL_FIELDS)}")

    workload = _require(doc, "workload", str, where)
    if workload not in wl_available():
        raise ProtocolError(
            f"{where}: unknown workload {workload!r}; "
            f"available: {wl_available()}")
    tasks = doc.get("tasks")
    if tasks is not None and (isinstance(tasks, bool)
                              or not isinstance(tasks, int) or tasks < 1):
        raise ProtocolError(
            f"{where}: field 'tasks' must be a positive integer or null, "
            f"got {tasks!r}")
    wl_params = doc.get("workload_params") or {}
    if not isinstance(wl_params, dict):
        raise ProtocolError(
            f"{where}: field 'workload_params' must be an object")

    topo_doc = _require(doc, "topology", dict, where)
    family = topo_doc.get("family")
    if not isinstance(family, str) or family not in topo_available():
        raise ProtocolError(
            f"{where}: unknown topology family {family!r}; "
            f"available: {topo_available()}")
    topo_params = topo_doc.get("params") or {}
    if not isinstance(topo_params, dict):
        raise ProtocolError(
            f"{where}: field 'topology.params' must be an object")

    placement = doc.get("placement", "spread")
    if placement not in PLACEMENTS:
        raise ProtocolError(
            f"{where}: unknown placement {placement!r}; "
            f"available: {list(PLACEMENTS)}")
    routing = doc.get("routing", "deterministic")
    if routing not in ROUTING_POLICIES:
        raise ProtocolError(
            f"{where}: unknown routing policy {routing!r}; "
            f"available: {sorted(ROUTING_POLICIES)}")

    faults = doc.get("faults")
    fail_links = fail_uplinks = fail_seed = 0
    if faults is not None:
        if not isinstance(faults, dict):
            raise ProtocolError(
                f"{where}: field 'faults' must be an object or null")
        fail_links = _count(faults, "cables", f"{where}.faults")
        fail_uplinks = _count(faults, "uplinks", f"{where}.faults")
        fail_seed = _count(faults, "seed", f"{where}.faults")

    timeline = None
    tl_doc = doc.get("timeline")
    if tl_doc is not None:
        if not isinstance(tl_doc, dict):
            raise ProtocolError(
                f"{where}: field 'timeline' must be an object or null")
        tl_where = f"{where}.timeline"
        timeline = TimelineSpec(
            cables=_count(tl_doc, "cables", tl_where),
            uplinks=_count(tl_doc, "uplinks", tl_where),
            seed=_count(tl_doc, "seed", tl_where),
            horizon=_seconds(tl_doc, "horizon", tl_where, 1.0),
            mttr=_seconds(tl_doc, "mttr", tl_where, None))

    try:
        return SweepCell(
            workload=WorkloadSpec(workload, tasks=tasks, params=wl_params),
            topology=TopologySpec(family, topo_params),
            placement=placement,
            fail_links=fail_links,
            fail_uplinks=fail_uplinks,
            fail_seed=fail_seed,
            routing=routing,
            timeline=timeline)
    except ConfigError as exc:
        # hybrid (t, u) validation and the faults/timeline exclusivity
        # guard fire inside the spec constructors; surface them typed
        raise ProtocolError(f"{where}: {exc}") from None


def submission_from_json(doc: Any) -> tuple[str, list[SweepCell]]:
    """Parse a submission envelope into ``(tenant, cells)``.

    Envelope shape: ``{"tenant": "alice", "cells": [<cell>, ...]}``.
    ``tenant`` is optional (defaults to ``"default"``); ``cells`` must be
    a non-empty list of at most :data:`MAX_CELLS_PER_SUBMISSION` cells.
    """
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"submission: must be an object, got {type(doc).__name__}")
    tenant = doc.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(
            f"submission: field 'tenant' must be a non-empty string, "
            f"got {tenant!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ProtocolError(
            "submission: field 'cells' must be a non-empty list")
    if len(cells) > MAX_CELLS_PER_SUBMISSION:
        raise ProtocolError(
            f"submission: {len(cells)} cells exceed the per-request "
            f"limit of {MAX_CELLS_PER_SUBMISSION}")
    return tenant, [cell_from_json(c, where=f"cells[{i}]")
                    for i, c in enumerate(cells)]
