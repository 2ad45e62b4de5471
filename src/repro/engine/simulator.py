"""Event-driven flow-level simulation.

The simulator advances a set of *active* flows under max-min fair bandwidth
sharing, completing the earliest-finishing batch, releasing dependent flows,
and re-allocating rates.  Two fidelities are offered:

* ``"exact"`` — rates are re-allocated after every completion batch.  This
  is the reference semantics (matching INRFlow's dynamic mode) and the one
  the test-suite invariants are written against.
* ``"approx"`` — bounded-churn reallocation: full max-min allocations are
  only recomputed once the active set has churned (completions plus
  releases) by :data:`CHURN_FRACTION` since the last allocation.  In
  between, a finished flow's bandwidth is simply retired and a newly
  released flow *inherits the rate of the flow whose completion released
  it* (its predecessor on the same dependency chain, which usually has a
  nearly identical route).  Links can be transiently over- or
  under-subscribed by at most the churn bound, so makespans track the
  exact mode closely (validated in the test suite) at a fraction of the
  allocations — the figure sweeps use this mode.

Completion ties within a relative window are batched, which keeps the event
count low for the highly symmetric collectives the paper uses.

Exact fidelity finds each event by scanning the live flows' deadlines
(``remaining / rate``) and charges every live flow its progress
(``remaining -= rate * dt``).  Approx fidelity, whose rates change only at
reallocations, keeps an absolute finish time per flow in a
:class:`_FinishCalendar` instead: ``remaining`` is brought up to date
lazily, before each reallocation and at each fault boundary, the flows
rated by a reallocation are sorted by finish time, and the flows admitted
since (at inherited rates) wait in a pending buffer the churn bound keeps
small — so an event costs O(batch + pending + log live) rather than
O(live).  Exact fidelity keeps the scan: it reallocates every event, so a
calendar would be re-sorted every event, and its arithmetic is what the
exact incremental-vs-rebuild suite pins bitwise.  See "Approx deadline
calendar" in ``docs/simulation-model.md``.

Bandwidth allocations run through a persistent
:class:`~repro.engine.active.ActiveSet` that maintains the flow→link
incidence across events (O(changed routes) membership updates, pooled CSR
buffers, warm-started progressive filling); ``allocator="rebuild"`` selects
the historical rebuild-from-scratch path — the reference baseline the
engine benchmark compares against.  Both produce identical rates (the
incremental allocator is exact, see ``docs/simulation-model.md``).

Fault timelines
---------------
The incremental engine has one event loop with two event sources: flow
completions and the epoch boundaries of an optional
:class:`~repro.topology.timeline.FaultTimeline`.  A healthy run is the
empty timeline — no epoch ever fires, no flow ever parks and
``result.transient`` is ``None`` — so a timeline whose events never fire
during the run produces bitwise-identical results.  When the next epoch
boundary lands before the earliest completion, the loop:

* brings every active flow's remaining bytes up to date at the boundary
  (exact: charges ``rates * dt``; approx: the calendar's lazy update from
  each flow's last update time) and jumps time there;
* swaps the routing view — the base topology wrapped in the epoch's
  cumulative :class:`~repro.topology.degraded.FaultSet`, or the bare base
  once everything is repaired.  Route caches invalidate *incrementally*:
  cache keys carry the fault set's
  :meth:`~repro.topology.degraded.FaultSet.cache_token`, so each epoch
  fills its own partition, healthy epochs reuse the healthy partition,
  and a later epoch with the same cumulative faults (fail/repair cycles)
  reuses earlier work — no flush, ever;
* recovers the in-flight flows whose route crosses a newly-disabled link:
  each is removed from the :class:`~repro.engine.active.ActiveSet`,
  rerouted over the surviving candidate set (which falls back to the
  uplink fail-over / BFS-detour ladder of
  :class:`~repro.topology.degraded.DegradedTopology`), and re-added with
  its remaining bytes preserved;
* *parks* a flow whose pair is currently disconnected and retries it at
  every later epoch.  :class:`~repro.errors.DegradedNetworkError` is
  raised only when a pair is truly disconnected and no remaining event
  could ever reconnect it — matching the static engine's behaviour for a
  timeline that never repairs.

The transient counters (fault events fired, flows rerouted/parked/
recovered, bits moved to new routes, seconds spent parked) ride on
``result.transient`` and — when the run is instrumented — in the metrics
snapshot's ``"transient"`` block; both are absent without a timeline.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.active import ActiveSet
from repro.engine.flows import FlowSet
from repro.engine.maxmin import _slices_concat, allocate
from repro.engine.results import SimulationResult
from repro.errors import DegradedNetworkError, SimulationError
from repro.routing import policy as routing_policy
from repro.routing.policy import validate_policy
from repro.topology.base import Topology
from repro.topology.degraded import DegradedTopology, FaultSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsCollector
    from repro.topology.timeline import FaultTimeline

#: Relative tie window for batching completions.
_TIE_EPS = 1e-9

#: Active-set churn fraction that forces a re-allocation in approx mode.
CHURN_FRACTION = 0.05

_FIDELITIES = ("exact", "approx")

_ALLOCATORS = ("incremental", "rebuild")

#: Shared route for flows whose tasks are placed on the same endpoint.
_EMPTY_ROUTE = np.empty(0, dtype=np.int64)


def _make_route_fn(topology: Topology, src_ep: np.ndarray, dst_ep: np.ndarray,
                   route_cache: dict, collector, routing: str,
                   occupancy=None):
    """Build the per-flow ``route_of(fid)`` closure both engines share.

    Historically each engine carried its own copy of the cache-fill logic
    with bare ``(src, dst)`` keys, which silently poisoned caches shared
    across :class:`~repro.topology.degraded.DegradedTopology` wrappers (two
    different fault sets hash to the same key) and across routing policies.
    The single helper keys the cache by route identity instead:

    * deterministic routes on a *healthy* topology keep the bare
      ``(src, dst)`` key — bitwise-compatible with caches shared with the
      static analyzer and pre-existing checkpoints;
    * a degraded wrapper appends its fault set's
      :meth:`~repro.topology.degraded.FaultSet.cache_token`;
    * the multi-path policies cache the whole interned candidate list
      under ``("cands", src, dst, token)`` and select per flow.

    ``occupancy`` (adaptive only) is a zero-argument callable returning
    the current per-link live-flow-count vector.
    """
    faults = getattr(topology, "faults", None)
    token = faults.cache_token() if isinstance(faults, FaultSet) else None

    def _timed(fn, s: int, d: int):
        if collector is None:
            return fn(s, d)
        t0 = time.perf_counter()
        out = fn(s, d)
        collector.add_time("route_construction", time.perf_counter() - t0)
        return out

    if routing == "deterministic":
        def route_of(fid: int) -> np.ndarray:
            s, d = int(src_ep[fid]), int(dst_ep[fid])
            if s == d:
                return _EMPTY_ROUTE  # co-located tasks: intra-endpoint
            key = (s, d) if token is None else (s, d, token)
            cached = route_cache.get(key)
            if cached is None:
                cached = np.asarray(_timed(topology.route, s, d),
                                    dtype=np.int64)
                route_cache[key] = cached
            return cached
        return route_of

    def candidates_of(s: int, d: int) -> list[np.ndarray]:
        key = ("cands", s, d, token)
        cands = route_cache.get(key)
        if cands is None:
            cands = [np.asarray(r, dtype=np.int64)
                     for r in _timed(topology.route_candidates, s, d)]
            route_cache[key] = cands
        return cands

    if routing == "ecmp":
        def route_of(fid: int) -> np.ndarray:
            s, d = int(src_ep[fid]), int(dst_ep[fid])
            if s == d:
                return _EMPTY_ROUTE
            cands = candidates_of(s, d)
            return cands[routing_policy.ecmp_index(fid, s, d, len(cands))]
        return route_of

    assert routing == "adaptive" and occupancy is not None

    def route_of(fid: int) -> np.ndarray:
        s, d = int(src_ep[fid]), int(dst_ep[fid])
        if s == d:
            return _EMPTY_ROUTE
        cands = candidates_of(s, d)
        if len(cands) == 1:
            return cands[0]
        return cands[routing_policy.adaptive_index(cands, occupancy())]
    return route_of


def _nonfinite_deadline(bad: np.ndarray, fidelity: str,
                        event: int) -> SimulationError:
    """The typed error for flows whose completion deadline is undefined.

    A rate the allocator froze at a numerically-zero level (or a 0/0 with
    an already-drained flow) has no defined deadline.
    """
    return SimulationError(
        f"flow(s) {bad.tolist()[:8]} have a non-finite completion "
        f"deadline: the allocator froze them at zero rate "
        f"(fidelity={fidelity!r}, event {event})")


class _FinishCalendar:
    """Absolute finish times of the live flows of an approx-fidelity run.

    Approx fidelity changes a live flow's rate only at reallocations, so
    between two of them each flow's finish time is fixed, and the next
    completion batch is a prefix of the flows ordered by finish time.
    The calendar keeps:

    * ``remaining`` lazily: a flow's entry is exact as of its
      ``t_ref``; :meth:`sync` charges every live flow its progress since
      then (one O(live) pass, run before each reallocation and at each
      fault boundary, the only points where rates or routes change);
    * the flows rated by the last reallocation, sorted by finish time
      (:meth:`rebuild`).  Flows leave only from the head, by completing,
      so a cursor marks it;
    * a pending buffer of the flows admitted since, each at its inherited
      rate (:meth:`push`).  The churn rule reallocates once completions
      plus admissions reach :data:`CHURN_FRACTION` of the allocated set,
      so the buffer stays that small.

    :meth:`pop` takes the batch inside the tie window from both, so an
    event costs O(batch + pending + log live) instead of a scan over every
    live flow.  Finish times are checked finite where they are computed,
    so a zero or NaN rate raises :func:`_nonfinite_deadline` at the
    reallocation or admission that produced it.
    """

    def __init__(self, active: ActiveSet, remaining: np.ndarray) -> None:
        self._active = active
        self._remaining = remaining
        self._t_ref = np.zeros(remaining.shape[0])
        self._cal_t = np.empty(0)
        self._cal_f = np.empty(0, dtype=np.int64)
        self._head = 0
        self._pend_t = np.empty(64)
        self._pend_f = np.empty(64, dtype=np.int64)
        self._npend = 0

    def _finish(self, t: float, fids: np.ndarray, rates: np.ndarray,
                event: int) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            finish = t + self._remaining[fids] / rates
        ok = np.isfinite(finish)
        if not ok.all():
            raise _nonfinite_deadline(fids[~ok], "approx", event)
        return finish

    def sync(self, now: float) -> None:
        """Bring ``remaining`` up to date at ``now`` for every live flow."""
        ids = self._active.flow_ids
        self._remaining[ids] -= self._active.rates * (now - self._t_ref[ids])
        self._t_ref[ids] = now

    def rebuild(self, now: float, event: int) -> None:
        """Re-plan every live flow from the rates just allocated.

        Requires a :meth:`sync` at ``now`` before the allocation.
        """
        ids = self._active.flow_ids
        finish = self._finish(now, ids, self._active.rates, event)
        order = np.argsort(finish)  # ties: pop() re-sorts by slot
        self._cal_t = finish[order]
        self._cal_f = ids[order]
        self._head = 0
        self._npend = 0

    def push(self, fids: np.ndarray, t: float, rates: np.ndarray,
             event: int) -> None:
        """Schedule flows admitted at ``t`` at their inherited ``rates``."""
        finish = self._finish(t, fids, rates, event)
        self._t_ref[fids] = t
        k, end = fids.shape[0], self._npend + fids.shape[0]
        if end > self._pend_t.shape[0]:
            size = max(end, 2 * self._pend_t.shape[0])
            self._pend_t = np.resize(self._pend_t, size)
            self._pend_f = np.resize(self._pend_f, size)
        self._pend_t[end - k:end] = finish
        self._pend_f[end - k:end] = fids
        self._npend = end

    def next_finish(self) -> float:
        """The earliest finish time of any live flow."""
        head = float(self._cal_t[self._head]) \
            if self._head < self._cal_t.shape[0] else math.inf
        if self._npend:
            head = min(head, float(self._pend_t[:self._npend].min()))
        return head

    def pop(self, limit: float) -> tuple[np.ndarray, np.ndarray]:
        """Remove the flows finishing by ``limit``; return them with their
        rates in slot order, the batch order of the scan this replaces.
        The order decides which predecessor a released flow inherits its
        rate from and the order releases are admitted in, which adaptive
        route choices see."""
        h = self._head
        k = h + int(np.searchsorted(self._cal_t[h:], limit, side="right"))
        done = self._cal_f[h:k]
        self._head = k
        if self._npend:
            pend_t = self._pend_t[:self._npend]
            mask = pend_t <= limit
            if mask.any():
                pend_f = self._pend_f[:self._npend]
                done = np.concatenate((done, pend_f[mask]))
                keep = ~mask
                self._npend = int(keep.sum())
                self._pend_t[:self._npend] = pend_t[keep]
                self._pend_f[:self._npend] = pend_f[keep]
        slots = self._active.slots_of(done)
        order = np.argsort(slots)
        return done[order], self._active.rates[slots[order]]


def simulate(topology: Topology, flows: FlowSet, *,
             placement: np.ndarray | None = None,
             fidelity: str = "exact",
             max_events: int = 50_000_000,
             route_cache: dict | None = None,
             metrics: MetricsCollector | None = None,
             allocator: str = "incremental",
             routing: str = "deterministic",
             fault_timeline: FaultTimeline | None = None
             ) -> SimulationResult:
    """Run a workload on a topology and return completion statistics.

    Parameters
    ----------
    topology:
        Routed network; supplies routes and link capacities.
    flows:
        The workload's flow DAG (task-id space).
    placement:
        Optional task -> endpoint map.  Defaults to identity, which
        requires ``flows.num_tasks <= topology.num_endpoints``.  Two tasks
        may share an endpoint (oversubscribed placement); flows between
        co-located tasks are *zero-hop* — they never enter the network and
        complete the instant they are released.
    fidelity:
        ``"exact"`` or ``"approx"`` (see module docstring).
    max_events:
        Safety valve against runaway event loops.
    route_cache:
        Optional route dict shared between calls; one cache per topology
        amortises route computation when many workloads replay on the
        same machine (the sweep runner does this).  Keys are policy- and
        fault-aware (see :func:`_make_route_fn`), so a single cache can
        safely serve several policies and degraded views of one machine.
    metrics:
        Optional :class:`repro.obs.MetricsCollector` (sized to this
        topology's link table).  When supplied, the engine feeds it
        per-link delivered bits and busy time, allocator statistics, and
        span timers, and attaches its snapshot as ``result.metrics``.
        The default (``None``) adds no work to the event loop.
    allocator:
        ``"incremental"`` (default) keeps the flow→link incidence alive
        across events and warm-starts allocations; ``"rebuild"`` runs the
        historical engine — per-event Python active-list maintenance, CSR
        reconstruction and a from-scratch reference allocation — kept
        verbatim for verification and as the engine benchmark's baseline.
        Both are exact — rates and makespans agree.
    routing:
        Candidate-selection policy: ``"deterministic"`` (default; routes
        and results bitwise-identical to the single-path engine),
        ``"ecmp"`` (per-flow deterministic hash over the minimal
        candidates) or ``"adaptive"`` (per-flow least-congested candidate
        by live link occupancy, deterministic route as escape).  See
        :mod:`repro.routing.policy` and ``docs/routing.md``.
    fault_timeline:
        Optional :class:`~repro.topology.timeline.FaultTimeline` whose
        epochs the event loop merges with flow completions (see "Fault
        timelines" in the module docstring): the network degrades and
        heals mid-run, in-flight flows are recovered across fault events,
        and ``result.transient`` carries the recovery counters.  Requires
        the incremental allocator and the *healthy* base topology (static
        faults belong in the timeline as events at ``t <= 0``).  ``None``
        or an empty timeline is the zero-epoch case of the same loop —
        results are bitwise-identical to a call without the argument and
        ``result.transient`` is ``None``.

    The run is :func:`_simulate` with its two loop-equivalence switches
    at their defaults (batched completion walk, relevel fills on).
    """
    return _simulate(topology, flows, placement=placement,
                     fidelity=fidelity, max_events=max_events,
                     route_cache=route_cache, metrics=metrics,
                     allocator=allocator, routing=routing,
                     fault_timeline=fault_timeline)


def _simulate(topology: Topology, flows: FlowSet, *,
              placement: np.ndarray | None = None,
              fidelity: str = "exact",
              max_events: int = 50_000_000,
              route_cache: dict | None = None,
              metrics: MetricsCollector | None = None,
              allocator: str = "incremental",
              routing: str = "deterministic",
              fault_timeline: FaultTimeline | None = None,
              per_flow: bool = False,
              relevel: bool = True) -> SimulationResult:
    """:func:`simulate` with the incremental event loop's switches exposed.

    ``per_flow=True`` replaces the vectorised completion walk (one
    ``remove_many``/``add_many`` per completion batch, batch-inherited
    rates, bulk fault recovery) by the historical walk that retires and
    releases flow by flow; adaptive routing always takes it, because each
    route choice must see the occupancy its predecessors left.
    ``relevel=False`` makes every exact-fidelity allocation a full
    progressive-filling pass (see :class:`~repro.engine.active.ActiveSet`).
    Neither changes a result — the equivalence suites run both settings
    and assert bitwise-identical results — so they exist for those suites
    and for bisecting, not for tuning.  The rebuild allocator ignores
    them.
    """
    if fidelity not in _FIDELITIES:
        raise SimulationError(f"fidelity must be one of {_FIDELITIES}")
    if allocator not in _ALLOCATORS:
        raise SimulationError(f"allocator must be one of {_ALLOCATORS}")
    routing = validate_policy(routing)
    placement = _check_placement(topology, flows, placement)
    collector = metrics
    if collector is not None:
        collector.set_routing(routing)

    n = flows.num_flows
    if n == 0:
        snap = collector.snapshot(topology, 0.0) if collector is not None \
            else None
        return SimulationResult(makespan=0.0, completion_times=np.empty(0),
                                start_times=np.empty(0),
                                fidelity=fidelity, num_flows=0,
                                reallocations=0, events=0, total_bits=0.0,
                                metrics=snap)

    timed = fault_timeline is not None and not fault_timeline.empty
    if timed:
        if allocator != "incremental":
            raise SimulationError(
                "fault timelines require allocator='incremental' (the "
                "rebuild baseline predates in-flight recovery)")
        if isinstance(topology, DegradedTopology):
            raise SimulationError(
                "fault timelines require the healthy base topology; encode "
                "static faults as timeline events at t <= 0 instead of "
                "wrapping with DegradedTopology")
        fault_timeline.validate(topology)
    epochs = fault_timeline.epochs() if timed else ()

    if allocator == "rebuild":
        return _simulate_rebuild(topology, flows, placement, fidelity,
                                 max_events, route_cache, collector, routing)

    capacities = topology.links.capacities
    remaining = flows.size.copy()
    indegree = flows.indegree.copy()
    completion = np.full(n, np.nan)
    start = np.full(n, np.nan)
    weighted = flows.is_weighted
    weight_arr = flows.weight

    adaptive = routing == "adaptive"
    per_flow = per_flow or adaptive
    active = ActiveSet(capacities, weighted=weighted,
                       track_occupancy=adaptive, relevel=relevel)
    occ_fn = (lambda: active.occupancy) if adaptive else None
    # exact fidelity reallocates every event, so its scan over the live
    # deadlines is already dominated by the fill and stays as it is
    calendar = _FinishCalendar(active, remaining) \
        if fidelity == "approx" else None
    events = 0

    if route_cache is None:
        route_cache = {}
    src_ep = placement[flows.src]
    dst_ep = placement[flows.dst]

    counters = {"fault_events": 0, "flows_rerouted": 0, "flows_parked": 0,
                "flows_recovered": 0, "rerouted_bits": 0.0,
                "recovery_seconds": 0.0}
    #: flow id -> time it was parked (pair currently disconnected).
    parked: dict[int, float] = {}

    # ---- epoch state (-1: before the first epoch, the healthy machine)
    epoch_idx = -1
    current = topology
    route_of = None
    next_change = math.inf

    def enter_epoch(idx: int) -> None:
        """Switch the routing view and route function to epoch ``idx``."""
        nonlocal epoch_idx, current, route_of, next_change
        epoch_idx = idx
        current = topology if idx < 0 or epochs[idx].faults.empty \
            else DegradedTopology(topology, epochs[idx].faults)
        route_of = _make_route_fn(current, src_ep, dst_ep, route_cache,
                                  collector, routing, occ_fn)
        next_change = epochs[idx + 1].start if idx + 1 < len(epochs) \
            else math.inf

    # events at or before t=0 are the machine's state at job start;
    # everything later fires inside the loop
    first = 0
    while first < len(epochs) and epochs[first].start <= 0.0:
        first += 1
    enter_epoch(first - 1)

    completed_count = 0

    def route_or_park(f: int, t: float) -> np.ndarray | None:
        """Route a flow under the current epoch, or park it until repair.

        Propagates :class:`~repro.errors.DegradedNetworkError` when no
        future epoch exists — the pair can never reconnect, which is the
        one case the typed error is for (and the behaviour that makes a
        never-repairing timeline match the static engine).
        """
        try:
            return route_of(f)
        except DegradedNetworkError:
            if epoch_idx + 1 >= len(epochs):
                raise
            parked[f] = t
            counters["flows_parked"] += 1
            return None

    def route_batch(fids: np.ndarray, t: float
                    ) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """Route a batch in order, parking the pairs the epoch cuts.

        Returns the mask of ``fids`` that enter the network (``None``
        when none parked — always, on a healthy run) and their routes.
        """
        if epoch_idx + 1 >= len(epochs):
            # no later epoch could reconnect a cut pair: nothing parks
            return None, [route_of(f) for f in fids.tolist()]
        parked_before = len(parked)
        routes = [route_or_park(f, t) for f in fids.tolist()]
        if len(parked) == parked_before:
            return None, routes
        keep = np.array([r is not None for r in routes], dtype=bool)
        return keep, [r for r in routes if r is not None]

    def inject(fid: int, t: float, rate: float | None) -> int:
        """Mark a flow ready at ``t``; zero-hop flows complete instantly.

        ``rate`` is the approx-fidelity inherited rate, which schedules
        the flow on the finish calendar, or ``None`` when a reallocation
        rates it before it is read.  A flow whose route is empty (its
        tasks share an endpoint) never reaches the allocator — an empty
        route has no bottleneck link, so max-min allocation is undefined
        for it.  It completes at its release time, which can cascade
        through chains of co-located dependents; the cascade is iterative
        to keep deep chains safe.  Returns the number of flows that
        entered the network.
        """
        nonlocal completed_count
        admitted = 0
        stack = [(fid, rate)]
        while stack:
            f, r = stack.pop()
            start[f] = t
            route = route_or_park(f, t)
            if route is None:
                continue  # parked; remains un-started until a repair
            if collector is not None:
                collector.flow_injected(float(flows.size[f]), route.shape[0])
            if route.shape[0]:
                active.add(f, route, rate=0.0 if r is None else r,
                           weight=float(weight_arr[f]) if weighted else 1.0)
                if r is not None:
                    calendar.push(np.array([f]), t, np.array([r]), events)
                admitted += 1
                continue
            completion[f] = t
            remaining[f] = 0.0
            completed_count += 1
            for succ in flows.successors(f).tolist():
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    stack.append((succ, r))
        return admitted

    def add_batch(fids: np.ndarray, route_list: list[np.ndarray],
                  rates: np.ndarray | None = None) -> int:
        """Admit routed flows through one ``add_many``; returns the count."""
        active.add_many(fids, route_list, rates=rates,
                        weights=weight_arr[fids] if weighted else None)
        if collector is not None:
            for f, r in zip(fids.tolist(), route_list):
                collector.flow_injected(float(flows.size[f]), r.shape[0])
        return fids.shape[0]

    succ_indptr = flows.succ_indptr
    succ_indices = flows.succ_indices

    def admit_batch(ready: np.ndarray, t: float) -> int:
        """Admit a batch of ready flows at ``t`` in one vectorised pass.

        All admitted flows start at ``t`` unrated (every caller
        reallocates before any rate is read).  Zero-hop flows fall
        back to the per-flow cascade.  Returns the number of flows that
        entered the network.
        """
        admitted = 0
        if adaptive:
            # per-flow admission: each selection must see the occupancy
            # left by the flows admitted just before it, which the
            # vectorised path below (route everything, then add_many)
            # would hide — an entire batch would pile onto one candidate
            for f in ready.tolist():
                admitted += inject(f, t, None)
            return admitted
        zero_hop = src_ep[ready] == dst_ep[ready]
        routed = ready[~zero_hop]
        if routed.shape[0]:
            start[routed] = t
            keep, route_list = route_batch(routed, t)
            admitted += add_batch(routed if keep is None else routed[keep],
                                  route_list)
        for f in ready[zero_hop].tolist():
            admitted += inject(f, t, None)
        return admitted

    def release_batch(done_ids: np.ndarray, t: float) -> int:
        """Release every successor of a completed batch (vectorised).

        Equivalent to the per-flow successor walk (all released flows
        start at ``t`` and exact mode reallocates before any rate is
        read), but the indegree updates and admissions are batched.
        Returns the number of flows admitted to the network.
        """
        succs = succ_indices[_slices_concat(succ_indptr[done_ids],
                                            succ_indptr[done_ids + 1])]
        if succs.shape[0] == 0:
            return 0
        uniq, cnt = np.unique(succs, return_counts=True)
        indegree[uniq] -= cnt
        ready = uniq[indegree[uniq] == 0]
        if ready.shape[0] == 0:
            return 0
        return admit_batch(ready, t)

    def release_inherit(done_ids: np.ndarray, done_rates: np.ndarray,
                        t: float) -> int:
        """Retire an approx-mode completion batch and release successors.

        Approx mode seeds each released flow with the rate of the
        predecessor whose decrement drove its indegree to zero — in the
        per-flow walk, the *last* occurrence of that successor across the
        batch's concatenated successor lists.  This vectorised path
        reproduces that pairing (stable sort, last occurrence per unique
        successor) and admits the released flows in the same trigger
        order, so the inherited rates are bitwise those of the walk.
        Zero-hop successors complete instantly and cascade decrements
        that interleave with the batch's own, so their presence falls
        back to the sequential walk.  A released flow whose pair the
        current epoch disconnects parks instead of entering the network.
        Returns the number of flows admitted to the network.
        """
        completion[done_ids] = t
        active.remove_many(done_ids)
        succs = succ_indices[_slices_concat(succ_indptr[done_ids],
                                            succ_indptr[done_ids + 1])]
        if succs.shape[0] == 0:
            return 0
        rep_rates = np.repeat(done_rates,
                              succ_indptr[done_ids + 1]
                              - succ_indptr[done_ids])
        if bool((src_ep[succs] == dst_ep[succs]).any()):
            released = 0
            for f, r in zip(succs.tolist(), rep_rates.tolist()):
                indegree[f] -= 1
                if indegree[f] == 0:
                    released += inject(f, t, r)
            return released
        uniq, cnt = np.unique(succs, return_counts=True)
        indegree[uniq] -= cnt
        ready_mask = indegree[uniq] == 0
        if not ready_mask.any():
            return 0
        order = np.argsort(succs, kind="stable")
        last_pos = order[np.cumsum(cnt) - 1]   # per unique: last occurrence
        trig = last_pos[ready_mask]
        seq = np.argsort(trig, kind="stable")  # back to trigger order
        ready = uniq[ready_mask][seq]
        inherit = rep_rates[trig[seq]]
        start[ready] = t
        keep, route_list = route_batch(ready, t)
        if keep is not None:
            ready, inherit = ready[keep], inherit[keep]
        admitted = add_batch(ready, route_list, rates=inherit)
        if admitted:
            calendar.push(ready, t, inherit, events)
        return admitted

    def apply_epoch(t: float) -> None:
        """Advance to the next epoch and recover the flows it cuts."""
        enter_epoch(epoch_idx + 1)
        counters["fault_events"] += 1

        # flows whose route the new fault state just cut (repairs disable
        # nothing, so a pure-repair epoch recovers parked flows only)
        affected: list[int] = []
        if isinstance(current, DegradedTopology) and active.size:
            mask = current.disabled_link_mask()
            affected = sorted(
                f for f, route in zip(active.flow_ids.tolist(),
                                      active.route_list())
                if mask[route].any())
        if affected:
            active.remove_many(np.asarray(affected, dtype=np.int64))
        if per_flow:
            # re-added after *all* removals, per flow so each selection
            # sees the occupancy the previous re-add left, in
            # ascending-id order for determinism
            for f in affected:
                route = route_or_park(f, t)
                if route is None:
                    continue
                active.add(f, route, rate=0.0,
                           weight=float(weight_arr[f]) if weighted else 1.0)
                counters["flows_rerouted"] += 1
                counters["rerouted_bits"] += float(remaining[f])
        else:
            # routes are occupancy-independent: reroute each cut flow in
            # the same ascending-id order, then re-admit the batch in one
            # vectorised pass
            fids: list[int] = []
            route_list: list[np.ndarray] = []
            for f in affected:
                route = route_or_park(f, t)
                if route is None:
                    continue
                fids.append(f)
                route_list.append(route)
                counters["flows_rerouted"] += 1
                counters["rerouted_bits"] += float(remaining[f])
            if fids:
                fid_arr = np.asarray(fids, dtype=np.int64)
                active.add_many(fid_arr, route_list,
                                weights=weight_arr[fid_arr] if weighted
                                else None)
        recovered: list[int] = []
        recovered_routes: list[np.ndarray] = []
        for f in sorted(parked):
            try:
                route = route_of(f)
            except DegradedNetworkError:
                continue  # still cut; retried at the next epoch
            if per_flow:
                active.add(f, route, rate=0.0,
                           weight=float(weight_arr[f]) if weighted else 1.0)
                if collector is not None:
                    collector.flow_injected(float(flows.size[f]),
                                            route.shape[0])
            else:
                recovered.append(f)
                recovered_routes.append(route)
            counters["flows_recovered"] += 1
            counters["recovery_seconds"] += t - parked.pop(f)
            counters["rerouted_bits"] += float(remaining[f])
        add_batch(np.asarray(recovered, dtype=np.int64), recovered_routes)
        if parked and epoch_idx + 1 >= len(epochs):
            pairs = [(int(src_ep[f]), int(dst_ep[f])) for f in sorted(parked)]
            raise DegradedNetworkError(
                pairs, faults=current.faults.describe()
                if isinstance(current, DegradedTopology) else None)

    roots = flows.roots()
    if roots.shape[0] == 0:
        raise SimulationError("no injectable flows: dependency graph has no roots")
    admit_batch(roots, 0.0)

    now = 0.0
    reallocations = 0
    churn = active.size   # everything new -> allocate on first iteration
    alloc_size = 0
    force_alloc = False   # set after every epoch transition
    loop_t0 = time.perf_counter() if collector is not None else 0.0

    while completed_count < n:
        if active.size == 0:
            if parked:
                # everything in flight is waiting on a repair: jump time
                # straight to the next fault event (route_or_park only
                # parks when a later epoch exists, so this terminates)
                now = max(now, next_change)
                apply_epoch(now)
                force_alloc = True
                events += 1
                if events > max_events:
                    raise SimulationError(f"exceeded {max_events} events")
                continue
            raise SimulationError(
                f"simulation stalled with {n - completed_count} flows blocked "
                "(cyclic or unsatisfiable dependencies)")
        if fidelity == "exact" or force_alloc \
                or churn >= max(1.0, CHURN_FRACTION * alloc_size):
            stats: dict | None = {} if collector is not None else None
            t0 = time.perf_counter() if collector is not None else 0.0
            if calendar is not None:
                calendar.sync(now)
            active.allocate(stats=stats)
            if collector is not None:
                assert stats is not None
                if stats.get("warm"):
                    reason = "warm"
                elif fidelity == "exact":
                    reason = "forced"
                elif force_alloc:
                    reason = "fault"
                else:
                    reason = "initial" if reallocations == 0 else "churn"
                collector.record_allocation(active.size, stats["iterations"],
                                            reason,
                                            time.perf_counter() - t0)
            if calendar is not None:
                calendar.rebuild(now, events)
            reallocations += 1
            churn = 0
            alloc_size = active.size
            force_alloc = False

        rates = active.rates
        if calendar is None:
            ids = active.flow_ids
            with np.errstate(divide="ignore", invalid="ignore"):
                # a zero or NaN rate yields a non-finite deadline, reported
                # as a typed error below — never as a numpy RuntimeWarning
                deadlines = remaining[ids] / rates
            dt = float(deadlines.min())
            if not np.isfinite(dt):
                raise _nonfinite_deadline(ids[~np.isfinite(deadlines)],
                                          fidelity, events)
        else:
            dt = calendar.next_finish() - now

        if next_change < now + dt:
            # the fault event fires before the earliest completion: charge
            # partial progress, jump to the boundary, recover and re-plan.
            # Completions exactly *at* the boundary are not special-cased —
            # they fall out of the next iteration with dt == 0.
            dt_fault = next_change - now
            if collector is not None:
                collector.account_event(active.route_list(), rates, dt_fault)
            if calendar is None:
                remaining[ids] -= rates * dt_fault
            else:
                calendar.sync(next_change)
            now = next_change
            apply_epoch(now)
            force_alloc = True
            events += 1
            if events > max_events:
                raise SimulationError(f"exceeded {max_events} events")
            continue

        # absolute+relative tie window: a pure relative one collapses to a
        # no-op when dt == 0 (simultaneous zero-size flows would then churn
        # one event each instead of batching)
        window = dt + max(dt, 1.0) * _TIE_EPS
        if collector is not None:
            collector.account_event(active.route_list(), rates, dt)
        if calendar is None:
            done_mask = deadlines <= window
            done_ids = ids[done_mask]    # materialised: removal moves slots
            done_rates = rates[done_mask]
            remaining[ids] -= rates * dt
        else:
            done_ids, done_rates = calendar.pop(now + window)
        now += dt
        remaining[done_ids] = 0.0
        released = 0
        if fidelity == "exact":
            completion[done_ids] = now
            if per_flow and not adaptive:
                # the historical per-event walk: retire and release flow
                # by flow.  Rates are identical to the batched path —
                # exact mode reallocates from the membership alone before
                # any rate is read — which the equivalence suite asserts
                # bitwise.  Adaptive routing keeps the batched-release
                # admission order either way: its route choices feed on
                # occupancy, and release_batch already admits adaptively
                # per flow.
                for fid in done_ids.tolist():
                    active.remove(fid)
                    for succ in flows.successors(fid).tolist():
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            released += inject(succ, now, None)
            else:
                # rates are reallocated before any released flow's rate
                # is read, so the completion batch processes vectorised
                active.remove_many(done_ids)
                released = release_batch(done_ids, now)
        elif per_flow:
            for fid, rate in zip(done_ids.tolist(), done_rates.tolist()):
                completion[fid] = now
                active.remove(fid)
                for succ in flows.successors(fid).tolist():
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        # rate is inherited by the release (approx mode)
                        released += inject(succ, now, rate)
        else:
            released = release_inherit(done_ids, done_rates, now)
        completed_count += done_ids.shape[0]
        events += 1
        if events > max_events:
            raise SimulationError(f"exceeded {max_events} events")
        churn += done_ids.shape[0] + released

    snap = None
    if collector is not None:
        collector.add_time("event_loop", time.perf_counter() - loop_t0)
        if timed:
            collector.record_transient(counters)
        snap = collector.snapshot(topology, now)
    return SimulationResult(
        makespan=now,
        completion_times=completion,
        start_times=start,
        fidelity=fidelity,
        num_flows=n,
        reallocations=reallocations,
        events=events,
        total_bits=flows.total_bits,
        metrics=snap,
        allocator_stats={"allocator": allocator,
                         "full_passes": active.full_passes,
                         "warm_fills": active.warm_fills,
                         "relevel_fills": active.relevel_fills},
        transient=dict(counters) if timed else None,
    )


def _simulate_rebuild(topology: Topology, flows: FlowSet,
                      placement: np.ndarray, fidelity: str,
                      max_events: int,
                      route_cache: dict | None,
                      collector: MetricsCollector | None,
                      routing: str = "deterministic"
                      ) -> SimulationResult:
    """The historical rebuild-per-event engine, kept verbatim.

    Every event re-materialises the active list (Python list filtering),
    re-concatenates all active routes into a fresh CSR, and hands it to
    the reference :func:`repro.engine.maxmin.allocate` to recompute
    progressive filling from zero state.  This is the baseline the
    incremental engine is benchmarked and verified against — both
    produce identical rates, makespans and event counts.
    """
    n = flows.num_flows
    capacities = topology.links.capacities
    remaining = flows.size.copy()
    indegree = flows.indegree.copy()
    completion = np.full(n, np.nan)
    start = np.full(n, np.nan)
    weighted = flows.is_weighted
    routes: list[np.ndarray | None] = [None] * n

    if route_cache is None:
        route_cache = {}
    src_ep = placement[flows.src]
    dst_ep = placement[flows.dst]
    # local occupancy mirror for adaptive selection (this engine has no
    # persistent ActiveSet to maintain one)
    occ = np.zeros(capacities.shape[0], dtype=np.int64) \
        if routing == "adaptive" else None
    route_of = _make_route_fn(
        topology, src_ep, dst_ep, route_cache, collector, routing,
        (lambda: occ) if occ is not None else None)

    completed_count = 0

    def inject(fid: int, t: float, rate: float,
               out_ids: list[int], out_rates: list[float]) -> None:
        nonlocal completed_count
        stack = [(fid, rate)]
        while stack:
            f, r = stack.pop()
            start[f] = t
            route = route_of(f)
            if collector is not None:
                collector.flow_injected(float(flows.size[f]), route.shape[0])
            if route.shape[0]:
                routes[f] = route
                if occ is not None:
                    occ[route] += 1
                out_ids.append(f)
                out_rates.append(r)
                continue
            completion[f] = t
            remaining[f] = 0.0
            completed_count += 1
            for succ in flows.successors(f).tolist():
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    stack.append((succ, r))

    roots = flows.roots().tolist()
    if not roots:
        raise SimulationError("no injectable flows: dependency graph has no roots")
    active: list[int] = []
    for fid in roots:
        inject(fid, 0.0, 0.0, active, [])
    rates = np.zeros(len(active), dtype=np.float64)  # aligned with `active`

    now = 0.0
    events = 0
    reallocations = 0
    churn = len(active)   # everything new -> allocate on first iteration
    alloc_size = 0
    loop_t0 = time.perf_counter() if collector is not None else 0.0

    while completed_count < n:
        if not active:
            raise SimulationError(
                f"simulation stalled with {n - completed_count} flows blocked "
                "(cyclic or unsatisfiable dependencies)")
        if fidelity == "exact" or churn >= max(1.0, CHURN_FRACTION * alloc_size):
            route_list = [routes[f] for f in active]
            entries = np.concatenate(route_list)
            ptr = np.zeros(len(active) + 1, dtype=np.int64)
            np.cumsum([r.shape[0] for r in route_list], out=ptr[1:])
            weights = flows.weight[np.asarray(active)] if weighted else None
            if collector is None:
                rates = allocate(entries, ptr, capacities, weights)
            else:
                stats: dict = {}
                t0 = time.perf_counter()
                rates = allocate(entries, ptr, capacities, weights,
                                 stats=stats)
                reason = "forced" if fidelity == "exact" else \
                    ("initial" if reallocations == 0 else "churn")
                collector.record_allocation(len(active), stats["iterations"],
                                            reason,
                                            time.perf_counter() - t0)
            reallocations += 1
            churn = 0
            alloc_size = len(active)

        ids = np.asarray(active, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a zero or NaN rate yields a non-finite deadline, reported as
            # a typed error below — never as a numpy RuntimeWarning
            deadlines = remaining[ids] / rates
        dt = float(deadlines.min())
        if not np.isfinite(dt):
            raise _nonfinite_deadline(ids[~np.isfinite(deadlines)],
                                      fidelity, events)
        done_mask = deadlines <= dt + max(dt, 1.0) * _TIE_EPS
        if collector is not None:
            collector.account_event([routes[f] for f in active], rates, dt)
        now += dt
        remaining[ids] -= rates * dt
        remaining[ids[done_mask]] = 0.0

        done_ids = ids[done_mask]
        done_rates = rates[done_mask]
        released: list[int] = []
        released_rates: list[float] = []
        for fid, rate in zip(done_ids.tolist(), done_rates.tolist()):
            completion[fid] = now
            if occ is not None:
                occ[routes[fid]] -= 1
            routes[fid] = None  # release the route reference
            for succ in flows.successors(fid).tolist():
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    # rate is inherited by the release (approx mode)
                    inject(succ, now, rate, released, released_rates)
        completed_count += int(done_mask.sum())
        events += 1
        if events > max_events:
            raise SimulationError(f"exceeded {max_events} events")

        keep = ~done_mask
        active = [f for f, k in zip(active, keep.tolist()) if k] + released
        rates = np.concatenate([rates[keep], np.asarray(released_rates)]) \
            if released else rates[keep]
        churn += len(done_ids) + len(released)

    snap = None
    if collector is not None:
        collector.add_time("event_loop", time.perf_counter() - loop_t0)
        snap = collector.snapshot(topology, now)
    return SimulationResult(
        makespan=now,
        completion_times=completion,
        start_times=start,
        fidelity=fidelity,
        num_flows=n,
        reallocations=reallocations,
        events=events,
        total_bits=flows.total_bits,
        metrics=snap,
        allocator_stats={"allocator": "rebuild",
                         "full_passes": reallocations,
                         "warm_fills": 0,
                         "relevel_fills": 0},
    )


def _check_placement(topology: Topology, flows: FlowSet,
                     placement: np.ndarray | None) -> np.ndarray:
    if placement is None:
        if flows.num_tasks > topology.num_endpoints:
            raise SimulationError(
                f"workload has {flows.num_tasks} tasks but topology only "
                f"{topology.num_endpoints} endpoints; supply a placement")
        return np.arange(flows.num_tasks, dtype=np.int64)
    placement = np.asarray(placement, dtype=np.int64)
    if placement.shape != (flows.num_tasks,):
        raise SimulationError(f"placement must map all {flows.num_tasks} tasks")
    if placement.size == 0:
        # a zero-task workload's placement is vacuously valid; numpy's
        # min()/max() on a zero-size array would raise an opaque ValueError
        return placement
    if placement.min() < 0 or placement.max() >= topology.num_endpoints:
        raise SimulationError("placement maps tasks outside the topology")
    return placement
