"""Regression suite for the approx-fidelity finish calendar.

Approx fidelity changes a live flow's rate only at reallocations, so the
event loop keeps each flow's absolute finish time in a calendar sorted at
every reallocation plus a pending buffer of the flows admitted since,
instead of scanning every live flow's ``remaining / rate`` at every event
(``repro.engine.simulator._FinishCalendar``).  This suite pins:

* the calendar engine against the historical rebuild engine, which still
  runs the per-event scan, on every small topology family, with identity
  and oversubscribed (zero-hop cascading) placements;
* the tie window: finish times closer than the window, and zero-size
  flows at ``dt == 0``, batch into exactly the rebuild engine's events;
* the typed non-finite-deadline error for zero rates;
* fault boundaries: lazily tracked progress is brought up to date before
  in-flight flows are recovered, and the batched and per-flow completion
  walks stay bitwise-equal across them.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.engine import simulate
from repro.engine.active import ActiveSet
from repro.engine.flows import FlowBuilder
from repro.engine.simulator import _FinishCalendar, _simulate
from repro.errors import SimulationError
from repro.topology import FaultEvent, FaultTimeline, TorusTopology
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import AllReduce, Permutation, UnstructuredApp
from repro.workloads import build as build_workload
from tests.difftest import assert_results_identical

_WORKLOADS = {
    "allreduce": lambda n: AllReduce(n).build(),
    "unstructured": lambda n: UnstructuredApp(n, messages_per_task=3,
                                              seed=7).build(),
    "permutation": lambda n: Permutation(n, repetitions=3).build(),
}


@pytest.fixture(scope="module")
def line() -> TorusTopology:
    """A 1-D mesh 0-1-2-3 (no wraparound ambiguity)."""
    return TorusTopology((4,), wraparound=False)


def _zero_sized(flows, fids):
    """``flows`` with the given flows' sizes set to zero (the builder
    refuses them; the engine completes them at their release)."""
    size = flows.size.copy()
    size[fids] = 0.0
    return replace(flows, size=size)


def _assert_matches_rebuild(topo, flows, placement=None):
    """The suite's incremental-vs-rebuild tolerances, approx fidelity."""
    inc = simulate(topo, flows, placement=placement, fidelity="approx")
    reb = simulate(topo, flows, placement=placement, fidelity="approx",
                   allocator="rebuild")
    assert inc.events == reb.events
    assert inc.reallocations == reb.reallocations
    assert inc.makespan == pytest.approx(reb.makespan, rel=1e-12)
    np.testing.assert_allclose(inc.completion_times, reb.completion_times,
                               rtol=1e-9)
    return inc


class TestMatchesRebuild:
    @pytest.mark.parametrize("workload", sorted(_WORKLOADS))
    def test_identity_placement(self, all_small_topologies, workload):
        for topo in all_small_topologies:
            flows = _WORKLOADS[workload](topo.num_endpoints)
            result = _assert_matches_rebuild(topo, flows)
            assert np.isfinite(result.completion_times).all()

    @pytest.mark.parametrize("workload", sorted(_WORKLOADS))
    def test_oversubscribed_placement(self, all_small_topologies,
                                      workload):
        """Two tasks per endpoint, with every 7th flow's destination task
        moved onto its source's endpoint: the flows between co-located
        tasks are zero-hop, complete the instant they are released and
        cascade their releases (with inherited rates) into the middle of
        a completion batch."""
        for topo in all_small_topologies:
            tasks = 2 * topo.num_endpoints
            flows = _WORKLOADS[workload](tasks)
            placement = np.arange(tasks) % topo.num_endpoints
            for s, d in zip(flows.src[::7], flows.dst[::7]):
                placement[d] = placement[s]
            zero_hop = placement[flows.src] == placement[flows.dst]
            assert zero_hop.any()
            result = _assert_matches_rebuild(topo, flows, placement)
            assert (result.completion_times[zero_hop]
                    == result.start_times[zero_hop]).all()

    def test_events_between_reallocations(self, small_nesttree):
        """The calendar actually serves events without reallocating."""
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        result = _assert_matches_rebuild(small_nesttree, flows)
        assert result.reallocations < result.events


class TestTieWindow:
    def _flows(self):
        """Hand-built event sequence on the 0-1-2-3 line.

        400 long background flows on the 2->3 link hold the churn bound
        above 20, so after the first allocation every event is served
        from the calendar and its pending buffer:

        1. t=0: two zero-size roots (``dt == 0``);
        2. t=2: ``x0``/``x1`` (CAP/2 each) finish 2e-12 s apart, inside
           the window;
        3. t=2: their zero-size successors ``z0``/``z1``, released at the
           rate they inherit, finish at ``dt == 0``;
        4. t=3: ``y0`` and ``y1``, released at the inherited CAP/2,
           finish 2e-10 s apart, inside the window;
        5. ``y2`` finishes 8e-9 s after ``y0``, outside it;
        6. the background.
        """
        b = FlowBuilder(4)
        roots = [b.add_flow(1, 0, 1.0), b.add_flow(3, 2, 1.0)]
        x = [b.add_flow(0, 1, CAP), b.add_flow(0, 1, CAP * (1 + 1e-12))]
        z = [b.add_flow(0, 1, 1.0, after=[x[0]]),
             b.add_flow(0, 1, 1.0, after=[x[1]])]
        y = [b.add_flow(0, 1, CAP / 2, after=z),
             b.add_flow(0, 1, CAP / 2 * (1 + 2e-10), after=[z[0]]),
             b.add_flow(0, 1, CAP / 2 * (1 + 8e-9), after=[z[1]])]
        for _ in range(400):
            b.add_flow(2, 3, 1000 * CAP)
        return _zero_sized(b.build(), roots + z), roots, x, z, y

    def test_batches_match_rebuild(self, line):
        flows, roots, x, z, y = self._flows()
        result = _assert_matches_rebuild(line, flows)
        ct = result.completion_times
        assert result.events == 6
        assert (ct[roots] == 0.0).all()
        assert ct[x[0]] == ct[x[1]] == pytest.approx(2.0)
        assert ct[z[0]] == ct[z[1]] == ct[x[0]]
        assert ct[y[0]] == ct[y[1]] == pytest.approx(3.0)
        assert ct[y[2]] == pytest.approx(3.0 + 8e-9, abs=1e-12)
        assert result.reallocations == 1

    def test_batches_match_per_flow_walk(self, line):
        flows = self._flows()[0]
        batched = _simulate(line, flows, fidelity="approx", per_flow=False)
        per_flow = _simulate(line, flows, fidelity="approx", per_flow=True)
        assert_results_identical(batched, per_flow, "batched", "per-flow")


class TestZeroRate:
    @staticmethod
    def _zero_allocate(self, stats=None):
        if stats is not None:
            stats["iterations"] = 0
            stats["warm"] = False
        self._rates[:self._m] = 0.0
        return self._rates[:self._m]

    @pytest.mark.parametrize("size", (CAP, 0.0))
    def test_zero_rate_at_reallocation(self, line, monkeypatch, size):
        """A zero rate (inf deadline) or a drained flow at zero rate
        (0/0) raises the typed error, with no numpy RuntimeWarning."""
        b = FlowBuilder(4)
        b.add_flow(0, 1, CAP)
        b.add_flow(2, 3, CAP)
        flows = b.build() if size else _zero_sized(b.build(), [0])
        monkeypatch.setattr(ActiveSet, "allocate", self._zero_allocate)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SimulationError, match="non-finite"):
                simulate(line, flows, fidelity="approx")

    def test_zero_rate_at_admission(self, line):
        """An admission at a zero inherited rate is refused when it is
        scheduled, not left to stall the calendar."""
        active = ActiveSet(line.links.capacities)
        remaining = np.array([CAP, CAP])
        calendar = _FinishCalendar(active, remaining)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SimulationError, match=r"flow\(s\) \[1\]"):
                calendar.push(np.array([0, 1]), 0.5,
                              np.array([CAP, 0.0]), event=3)


class TestFaultBoundaries:
    @pytest.mark.parametrize("fidelity", ("exact", "approx"))
    def test_progress_charged_at_boundary(self, line, fidelity):
        """Hand-computed recovery: a parked flow resumes with the bits it
        had left at the cut, and an unaffected flow keeps its progress
        through both boundaries."""
        b = FlowBuilder(4)
        cut_flow = b.add_flow(0, 3, CAP)       # crosses 1->2: parks
        bystander = b.add_flow(3, 2, 2 * CAP)  # never touches 1->2
        flows = b.build()
        cut = frozenset({line.links.id_of(1, 2), line.links.id_of(2, 1)})
        tl = FaultTimeline([FaultEvent(0.25, fail_links=cut),
                            FaultEvent(0.5, repair_links=cut)])
        for per_flow in (False, True):
            result = _simulate(line, flows, fidelity=fidelity,
                               fault_timeline=tl, per_flow=per_flow)
            ct = result.completion_times
            assert ct[cut_flow] == pytest.approx(0.5 + 0.75)
            assert ct[bystander] == pytest.approx(2.0)
            assert result.transient["flows_parked"] == 1
            assert result.transient["flows_recovered"] == 1
            assert result.transient["rerouted_bits"] == \
                pytest.approx(0.75 * CAP)
            assert result.transient["recovery_seconds"] == \
                pytest.approx(0.25)

    @pytest.mark.parametrize("workload", ("permutation", "unstructuredhr"))
    @pytest.mark.parametrize("routing", ("deterministic", "ecmp"))
    def test_batched_matches_per_flow(self, small_nesttree, workload,
                                      routing):
        flows = build_workload(workload, small_nesttree.num_endpoints,
                               seed=0).build()
        base = simulate(small_nesttree, flows, fidelity="approx")
        tl = FaultTimeline.sample(small_nesttree, cables=4, seed=3,
                                  horizon=base.makespan * 0.8,
                                  mttr=base.makespan * 0.25)
        batched = _simulate(small_nesttree, flows, fidelity="approx",
                            routing=routing, fault_timeline=tl,
                            per_flow=False)
        per_flow = _simulate(small_nesttree, flows, fidelity="approx",
                             routing=routing, fault_timeline=tl,
                             per_flow=True)
        assert_results_identical(batched, per_flow, "batched", "per-flow")
        assert batched.transient["fault_events"] > 0
        assert batched.transient["flows_rerouted"] > 0
        assert 0.0 < batched.transient["rerouted_bits"] < flows.total_bits
