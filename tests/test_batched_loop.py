"""Equivalence regression: batched vs per-flow event loop.

The scaling work vectorised the event loop's completion handling — same-
instant completions retire through one ``remove_many``, released
successors admit through one ``add_many`` with batch-inherited rates,
and fault-boundary recovery reroutes in bulk.  The historical per-flow
walk is still reachable via the event loop's ``per_flow=True`` switch
(and is what the adaptive policy always uses), and this suite pins the
two paths to
bitwise-identical :class:`~repro.engine.results.SimulationResult`s:
3 workloads x 2 fidelities x 3 routing policies, healthy and transient.

These are regression tests for the *loop*, not the allocator — the
kernel backends have their own differential suite (``-m kernel_diff``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import simulate
from repro.engine.simulator import _simulate
from repro.topology import FaultTimeline
from repro.workloads import build as build_workload
from tests.difftest import assert_results_identical

_WORKLOADS = ("allreduce", "permutation", "unstructuredhr")
_POLICIES = ("deterministic", "ecmp", "adaptive")


def _run_both(topology, flows, **kwargs):
    """Run one cell batched and per-flow; assert identical."""
    batched = _simulate(topology, flows, per_flow=False, **kwargs)
    per_flow = _simulate(topology, flows, per_flow=True, **kwargs)
    assert_results_identical(batched, per_flow, "batched", "per-flow")
    return batched


class TestHealthyLoop:
    @pytest.mark.parametrize("workload", _WORKLOADS)
    @pytest.mark.parametrize("fidelity", ("exact", "approx"))
    @pytest.mark.parametrize("routing", _POLICIES)
    def test_batched_matches_per_flow(self, small_nesttree, workload,
                                      fidelity, routing):
        flows = build_workload(workload, small_nesttree.num_endpoints,
                               seed=0).build()
        result = _run_both(small_nesttree, flows, fidelity=fidelity,
                           routing=routing)
        assert result.transient is None
        assert np.isfinite(result.completion_times).all()

    def test_weighted_workload(self, small_fattree):
        flows = build_workload("mapreduce", small_fattree.num_endpoints,
                               seed=3).build()
        for fidelity in ("exact", "approx"):
            _run_both(small_fattree, flows, fidelity=fidelity)

    def test_oversubscribed_placement_zero_hop(self, small_torus):
        """Co-located tasks exercise the zero-hop sequential fallback."""
        tasks = small_torus.num_endpoints * 2
        flows = build_workload("allreduce", tasks, seed=0).build()
        placement = np.arange(tasks) % small_torus.num_endpoints
        for fidelity in ("exact", "approx"):
            _run_both(small_torus, flows, placement=placement,
                      fidelity=fidelity)


class TestTransientLoop:
    @pytest.mark.parametrize("fidelity", ("exact", "approx"))
    @pytest.mark.parametrize("routing", _POLICIES)
    def test_fault_boundaries_match(self, small_nesttree, fidelity,
                                    routing):
        flows = build_workload("allreduce", small_nesttree.num_endpoints,
                               seed=0).build()
        base = simulate(small_nesttree, flows)
        tl = FaultTimeline.sample(small_nesttree, cables=4, seed=3,
                                  horizon=base.makespan * 0.8,
                                  mttr=base.makespan * 0.25)
        result = _run_both(small_nesttree, flows, fidelity=fidelity,
                           routing=routing, fault_timeline=tl)
        assert result.transient is not None
        assert result.transient["fault_events"] > 0

    def test_parked_flow_recovery_matches(self, small_nesttree):
        """A timeline that disconnects pairs parks and later recovers."""
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        base = simulate(small_nesttree, flows)
        # many cables out at once maximises the chance of parked pairs;
        # sample() keeps the network's fate deterministic per seed
        tl = FaultTimeline.sample(small_nesttree, cables=8, seed=11,
                                  horizon=base.makespan * 0.6,
                                  mttr=base.makespan * 0.2)
        for fidelity in ("exact", "approx"):
            _run_both(small_nesttree, flows, fidelity=fidelity,
                      fault_timeline=tl)
