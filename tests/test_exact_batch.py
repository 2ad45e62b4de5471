"""Equivalence regressions for the exact-fidelity batched completion path.

PR 10 extends the warm-fill machinery to *near-identical* allocation
states: an exact-mode completion batch retires flows (and admits their
chained releases on identical routes), and the allocator resumes the
recorded water-level fill above the churn's threshold instead of paying
a full progressive-filling pass per event
(:meth:`repro.engine.active.ActiveSet._relevel_fill`).

The path is specified as *bitwise-exact*: every rate, makespan and
completion time must match what the full pass — and therefore the
historical per-event walk and the rebuild-per-event baseline — produces.
This suite pins that claim across workloads, topology families, healthy
and transient timelines, with the event loop's ``relevel`` and
``per_flow`` switches toggled independently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import simulate
from repro.engine.active import ActiveSet
from repro.engine.simulator import _simulate
from repro.topology import FaultTimeline
from repro.workloads import build as build_workload
from tests.difftest import assert_results_identical

_WORKLOADS = ("allreduce", "permutation", "unstructuredhr")
_FAMILIES = ("small_torus", "small_fattree", "small_ghc", "small_nesttree",
             "small_nestghc")


def _run_matrix(topology, flows, **kwargs):
    """Run one exact cell under every switch combination; assert identical.

    Returns the default (relevel on, batched) result.
    """
    results = []
    for relevel in (True, False):
        for per_flow in (False, True):
            results.append((f"relevel={relevel},per_flow={per_flow}",
                            _simulate(topology, flows, fidelity="exact",
                                      relevel=relevel, per_flow=per_flow,
                                      **kwargs)))
    base_label, base = results[0]
    for label, other in results[1:]:
        assert_results_identical(base, other, base_label, label)
    return base


class TestExactBatchEquivalence:
    """3 workloads x 5 families, healthy: all switch paths bitwise-equal."""

    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_healthy(self, request, family, workload):
        topo = request.getfixturevalue(family)
        flows = build_workload(workload, topo.num_endpoints, seed=0).build()
        result = _run_matrix(topo, flows)
        assert np.isfinite(result.completion_times).all()

    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_rebuild_baseline(self, small_nesttree, workload):
        """The relevel engine still matches the historical rebuild."""
        flows = build_workload(workload, small_nesttree.num_endpoints,
                               seed=0).build()
        inc = _simulate(small_nesttree, flows, fidelity="exact",
                        relevel=True)
        reb = simulate(small_nesttree, flows, fidelity="exact",
                       allocator="rebuild")
        assert_results_identical(inc, reb, "incremental", "rebuild")

    def test_relevel_fires_on_independent_flows(self, small_nesttree):
        """Pure-removal churn — the state the warm path never matched —
        now resumes the recorded fill instead of running a full pass."""
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        result = _simulate(small_nesttree, flows, fidelity="exact",
                           relevel=True)
        stats = result.allocator_stats
        assert stats["relevel_fills"] > 0
        assert stats["relevel_fills"] + stats["warm_fills"] \
            > stats["full_passes"]

    def test_knob_disables_relevel(self, small_nesttree):
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        result = _simulate(small_nesttree, flows, fidelity="exact",
                           relevel=False)
        assert result.allocator_stats["relevel_fills"] == 0
        assert result.allocator_stats["full_passes"] == result.reallocations


class TestTransientExactBatch:
    """Fault boundaries take the same path: switch matrix stays bitwise."""

    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_transient_matrix(self, small_nesttree, workload):
        flows = build_workload(workload, small_nesttree.num_endpoints,
                               seed=0).build()
        base = simulate(small_nesttree, flows)
        tl = FaultTimeline.sample(small_nesttree, cables=4, seed=3,
                                  horizon=base.makespan * 0.8,
                                  mttr=base.makespan * 0.25)
        result = _run_matrix(small_nesttree, flows, fault_timeline=tl)
        assert result.transient is not None
        assert result.transient["fault_events"] > 0


class TestRelevelUnit:
    """Direct ActiveSet-level behaviour of the suffix-resume path."""

    def _filled_set(self, topo, n_flows=24, seed=0):
        caps = topo.links.capacities
        rng = np.random.default_rng(seed)
        n = topo.num_endpoints
        active = ActiveSet(caps)
        cache: dict = {}
        for fid in range(n_flows):
            s = int(rng.integers(n))
            d = int(rng.integers(n))
            while d == s:
                d = int(rng.integers(n))
            route = cache.get((s, d))
            if route is None:
                route = np.asarray(topo.route(s, d), dtype=np.int64)
                cache[(s, d)] = route
            active.add(fid, route)
        active.allocate()
        return active

    @staticmethod
    def _eligible_fid(active) -> int:
        """A flow whose lone removal passes every relevel guard.

        White-box mirror of :meth:`ActiveSet._relevel_fill`'s gating: the
        flow's bottleneck must sit above the first recorded water level
        (``k > 0``) and the suffix replay must be cheaper than a full
        pass.  Suffix-resume is *worth* taking only for such flows, so
        the unit tests target one directly.
        """
        m = active._m
        seq = active._level_seq
        for slot in range(m):
            route = active._routes[slot]
            tmin = float(active._levels[route].min())
            k = int(np.searchsorted(seq, tmin, side="left"))
            if k == 0:
                continue
            parts = np.flatnonzero(active._rates[:m] >= tmin)
            plinks = np.concatenate(
                [active._routes[s] for s in parts if s != slot] + [route])
            suffix = np.unique(np.concatenate((plinks, route)))
            cost = int(active._csr_len[suffix].sum()) + k * suffix.shape[0]
            if cost <= active._live_nnz:
                return int(active._flow_ids[slot])
        pytest.skip("harness produced no relevel-eligible flow")

    def test_net_removal_relevels_bitwise(self, small_nesttree):
        active = self._filled_set(small_nesttree)
        cold = self._filled_set(small_nesttree)
        cold._relevel_enabled = False
        fid = self._eligible_fid(active)
        active.remove(fid)
        cold.remove(fid)
        got = active.allocate().copy()
        want = cold.allocate().copy()
        # compare per flow id: slot compaction orders the two sets apart
        ga = dict(zip(active.flow_ids.tolist(), got.tolist()))
        gw = dict(zip(cold.flow_ids.tolist(), want.tolist()))
        assert ga == gw
        assert active.relevel_fills == 1 and cold.relevel_fills == 0

    def test_net_addition_falls_back(self, small_nesttree):
        active = self._filled_set(small_nesttree)
        route = np.asarray(small_nesttree.route(0, 5), dtype=np.int64)
        active.remove(2)
        active.add(100, route)  # distinct route object: a net addition
        active.allocate()
        assert active.relevel_fills == 0
        assert active.full_passes == 2

    def test_matched_plus_removed_relevels(self, small_nesttree):
        """A matched (identical-route) swap plus a net removal is the
        exact completion batch's shape and takes the relevel path."""
        active = self._filled_set(small_nesttree)
        fid = self._eligible_fid(active)
        swap = 5 if fid != 5 else 6
        route = active._routes[int(active._slot_arr[swap])]
        active.remove(fid)
        active.remove(swap)
        active.add(200, route)  # same interned array: matched
        active.allocate()
        assert active.relevel_fills == 1
        # the matched admission inherited its twin's exact rate
        rate = float(active.rates[active.flow_ids == 200][0])
        assert rate > 0.0 and np.isfinite(rate)

    def test_weighted_never_relevels(self, small_fattree):
        caps = small_fattree.links.capacities
        active = ActiveSet(caps, weighted=True)
        route = np.asarray(small_fattree.route(0, 9), dtype=np.int64)
        other = np.asarray(small_fattree.route(1, 8), dtype=np.int64)
        for fid, r in ((0, route), (1, other), (2, route)):
            active.add(fid, r, weight=1.5)
        active.allocate()
        active.remove(2)
        active.allocate()
        assert active.relevel_fills == 0 and active.full_passes == 2
