"""Differential tests for the engine's fill kernels (``-m kernel_diff``).

The incremental allocator's fills (:mod:`repro.engine.kernels.numpy_fill`:
the full pass, warm fill and suffix-resumed relevel) must reproduce an
independent oracle.  Every test here compares against one:

* end-to-end simulations against the historical rebuild engine
  (``allocator="rebuild"``) across every engine-supported topology
  family, both fidelities, all three routing policies and a weighted
  workload; the fault-timeline case, which the rebuild engine does not
  support, against the per-flow event loop instead;
* a Hypothesis property pushing randomized churn through
  :class:`~repro.engine.active.ActiveSet`, comparing rates after every
  allocation against the reference :func:`repro.engine.maxmin.allocate`;
* a Hypothesis property for the relevel's near-identical churn,
  comparing every allocation bitwise against a twin set with the
  relevel disabled (full passes only).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import simulate
from repro.engine.active import ActiveSet
from repro.engine.simulator import _simulate
from repro.workloads import build as build_workload
from tests.difftest import (assert_matches_rebuild, assert_results_identical,
                            reference_rates)

pytestmark = pytest.mark.kernel_diff

_FAMILIES = ("small_torus", "small_fattree", "small_ghc", "small_nesttree",
             "small_nestghc")

#: Hypothesis cannot draw pytest fixtures, so the property test builds the
#: same five families itself, once per session.
_topo_cache: dict[str, object] = {}


def _family_topo(family: str):
    topo = _topo_cache.get(family)
    if topo is None:
        from repro.topology import (FatTreeTopology, GHCTopology, NestGHC,
                                    NestTree, TorusTopology)
        topo = {
            "small_torus": lambda: TorusTopology((4, 4, 2)),
            "small_fattree": lambda: FatTreeTopology((4, 4, 2)),
            "small_ghc": lambda: GHCTopology((4, 4), ports_per_switch=4),
            "small_nesttree": lambda: NestTree(64, 2, 2),
            "small_nestghc": lambda: NestGHC(64, 2, 4, ports_per_switch=4,
                                             ghc_dims=2),
        }[family]()
        _topo_cache[family] = topo
    return topo


class TestSimulationDiff:
    """End-to-end: the incremental fills against an independent engine."""

    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("fidelity", ("exact", "approx"))
    def test_allreduce_all_families(self, request, family, fidelity):
        topo = request.getfixturevalue(family)
        flows = build_workload("allreduce", topo.num_endpoints,
                               seed=0).build()
        assert_matches_rebuild(topo, flows, fidelity=fidelity)

    @pytest.mark.parametrize("routing",
                             ("deterministic", "ecmp", "adaptive"))
    def test_unstructured_all_policies(self, small_nesttree, routing):
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        assert_matches_rebuild(small_nesttree, flows, fidelity="approx",
                                routing=routing)

    def test_weighted_flows(self, small_fattree):
        # no stock workload carries weights: give mapreduce's flows
        # seeded ones so the fills take their weighted branches
        flows = build_workload("mapreduce", small_fattree.num_endpoints,
                               seed=2).build()
        rng = np.random.default_rng(2)
        flows = replace(flows, weight=rng.uniform(0.5, 3.0, flows.num_flows))
        for fidelity in ("exact", "approx"):
            assert_matches_rebuild(small_fattree, flows, fidelity=fidelity)

    def test_transient_timeline(self, small_nesttree):
        from repro.topology import FaultTimeline
        flows = build_workload("allreduce", small_nesttree.num_endpoints,
                               seed=0).build()
        base = simulate(small_nesttree, flows)
        tl = FaultTimeline.sample(small_nesttree, cables=4, seed=3,
                                  horizon=base.makespan * 0.8,
                                  mttr=base.makespan * 0.25)
        batched = _simulate(small_nesttree, flows, fidelity="approx",
                            fault_timeline=tl, per_flow=False)
        per_flow = _simulate(small_nesttree, flows, fidelity="approx",
                             fault_timeline=tl, per_flow=True)
        assert_results_identical(batched, per_flow, "batched", "per-flow")
        assert batched.transient["fault_events"] > 0


class TestChurnProperty:
    """Hypothesis: random churn keeps the fills on the reference."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           steps=st.integers(20, 120),
           family=st.sampled_from(_FAMILIES),
           weighted=st.booleans())
    def test_random_churn_bitwise(self, seed, steps, family, weighted):
        topo = _family_topo(family)
        caps = topo.links.capacities
        rng = np.random.default_rng(seed)
        n = topo.num_endpoints

        route_cache: dict = {}
        alive: list[int] = []
        next_fid = 0
        active = ActiveSet(caps, weighted=weighted)
        for i in range(steps):
            if alive and rng.random() < 0.45:
                idx = int(rng.integers(len(alive)))
                active.remove(alive.pop(idx))
            else:
                s = int(rng.integers(n))
                d = int(rng.integers(n))
                while d == s:
                    d = int(rng.integers(n))
                w = float(rng.uniform(0.5, 4.0)) if weighted else 1.0
                route = route_cache.get((s, d))
                if route is None:
                    route = np.asarray(topo.route(s, d), dtype=np.int64)
                    route_cache[(s, d)] = route
                active.add(next_fid, route, weight=w)
                alive.append(next_fid)
                next_fid += 1
            if active.size and i % 3 == 0:
                got = active.allocate().copy()
                want = reference_rates(active, caps, weighted)
                # warm fills may diverge from a cold reference allocation
                # only within float tolerance
                np.testing.assert_allclose(
                    got, want, rtol=1e-12 if not weighted else 1e-9)


class TestRelevelProperty:
    """Hypothesis: near-identical churn — the suffix-resume relevel's
    territory — stays bitwise on the full pass.

    Each script batch-adds flows from an interned route pool, then runs
    rounds of removal bursts with optional *matched* re-adds (the same
    route array object, so the multiset of route keys never gains a
    member).  That is exactly the state the relevel path claims to
    resume bitwise; a twin ActiveSet with the path disabled provides the
    full-pass oracle at every allocation.
    """

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           n_flows=st.integers(12, 48),
           rounds=st.integers(3, 10),
           family=st.sampled_from(_FAMILIES))
    def test_near_identical_churn_bitwise(self, seed, n_flows, rounds,
                                          family):
        topo = _family_topo(family)
        caps = topo.links.capacities
        rng = np.random.default_rng(seed)
        n = topo.num_endpoints

        route_pool: dict = {}

        def draw_route():
            s = int(rng.integers(n))
            d = int(rng.integers(n))
            while d == s:
                d = int(rng.integers(n))
            route = route_pool.get((s, d))
            if route is None:
                route = np.asarray(topo.route(s, d), dtype=np.int64)
                route_pool[(s, d)] = route
            return route

        # one churn script: seed adds, then removal bursts with matched
        # re-adds (never more re-adds than removals of that same route)
        script: list[tuple] = [("add", fid, draw_route())
                               for fid in range(n_flows)]
        alive = {fid: route for _, fid, route in script}
        next_fid = n_flows
        script.append(("allocate",))
        for _ in range(rounds):
            burst = min(len(alive) - 1, int(rng.integers(1, 5)))
            if burst <= 0:
                break
            removed: list = []
            for fid in rng.choice(sorted(alive), size=burst,
                                  replace=False).tolist():
                script.append(("remove", int(fid)))
                removed.append(alive.pop(int(fid)))
            for route in removed:
                if rng.random() < 0.4:   # matched re-admission
                    script.append(("add", next_fid, route))
                    alive[next_fid] = route
                    next_fid += 1
            script.append(("allocate",))

        def replay(enabled: bool) -> list[np.ndarray]:
            active = ActiveSet(caps, relevel=enabled)
            log: list[np.ndarray] = []
            for op in script:
                if op[0] == "add":
                    active.add(op[1], op[2])
                elif op[0] == "remove":
                    active.remove(op[1])
                elif active.size:
                    rates = active.allocate()
                    # slot order depends only on the script, so rates
                    # line up positionally between the twin replays
                    log.append(np.column_stack(
                        (active.flow_ids, rates)).copy())
            return log

        fast = replay(True)
        slow = replay(False)
        assert len(fast) == len(slow)
        for i, (a, b) in enumerate(zip(fast, slow)):
            np.testing.assert_array_equal(
                a, b, err_msg=f"relevel diverges from full pass at "
                              f"allocation {i}")

    def test_property_exercises_relevel(self, small_nesttree):
        """Meta-check: the property's churn shape actually takes the
        suffix-resume path (guards against a vacuous suite), and that
        run matches its relevel-disabled twin bitwise."""
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        on = _simulate(small_nesttree, flows, fidelity="exact",
                       relevel=True)
        off = _simulate(small_nesttree, flows, fidelity="exact",
                        relevel=False)
        assert_results_identical(on, off, "relevel", "full passes")
        assert on.allocator_stats["relevel_fills"] > 0
        assert off.allocator_stats["relevel_fills"] == 0
