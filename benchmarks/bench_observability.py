"""Bench: observability-layer overhead and tier accounting.

Times the same (workload, topology) cell with the metrics collector off
and on, checks the instrumented run conserves bits, and writes the
measured overhead plus the per-tier utilisation summary to
``benchmarks/results/BENCH_observability.json`` — the machine-readable
record the docs quote overhead numbers from.

The collector-off run is the one the <3% acceptance bound applies to: it
must execute the same instructions as a build without ``repro.obs``
(every instrumentation site is gated on ``collector is not None``), so
its time here is the baseline the instrumented run is compared against.
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import BENCH_ENDPOINTS, RESULTS_DIR
from repro.obs import MetricsCollector, validate_snapshot
from repro.topology import build as build_topology
from repro.workloads import build as build_workload

#: Timed repetitions per mode; the minimum is reported (least-noise).
_ROUNDS = 3


def _cell():
    topo = build_topology("nesttree", BENCH_ENDPOINTS, t=2, u=4)
    flows = build_workload("allreduce", BENCH_ENDPOINTS, seed=0).build()
    return topo, flows


def _timed(topo, flows, route_cache, *, instrument: bool):
    from repro.engine import simulate

    best = float("inf")
    last = None
    for _ in range(_ROUNDS):
        collector = MetricsCollector(topo.links.num_links) \
            if instrument else None
        t0 = time.perf_counter()
        result = simulate(topo, flows, fidelity="approx",
                          route_cache=route_cache, metrics=collector)
        best = min(best, time.perf_counter() - t0)
        last = result
    return best, last


@pytest.mark.benchmark(group="observability")
def test_observability_overhead(benchmark):
    """Measure collector-on vs collector-off and persist the record."""
    topo, flows = _cell()
    route_cache: dict = {}

    def run():
        # warm the route cache outside the comparison so both modes pay
        # identical route-construction cost
        off_s, off = _timed(topo, flows, route_cache, instrument=False)
        on_s, on = _timed(topo, flows, route_cache, instrument=True)
        return off_s, off, on_s, on

    off_s, off, on_s, on = benchmark.pedantic(run, rounds=1, iterations=1)

    snap = on.metrics
    validate_snapshot(snap)
    assert off.metrics is None
    assert on.makespan == off.makespan  # instrumentation never steers

    # conservation: tier bits partition the delivered link bits, which in
    # turn equal the independently tracked routed bits
    tier_bits = sum(t["delivered_bits"] for t in snap["tiers"].values())
    assert tier_bits == pytest.approx(snap["delivered_link_bits"], rel=1e-9)
    assert snap["delivered_link_bits"] == pytest.approx(
        snap["routed_link_bits"], rel=1e-6)

    overhead = on_s / off_s - 1.0
    record = {
        "bench": "observability",
        "endpoints": BENCH_ENDPOINTS,
        "workload": "allreduce",
        "topology": "nesttree(2,4)",
        "fidelity": "approx",
        "rounds": _ROUNDS,
        "metrics_off_seconds": off_s,
        "metrics_on_seconds": on_s,
        "collector_overhead_fraction": overhead,
        "makespan_s": on.makespan,
        "events": on.events,
        "tiers": {
            name: {
                "mean_utilisation": tier["mean_utilisation"],
                "occupancy": tier["occupancy"],
                "delivered_share": (tier["delivered_bits"]
                                    / snap["delivered_link_bits"]
                                    if snap["delivered_link_bits"] else 0.0),
            }
            for name, tier in snap["tiers"].items()
        },
        "timers_s": snap["timers_s"],
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / "BENCH_observability.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    assert out.exists()
