"""``cell-approx`` and ``cell-exact``: one engine cell, simulated again and
again on warm caches.

Inputs: ``unstructuredhr`` (seeded by ``--seed``) on ``nesttree(2,4)``.
Set-up builds the topology and the flow set and warms the route cache
through :func:`repro.engine.static.analyze`; the timed region is
``simulate()`` alone, with metrics off.  A calibration sample
(:mod:`perfbench.calibrate`) precedes and follows every timed set-up and
``simulate()``, and the reported times are normalised by the samples
nearest them.  Every result is compared with a
reference from ``allocator="rebuild"`` on the same inputs, computed once
per seed and source tree and kept under ``perfbench/out/refs``.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import calibrate
from perfbench.common import (Context, Outcome, load_json, median,
                              peak_rss_mb, percentile, save_json,
                              source_hash)

#: workload -> (fidelity, endpoints).  The exact cell is smaller because
#: its rebuild reference re-allocates from scratch at every event
#: (1,024 endpoints: ~13 s; 2,048: ~95 s on a 2-core host).
CELLS = {"cell-approx": ("approx", 4096), "cell-exact": ("exact", 1024)}
TOPOLOGY = ("nesttree", {"t": 2, "u": 4})
WORKLOAD = "unstructuredhr"
SETUP_ROUNDS = 3
MIN_REPEATS = 3


def setup(endpoints: int, seed: int):
    from repro import build_topology, build_workload
    from repro.engine.static import analyze

    family, params = TOPOLOGY
    topo = build_topology(family, endpoints, **params)
    flows = build_workload(WORKLOAD, endpoints, seed=seed).build()
    route_cache: dict = {}
    analyze(topo, flows, route_cache=route_cache)
    return topo, flows, route_cache


def _summary(result) -> dict:
    return {"makespan": float(result.makespan), "events": int(result.events),
            "completion": result.completion_times.tolist()}


def reference(ctx: Context, fidelity: str, endpoints: int, topo, flows,
              route_cache) -> dict:
    from repro import simulate

    path = ctx.refs / (f"{ctx.workload}-n{endpoints}-seed{ctx.seed}-"
                       f"{source_hash(ctx.root)}.json")
    ref = load_json(path)
    if ref is None:
        ref = _summary(simulate(topo, flows, fidelity=fidelity,
                                route_cache=route_cache,
                                allocator="rebuild"))
        save_json(path, ref)
    return ref


def check_against(out: Outcome, label: str, result, ref: dict) -> None:
    """The suite's incremental-vs-rebuild tolerances."""
    out.check(result.events == ref["events"],
              f"{label}: events {result.events} != reference "
              f"{ref['events']}")
    out.check(abs(result.makespan - ref["makespan"])
              <= 1e-12 * abs(ref["makespan"]),
              f"{label}: makespan {result.makespan!r} != reference "
              f"{ref['makespan']!r}")
    ref_ct = np.asarray(ref["completion"], dtype=float)
    same_shape = ref_ct.shape == result.completion_times.shape
    out.check(same_shape and np.allclose(result.completion_times, ref_ct,
                                         rtol=1e-9, atol=0.0),
              f"{label}: completion times differ from the reference")


def measure(ctx: Context) -> Outcome:
    from repro import simulate

    fidelity, endpoints = CELLS[ctx.workload]
    out = Outcome()
    setups, cals = [], [calibrate.sample()]
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        topo, flows, route_cache = setup(endpoints, ctx.seed)
        setups.append((t0, time.perf_counter()))
        cals.append(calibrate.sample())

    walls, results = [], []
    deadline = time.perf_counter() + ctx.seconds
    while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        results.append(simulate(topo, flows, fidelity=fidelity,
                                route_cache=route_cache))
        walls.append((t0, time.perf_counter()))
        cals.append(calibrate.sample())
    rss = peak_rss_mb()
    norm_setups = calibrate.normalise(setups, cals)
    norm_walls = calibrate.normalise(walls, cals)

    out.attempted = len(results)
    ref = reference(ctx, fidelity, endpoints, topo, flows, route_cache)
    for i, result in enumerate(results):
        before = len(out.problems)
        check_against(out, f"repeat {i}", result, ref)
        out.failed += len(out.problems) > before
    out.metrics = {
        "setup_s": (median(norm_setups), "s"),
        "wall_s": (median(norm_walls), "s"),
        "latency_p50_ms": (median(norm_walls) * 1e3, "ms"),
        "latency_p90_ms": (percentile(norm_walls, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.details = {"fidelity": fidelity, "endpoints": endpoints,
                   "flows": int(flows.num_flows),
                   "raw_setup_s": [e - s for s, e in setups],
                   "raw_wall_s": [e - s for s, e in walls],
                   "cals": cals, "makespan": ref["makespan"],
                   "events": ref["events"]}
    return out


def traced(ctx: Context, tracer) -> tuple[Outcome, object]:
    """Untraced simulates, then one traced set-up plus simulate.

    ``simulate`` is looked up on the package at call time, so the call
    goes through the tracer's wrapper once it is installed."""
    import repro

    fidelity, endpoints = CELLS[ctx.workload]
    out = Outcome()
    topo, flows, route_cache = setup(endpoints, ctx.seed)
    for _ in range(2):  # the second call is the one compared
        t0 = time.perf_counter()
        plain = repro.simulate(topo, flows, fidelity=fidelity,
                               route_cache=route_cache)
        untraced_s = time.perf_counter() - t0

    tracer.install()
    try:
        with tracer.span(f"bench.{ctx.workload}") as root:
            with tracer.span("bench.setup"):
                topo, flows, route_cache = setup(endpoints, ctx.seed)
            with tracer.span("bench.op") as op:
                result = repro.simulate(topo, flows, fidelity=fidelity,
                                        route_cache=route_cache)
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    op_s = next(s[4] - s[3] for s in spans if s[0] == op.sid)

    out.attempted = 2
    ref = reference(ctx, fidelity, endpoints, topo, flows, route_cache)
    check_against(out, "untraced", plain, ref)
    check_against(out, "traced", result, ref)
    out.failed = min(2, len(out.problems))
    out.details = {"untraced_op_s": untraced_s, "traced_op_s": op_s}
    return out, (spans, root.sid, op_s / untraced_s - 1.0, {})
