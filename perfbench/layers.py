"""Per-layer metrics of a traced run, derived from its spans.

``PER_LAYER`` is the single list of per-layer metric names, units and
directions; ``BENCHMARK.json`` and ``perfbench/README.md`` mirror it.
Every traced run reports every metric: a layer a workload does not
exercise reads 0.
"""

from __future__ import annotations

from perfbench.spans import layer_totals

#: (name, unit, better)
PER_LAYER = (
    ("topology.build_s", "s", "lower"),
    ("topology.builds", "count", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("routing.route_calls", "count", "lower"),
    ("routing.route_s", "s", "lower"),
    ("routing.cache_hit_ratio", "ratio", "higher"),
    ("engine.simulate_s", "s", "lower"),
    ("engine.allocate_s", "s", "lower"),
    ("engine.allocate_calls", "count", "lower"),
    ("engine.admit_s", "s", "lower"),
    ("engine.release_s", "s", "lower"),
    ("engine.loop_self_s", "s", "lower"),
    ("engine.host_us_per_event", "us", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.reallocations", "count", "lower"),
    ("engine.full_passes", "count", "lower"),
    ("engine.relevel_fills", "count", "lower"),
    ("engine.warm_fills", "count", "higher"),
    ("engine.fill_reuse_ratio", "ratio", "higher"),
    ("obs.account_event_s", "s", "lower"),
    ("obs.snapshot_s", "s", "lower"),
    ("obs.stream_write_s", "s", "lower"),
    ("sweep.run_sweep_s", "s", "lower"),
    ("sweep.cell_s_sum", "s", "lower"),
    ("sweep.parallel_efficiency", "ratio", "higher"),
    ("sweep.checkpoint_append_s", "s", "lower"),
    ("service.requests", "count", "higher"),
    ("service.submit_http_ms_p50", "ms", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.queue_wait_ms_p90", "ms", "lower"),
    ("service.batch_cells_mean", "count", "higher"),
    ("service.batch_s", "s", "lower"),
    ("service.store_get_ms", "ms", "lower"),
    ("service.store_put_ms", "ms", "lower"),
    ("service.dedup_ratio", "ratio", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.generator_lag_ms_p90", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(spans: list[tuple], attr: dict, *, wall_s: float,
                  unattributed_s: float, overhead: float,
                  extras: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the spans plus workload extras."""
    tot = layer_totals(spans, attr)

    def busy(*names):
        return sum(tot[n]["busy_s"] for n in names if n in tot)

    def calls(*names):
        return sum(tot[n]["calls"] for n in names if n in tot)

    counts = {"flows": 0, "events": 0, "reallocations": 0,
              "full_passes": 0, "relevel_fills": 0, "warm_fills": 0}
    for s in spans:
        if s[2] == "engine.simulate" and s[7]:
            for key in counts:
                counts[key] += s[7][key]
    route_calls = calls("routing.route", "routing.route_candidates")
    simulate_s = busy("engine.simulate")
    m = {
        "topology.build_s": busy("topology.build"),
        "topology.builds": calls("topology.build"),
        "workloads.build_s": busy("workloads.build"),
        "routing.route_calls": route_calls,
        "routing.route_s": busy("routing.route",
                                "routing.route_candidates"),
        "routing.cache_hit_ratio": (1.0 - route_calls / counts["flows"]
                                    if counts["flows"] else 0.0),
        "engine.simulate_s": simulate_s,
        "engine.allocate_s": busy("engine.ActiveSet.allocate"),
        "engine.allocate_calls": calls("engine.ActiveSet.allocate"),
        "engine.admit_s": busy("engine.ActiveSet.add",
                               "engine.ActiveSet.add_many"),
        "engine.release_s": busy("engine.ActiveSet.remove",
                                 "engine.ActiveSet.remove_many"),
        "engine.loop_self_s": (tot["engine.simulate"]["self_s"]
                               if "engine.simulate" in tot else 0.0),
        "engine.host_us_per_event": (simulate_s / counts["events"] * 1e6
                                     if counts["events"] else 0.0),
        "engine.events": counts["events"],
        "engine.reallocations": counts["reallocations"],
        "engine.full_passes": counts["full_passes"],
        "engine.relevel_fills": counts["relevel_fills"],
        "engine.warm_fills": counts["warm_fills"],
        "engine.fill_reuse_ratio": (
            (counts["warm_fills"] + counts["relevel_fills"])
            / counts["reallocations"] if counts["reallocations"] else 0.0),
        "obs.account_event_s": busy("obs.MetricsCollector.account_event"),
        "obs.snapshot_s": busy("obs.MetricsCollector.snapshot"),
        "obs.stream_write_s": busy("obs.MetricsStream.write_cell"),
        "sweep.run_sweep_s": busy("sweep.run_sweep"),
        "sweep.checkpoint_append_s": busy("sweep.SweepCheckpoint.append"),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": unattributed_s,
        "trace.overhead_ratio": overhead,
        "trace.spans": len(spans),
    }
    m.update(extras)
    return {name: float(m.get(name, 0.0)) for name, _, _ in PER_LAYER}
