"""``fig4-sweep``: the Figure 4 design-space sweep as CI and the docs run it.

``DesignSpaceExplorer(512, fidelity="approx", seed=--seed).run(
["allreduce", "nearneighbors", "unstructuredhr"], jobs=2, checkpoint=...,
metrics=...)``: 78 cells over 26 topologies, cold topology and route caches
on every run.  Every run's checkpoint must hold 78 records whose makespans
and events match a serial (``jobs=1``) reference, computed once per seed
and source tree, and its metrics stream must validate with exactly one
record per cell.  Times are normalised by calibration samples
(:mod:`perfbench.calibrate`) taken before and after every cold start and
sweep; a cell's time takes the factor of its sweep.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

from perfbench import calibrate
from perfbench.common import (Context, Outcome, child_env, load_json,
                              median, peak_rss_mb, percentile, save_json,
                              source_hash)

WORKLOADS = ("allreduce", "nearneighbors", "unstructuredhr")
ENDPOINTS = 512
JOBS = 2
CELLS = 78
SETUP_ROUNDS = 3

#: Set-up is the cold start ``repro fig4`` pays before its first cell: a
#: fresh interpreter importing the sweep stack and planning the sweep.
#: (This process imported everything long ago, and planning alone takes
#: well under a millisecond, too little to compare between runs.)
_COLD_START = ("from repro.core.explorer import DesignSpaceExplorer; "
               "import repro.sweep; "
               "DesignSpaceExplorer({endpoints}, fidelity='approx', "
               "seed={seed}).plan({workloads!r})")


def cold_start(ctx: Context) -> None:
    code = _COLD_START.format(endpoints=ENDPOINTS, seed=ctx.seed,
                              workloads=WORKLOADS)
    subprocess.run([sys.executable, "-c", code], env=child_env(ctx),
                   cwd=ctx.root, check=True)


def setup(seed: int):
    from repro.core.explorer import DesignSpaceExplorer

    explorer = DesignSpaceExplorer(ENDPOINTS, fidelity="approx", seed=seed)
    return explorer, explorer.plan(WORKLOADS)


def run_once(explorer, out: Path, tag: str):
    """One sweep; returns ``(wall_s, checkpoint, metrics_path)``."""
    ckpt, metrics = out / f"{tag}.ckpt.jsonl", out / f"{tag}.metrics.jsonl"
    t0 = time.perf_counter()
    explorer.run(WORKLOADS, jobs=JOBS, checkpoint=str(ckpt),
                 metrics=str(metrics))
    return time.perf_counter() - t0, ckpt, metrics


def load_records(plan, ckpt: Path) -> dict[str, dict]:
    from repro.sweep.checkpoint import SweepCheckpoint

    return SweepCheckpoint(ckpt, plan.meta()).load()


def reference(ctx: Context) -> dict[str, list]:
    """Serial per-cell ``[makespan, events]`` by cell key.

    Metrics stay off here: they never change a cell's results, and the
    collector would add about a third to the reference's time."""
    path = ctx.refs / (f"fig4-sweep-seed{ctx.seed}-"
                       f"{source_hash(ctx.root)}.json")
    ref = load_json(path)
    if ref is None:
        explorer, plan = setup(ctx.seed)
        ckpt = ctx.out / "reference.ckpt.jsonl"
        explorer.run(WORKLOADS, jobs=1, checkpoint=str(ckpt))
        ref = {k: [r["makespan"], r["events"]]
               for k, r in load_records(plan, ckpt).items()
               if "error" not in r}
        save_json(path, ref)
    return ref


def check_sweep(out: Outcome, label: str, plan, ckpt: Path, metrics: Path,
                ref: dict) -> list[dict]:
    """Count failed cells and record problems; returns the good records."""
    from repro.obs import validate_metrics_file

    records = load_records(plan, ckpt)
    good = []
    for cell in plan.cells:
        key = cell.key()
        rec = records.get(key)
        if rec is None or "error" in rec:
            out.failed += 1
            out.problems.append(f"{label}: cell {key} missing or failed")
            continue
        want = ref.get(key)
        if want is None or rec["events"] != want[1] \
                or abs(rec["makespan"] - want[0]) > 1e-12 * abs(want[0]):
            out.failed += 1
            out.problems.append(f"{label}: cell {key} differs from the "
                                f"serial reference {want}")
            continue
        good.append(rec)
    out.check(len(plan.cells) == CELLS and len(records) == CELLS,
              f"{label}: {len(records)} checkpoint records for "
              f"{len(plan.cells)} cells, expected {CELLS}")
    try:
        n = validate_metrics_file(metrics)
        out.check(n == CELLS, f"{label}: {n} metrics records, "
                              f"expected {CELLS}")
    except Exception as exc:  # any validation error fails the run
        out.problems.append(f"{label}: metrics stream invalid: {exc}")
    return good


def measure(ctx: Context) -> Outcome:
    out = Outcome()
    setups, cals = [], [calibrate.sample()]
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        cold_start(ctx)
        setups.append((t0, time.perf_counter()))
        cals.append(calibrate.sample())
    explorer, plan = setup(ctx.seed)

    # a sweep is long next to --seconds, so start another only if it is
    # likely to end by the deadline; the run then takes about --seconds
    runs, spans = [], []
    deadline = time.perf_counter() + ctx.seconds
    while not runs or (time.perf_counter() + 0.5 * median(
            [r[0] for r in runs]) < deadline):
        t0 = time.perf_counter()
        runs.append(run_once(explorer, ctx.out, f"sweep{len(runs)}"))
        spans.append((t0, time.perf_counter()))
        cals.append(calibrate.sample())
    rss = peak_rss_mb()

    ref = reference(ctx)
    walls = [r[0] for r in runs]
    norm_walls = calibrate.normalise(spans, cals)
    cell_s = []
    for i, (wall, ckpt, metrics) in enumerate(runs):
        good = check_sweep(out, f"sweep {i}", plan, ckpt, metrics, ref)
        scale = norm_walls[i] / wall
        cell_s += [r["wall_seconds"] * scale for r in good]
    out.attempted = CELLS * len(runs)
    out.metrics = {
        "setup_s": (median(calibrate.normalise(setups, cals)), "s"),
        "wall_s": (median(norm_walls), "s"),
        "latency_p50_ms": (median(cell_s) * 1e3 if cell_s else 0.0, "ms"),
        "latency_p90_ms": (percentile(cell_s, 90) * 1e3 if cell_s
                           else 0.0, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    out.details = {"raw_setup_s": [e - s for s, e in setups],
                   "raw_wall_s": walls, "cals": cals,
                   "cell_samples": len(cell_s),
                   "cell_s_sum": sum(cell_s) / max(1, len(runs))}
    return out


def traced(ctx: Context, tracer) -> tuple[Outcome, object]:
    """One untraced sweep, then one traced set-up plus sweep."""
    out = Outcome()
    explorer, plan = setup(ctx.seed)
    untraced_s, ckpt0, metrics0 = run_once(explorer, ctx.out, "untraced")

    tracer.install()
    try:
        with tracer.span("bench.fig4-sweep") as root:
            with tracer.span("bench.setup"):
                explorer, plan = setup(ctx.seed)
            with tracer.span("bench.op") as op:
                _, ckpt, metrics = run_once(explorer, ctx.out, "traced")
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    op_s = next(s[4] - s[3] for s in spans if s[0] == op.sid)

    ref = reference(ctx)
    check_sweep(out, "untraced", plan, ckpt0, metrics0, ref)
    good = check_sweep(out, "traced", plan, ckpt, metrics, ref)
    out.attempted = 2 * CELLS
    cell_s_sum = sum(r["wall_seconds"] for r in good)
    run_sweep_s = sum(s[4] - s[3] for s in spans
                      if s[2] == "sweep.run_sweep")
    extras = {
        "sweep.cell_s_sum": cell_s_sum,
        "sweep.parallel_efficiency": (cell_s_sum / (JOBS * run_sweep_s)
                                      if run_sweep_s else 0.0),
    }
    out.details = {"untraced_op_s": untraced_s, "traced_op_s": op_s}
    return out, (spans, root.sid, op_s / untraced_s - 1.0, extras)
