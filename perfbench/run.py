"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cell-approx --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced, prints the span tree and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
output check prints ``correct: false`` with no metrics and exits 1.
Everything the run writes goes under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("cell-approx", "cell-exact", "fig4-sweep", "service-mix")


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an error, so the workloads' ``finally`` blocks
    # stop the servers and workers they started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(root / "src"), str(here.parent)]
    if sys.path[2:3] == [str(here)]:
        del sys.path[2]  # keep perfbench's modules package-qualified

    from perfbench.common import Context, guarded_files, host_info
    from perfbench.layers import UNITS, layer_metrics
    from perfbench.spans import Tracer, attribute, span_tree

    base = here / "out"
    out = base / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                  f"{os.getpid()}")
    refs = base / "refs"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    refs.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(out)
    tempfile.tempdir = str(out)

    ctx = Context(root=root, out=out, refs=refs, workload=args.workload,
                  seed=args.seed, seconds=args.seconds)
    before = guarded_files(root)
    host = host_info()
    print("host " + json.dumps(host, sort_keys=True), flush=True)

    if args.workload.startswith("cell-"):
        from perfbench import cells as mod
    elif args.workload == "fig4-sweep":
        from perfbench import sweep as mod
    else:
        from perfbench import service as mod

    started = time.time()
    if args.trace:
        outcome, (spans, root_sid, overhead, extras) = \
            mod.traced(ctx, Tracer(out))
        attr = attribute(spans, root_sid)
        lines, wall, unattributed = span_tree(spans, root_sid, attr)
        tree = "\n".join(lines)
        print(f"span tree ({args.workload}, seed {args.seed}, traced wall "
              f"{wall:.4f} s, tracing overhead {overhead:+.1%})")
        print(tree, flush=True)
        (out / "span_tree.txt").write_text(tree + "\n")
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        values = layer_metrics(spans, attr, wall_s=wall,
                               unattributed_s=unattributed,
                               overhead=overhead, extras=extras)
        metrics = {k: (v, UNITS[k]) for k, v in values.items()}
    else:
        outcome = mod.measure(ctx)
        metrics = outcome.metrics

    after = guarded_files(root)
    changed = sorted(k for k in before.keys() | after.keys()
                     if before.get(k) != after.get(k))
    outcome.check(not changed, f"committed records changed: {changed}")
    correct = not outcome.problems and outcome.attempted > 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "started": started, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()} if correct else {},
        "details": outcome.details,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": record["metrics"]}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
