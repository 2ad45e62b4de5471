"""Validate every committed benchmark record in one pass.

CI used to carry one copy-pasted heredoc per ``BENCH_*.json`` file; a
bench that gained a file silently gained *no* validation.  This script
globs ``benchmarks/results/BENCH_*.json``, dispatches each file to its
registered validator, and **fails on any BENCH file without one** — so
adding a bench record means registering its schema here, in the same PR.

Usage::

    PYTHONPATH=src python benchmarks/check_schemas.py [RESULTS_DIR]
    PYTHONPATH=src python benchmarks/check_schemas.py --service-store DIR

The first form validates the records under ``RESULTS_DIR`` (default: the
committed ``benchmarks/results``) — CI's smoke run points it at the
scratch directory its benches wrote to (``REPRO_BENCH_RESULTS_DIR``).
The second form validates every record of a ``repro serve`` result
store directory against the service schema
(:func:`repro.service.store.validate_store_record`) — the CI
``service-smoke`` job points it at the store its round trip populated.

The layout contract (documented in EXPERIMENTS.md): every machine-
readable bench record lives at ``benchmarks/results/BENCH_<name>.json``,
carries a ``schema`` field of the form ``repro-bench-<name>-v<N>``
(legacy records without one are pinned per-validator), and is
regenerated — never hand-edited — by ``benchmarks/bench_<name>.py``.
"""

from __future__ import annotations

import glob
import json
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")


def check_engine(doc: dict) -> str:
    assert doc["schema"] == "repro-bench-engine-v1", doc.get("schema")
    assert doc["fidelity"] == "exact"
    cells = doc["cells"]
    assert set(cells) >= {"allreduce", "unstructuredhr", "permutation"}
    for name, cell in cells.items():
        for field in ("rebuild_seconds", "incremental_seconds", "speedup",
                      "makespan_s", "events", "full_passes", "warm_fills"):
            assert field in cell, (name, field)
        assert cell["speedup"] > 0 and cell["events"] > 0, name
    detail = f"{len(cells)} cells"
    paper = doc.get("paper_scale")
    if paper is not None:
        assert paper["endpoints"] >= 65536, paper["endpoints"]
        assert paper["cells"], "paper_scale block has no cells"
        for name, cell in paper["cells"].items():
            for field in ("fidelity", "allocator", "wall_seconds",
                          "makespan_s", "events", "flows"):
                assert field in cell, (name, field)
            assert cell["flows"] > paper["endpoints"], name
        detail += (f" + paper_scale@{paper['endpoints']} "
                   f"({', '.join(sorted(paper['cells']))})")
    exact = doc.get("exact_batch")
    if exact is not None:
        assert exact["endpoints"] >= 64, exact.get("endpoints")
        assert exact["cells"], "exact_batch block has no cells"
        for name, cell in exact["cells"].items():
            for field in ("relevel_off_seconds", "relevel_on_seconds",
                          "speedup", "makespan_s", "events",
                          "full_passes", "warm_fills", "relevel_fills"):
                assert field in cell, (name, field)
            assert cell["speedup"] > 0 and cell["events"] > 0, name
        assert any(c["relevel_fills"] > 0
                   for c in exact["cells"].values()), \
            "exact_batch block never took the relevel path"
        detail += (f" + exact_batch@{exact['endpoints']} "
                   f"({', '.join(sorted(exact['cells']))})")
    ladder = doc.get("approx_ladder")
    if ladder is not None:
        assert ladder["fidelity"] == "approx", ladder.get("fidelity")
        sizes = ladder["endpoints"]
        assert len(sizes) >= 2 and sizes == sorted(sizes), sizes
        assert [int(n) for n in ladder["rungs"]] == sizes, \
            "approx_ladder rungs do not match its endpoints"
        for n, rung in ladder["rungs"].items():
            for field in ("flows", "rounds", "wall_seconds", "walls",
                          "events", "reallocations", "us_per_event",
                          "makespan_s", "full_passes", "relevel_fills"):
                assert field in rung, (n, field)
            assert len(rung["walls"]) == rung["rounds"] >= 1, n
            assert 0 < rung["reallocations"] < rung["events"], n
        for field in ("wall_exponent", "us_per_event_exponent"):
            assert isinstance(ladder[field], float), field
        detail += (f" + approx_ladder@{'/'.join(map(str, sizes))} "
                   f"(wall ~ N^{ladder['wall_exponent']:.2f})")
    return detail


def check_routing(doc: dict) -> str:
    assert doc["schema"] == "repro-bench-routing-v1", doc.get("schema")
    assert doc["policies"] == ["deterministic", "ecmp", "adaptive"]
    cells = doc["cells"]
    assert set(cells) == {"allreduce", "unstructuredhr"}, set(cells)
    for name, policies in cells.items():
        for policy, cell in policies.items():
            for field in ("makespan_s", "events", "wall_seconds",
                          "tier_peak_utilisation", "tier_spread"):
                assert field in cell, (name, policy, field)
            assert "uplinks" in cell["tier_spread"], (name, policy)
    return f"topology {doc['topology']}"


def check_resilience(doc: dict) -> str:
    assert doc["schema"] == "repro-bench-resilience-v1", doc.get("schema")
    cells = doc["cells"]
    assert set(cells) == {"healthy", "empty_timeline", "transient"}
    for name, cell in cells.items():
        for field in ("makespan_s", "events", "wall_seconds"):
            assert field in cell, (name, field)
    assert cells["empty_timeline"]["makespan_s"] == \
        cells["healthy"]["makespan_s"]
    counters = cells["transient"]["counters"]
    for field in ("fault_events", "flows_rerouted", "flows_parked",
                  "flows_recovered", "rerouted_bits", "recovery_seconds"):
        assert field in counters, field
    assert counters["fault_events"] > 0
    return f"{doc['cables']} cables on {doc['topology']}"


def check_observability(doc: dict) -> str:
    # legacy record: predates the schema field
    assert doc.get("bench", "observability") == "observability"
    for field in ("endpoints", "workload", "topology", "fidelity",
                  "metrics_off_seconds", "metrics_on_seconds"):
        assert field in doc, field
    assert doc["metrics_on_seconds"] > 0
    return f"{doc['workload']} @ {doc['endpoints']}"


#: BENCH_<name>.json -> validator.  A record file without an entry here
#: fails the run — register the schema when adding the bench.
def check_service(doc: dict) -> str:
    assert doc["schema"] == "repro-bench-service-v1", doc.get("schema")
    latency = doc["latency"]
    for field in ("cold_s", "store_hit_s", "dedup_concurrent_worst_s",
                  "dedup_concurrent_best_s", "clients"):
        assert field in latency, field
    assert 0 < latency["store_hit_s"] < latency["cold_s"], latency
    dedup = doc["dedup"]
    for field in ("requests", "simulated", "deduped", "store_hits",
                  "rejected", "batches"):
        assert field in dedup, field
    # the service's reason to exist: far fewer simulations than requests
    assert dedup["simulated"] < dedup["requests"], dedup
    thr = doc["throughput"]
    for field in ("cells", "capacity", "wall_s", "cells_per_s",
                  "rejections"):
        assert field in thr, field
    assert thr["capacity"] < thr["cells"], thr  # queue actually bounded
    return (f"{dedup['simulated']} sims for {dedup['requests']} requests, "
            f"{thr['cells_per_s']:.1f} cells/s")


VALIDATORS = {
    "BENCH_engine.json": check_engine,
    "BENCH_routing.json": check_routing,
    "BENCH_resilience.json": check_resilience,
    "BENCH_observability.json": check_observability,
    "BENCH_service.json": check_service,
}


def check_service_store_dir(root: str) -> int:
    """Validate every record in a ``repro serve`` store directory."""
    from repro.service.store import validate_store_record

    paths = sorted(glob.glob(os.path.join(root, "??", "*.json")))
    if not paths:
        print(f"no service store records under {root}", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        name = os.path.basename(path)
        try:
            doc = json.loads(open(path).read())
            validate_store_record(doc)
            assert doc["digest"] == name[:-len(".json")], \
                f"record filed under the wrong digest ({doc['digest'][:12]})"
        except Exception as exc:
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        print(f"ok   {name[:12]}...: {doc['record']['workload']} on "
              f"{doc['record']['topology']}")
    if failures:
        print(f"{failures} of {len(paths)} store records failed validation",
              file=sys.stderr)
        return 1
    print(f"validated {len(paths)} service store records")
    return 0


def main() -> int:
    if sys.argv[1:2] == ["--service-store"]:
        if len(sys.argv) != 3:
            print("usage: check_schemas.py --service-store DIR",
                  file=sys.stderr)
            return 2
        return check_service_store_dir(sys.argv[2])
    if len(sys.argv) > 2 or sys.argv[1:2] and sys.argv[1].startswith("-"):
        print("usage: check_schemas.py [RESULTS_DIR]", file=sys.stderr)
        return 2
    results_dir = sys.argv[1] if len(sys.argv) == 2 else RESULTS_DIR
    paths = sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json")))
    if not paths:
        print(f"no BENCH_*.json records under {results_dir}",
              file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        name = os.path.basename(path)
        validator = VALIDATORS.get(name)
        if validator is None:
            print(f"FAIL {name}: no registered validator "
                  "(register it in benchmarks/check_schemas.py)")
            failures += 1
            continue
        try:
            detail = validator(json.loads(open(path).read()))
        except Exception as exc:
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        print(f"ok   {name}: {detail}")
    if failures:
        print(f"{failures} of {len(paths)} bench records failed validation",
              file=sys.stderr)
        return 1
    print(f"validated {len(paths)} bench records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
