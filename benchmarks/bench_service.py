"""Bench: simulation-service latency and throughput.

Measures the three request classes a long-lived service distinguishes —
**cold** (novel cell, pays one simulation), **store hit** (answered from
the content-addressed store, no simulation), and **deduped concurrent**
(N clients racing on one novel cell share a single simulation) — plus
submission throughput through the bounded queue, and writes the record
to ``benchmarks/results/BENCH_service.json``.

The counters double as correctness assertions: across the whole bench
exactly one simulation runs per unique fingerprint, however many
requests arrive.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import BENCH_ENDPOINTS, RESULTS_DIR
from repro.service import Broker, ResultStore, ServiceClient, ServiceServer

#: Clients racing on the dedup cell.
_CLIENTS = 8
#: Unique cells pushed through the bounded queue for the throughput leg.
_THROUGHPUT_CELLS = 12
#: Queue capacity for the throughput leg — deliberately smaller than the
#: cell count so the bench exercises 429 backpressure and client retry.
_CAPACITY = 4


def _cell(seed: int = 0) -> dict:
    # distinct fault seeds give arbitrarily many unique fingerprints on
    # one topology, so the sweep inside each batch stays cheap
    return {"workload": "reduce", "tasks": 16,
            "topology": {"family": "fattree", "params": {}},
            "faults": {"cables": 1, "uplinks": 0, "seed": seed}}


class _ServerThread:
    """A live service in a daemon thread with its own event loop."""

    def __init__(self, store_dir, **broker_kw):
        self.store_dir = store_dir
        self.broker_kw = dict({"endpoints": BENCH_ENDPOINTS}, **broker_kw)
        self._ready: queue.Queue = queue.Queue()
        self._stop = None
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            broker = Broker(ResultStore(self.store_dir), **self.broker_kw)
            server = ServiceServer(broker)
            host, port = await server.start()
            self._ready.put((host, port))
            await self._stop.wait()
            await server.close()

        asyncio.run(main())

    def __enter__(self) -> ServiceClient:
        self._thread.start()
        host, port = self._ready.get(timeout=60)
        return ServiceClient(host, port)

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)


def _timed_submit(client: ServiceClient, cells: list[dict],
                  tenant: str = "bench") -> float:
    t0 = time.perf_counter()
    status, doc = client.submit(cells, tenant=tenant, wait=True)
    elapsed = time.perf_counter() - t0
    assert status == 200, doc
    assert all(r["status"] == "done" for r in doc["results"])
    return elapsed


def _throughput(client: ServiceClient) -> dict:
    """Push unique cells through a smaller-than-demand queue."""
    digests: list[str] = []
    rejections = 0
    t0 = time.perf_counter()
    for seed in range(100, 100 + _THROUGHPUT_CELLS):
        while True:
            status, doc = client.submit([_cell(seed)], wait=False)
            if status == 200:
                digests.append(doc["digests"][0])
                break
            assert status == 429, doc
            assert doc["capacity"] == _CAPACITY
            rejections += 1
            time.sleep(0.05)  # typed backpressure: back off and retry
    for digest in digests:
        while True:
            status, doc = client.result(digest)
            if status == 200:
                assert doc["status"] == "done"
                break
            assert status == 202
            time.sleep(0.02)
    wall = time.perf_counter() - t0
    return {"cells": _THROUGHPUT_CELLS, "capacity": _CAPACITY,
            "wall_s": wall, "cells_per_s": _THROUGHPUT_CELLS / wall,
            "rejections": rejections}


@pytest.mark.benchmark(group="service")
def test_service_latency_and_throughput(benchmark, tmp_path):
    """Measure the three request classes and persist the record."""

    def run():
        with _ServerThread(tmp_path / "store",
                           capacity=_CAPACITY) as client:
            cold_s = _timed_submit(client, [_cell(0)])
            hit_s = _timed_submit(client, [_cell(0)])

            with ThreadPoolExecutor(_CLIENTS) as pool:
                racers = list(pool.map(
                    lambda i: _timed_submit(client, [_cell(1)],
                                            tenant=f"t{i}"),
                    range(_CLIENTS)))
            throughput = _throughput(client)
            stats = client.stats()
        return cold_s, hit_s, racers, throughput, stats

    cold_s, hit_s, racers, throughput, stats = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    counters = stats["counters"]
    # one simulation per unique fingerprint across the whole bench:
    # cell(0), cell(1), and the throughput cells — nothing else
    unique = 2 + _THROUGHPUT_CELLS
    assert counters["simulated"] == unique, counters
    assert counters["errors"] == 0, counters
    # the racing clients shared one simulation of cell(1)
    assert counters["deduped"] + counters["store_hits"] \
        >= _CLIENTS - 1 + 1, counters
    # a store hit never simulates, so it cannot be slower than cold
    assert hit_s < cold_s, (hit_s, cold_s)

    record = {
        "schema": "repro-bench-service-v1",
        "endpoints": BENCH_ENDPOINTS,
        "latency": {
            "cold_s": cold_s,
            "store_hit_s": hit_s,
            "dedup_concurrent_worst_s": max(racers),
            "dedup_concurrent_best_s": min(racers),
            "clients": _CLIENTS,
        },
        "dedup": {k: counters[k] for k in
                  ("requests", "simulated", "deduped", "store_hits",
                   "rejected", "batches")},
        "throughput": throughput,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "BENCH_service.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nservice bench record written to {path}")
    print(f"cold {cold_s * 1e3:.1f}ms, store hit {hit_s * 1e3:.2f}ms, "
          f"{_CLIENTS}-client dedup worst {max(racers) * 1e3:.1f}ms, "
          f"throughput {throughput['cells_per_s']:.1f} cells/s "
          f"({throughput['rejections']} backpressure rejections)")
