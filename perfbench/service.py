"""``service-mix``: an open-loop request mix against ``repro serve``.

Set-up starts ``repro serve --endpoints 512 --metrics ...`` on a fresh
store and pre-populates it through the service with a pool of stored
cells.  The metrics stream puts the obs collector on every simulated
cell, so this workload exercises every layer but the cells' event loop.  A
single-threaded, seeded generator then sends :data:`RATE` requests per
second for ``--seconds`` seconds, evenly spaced from a seeded phase,
whatever the service does (open loop).  The mix is 65 % repeats of stored
cells, 25 % novel cells and 10 % duplicates of the latest novel cell,
usually still in flight, in a seeded order.  (Poisson arrivals made a
run's tail latency depend on its seed's bursts: p90 spread over seeds
0.22 of the median, against 0.13 evenly spaced.)  Each submit uses ``wait`` false; pending digests are polled on
``/v1/result/<digest>``, one request at a time, so the generator never
holds more than one connection.  A request's latency runs from its
*scheduled* send time until its result is first seen done; a refused or
failed request counts as infinitely late.

Novel cells are healthy Figure 4 cells (the pool uses other workloads, so
the two never collide).  Consecutive novel cells use different topologies
and no two share a (workload, topology) pair, so no batch ever shares a
topology or route cache between two novel cells and the simulated work is
the same on every run of a seed.
"""

from __future__ import annotations

import asyncio
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from perfbench import calibrate
from perfbench.common import (Context, Outcome, child_env, median,
                              peak_rss_mb, percentile)

ENDPOINTS = 512
#: Requests per second.  A quarter are novel and there are 54 distinct
#: novel cells, so a 40 s run sends each of them once: every seed then
#: simulates the same cells, and only their order and timing differ.
RATE = 5.4
MIX = {"repeat": 0.65, "novel": 0.25, "dup": 0.10}
#: The stored cells are the pool workloads on these topologies, the same
#: for every seed: a seeded draw of 8 cells made set-up take 1.6-3.3 s by
#: seed, since each pool cell costs 0.1-0.5 s to simulate.
POOL_TOPOLOGIES = ("nesttree(2,4)", "nestghc(4,2)", "torus")
POOL_WORKLOADS = ("allreduce", "nearneighbors", "unstructuredhr")
NOVEL_WORKLOADS = ("reduce", "sweep3d", "permutation")
#: ``repro serve --jobs``: with 1, simulations run on a thread of the
#: server and hold the GIL, so store hits queue behind them and the
#: median latency swings between seeds (1.9-191 ms measured).
JOBS = 2
#: Largest subtorus side of a novel cell's topology.  t=8 hybrids take
#: 0.1-0.65 s to build at 512 endpoints (the others 5-20 ms), so drawing
#: one or not would decide a run's tail latency.
NOVEL_MAX_T = 4
TENANTS = ("alice", "bob")
POLL_S = 0.005
#: The generator takes a calibration sample at most every CAL_EVERY_S,
#: only while no request is pending (so the server is idle) and the next
#: send is at least CAL_GAP_S away.
CAL_EVERY_S = 1.0
CAL_GAP_S = 0.15
DRAIN_S = 60.0
START_S = 60.0
#: Server starts and pre-populations vary by 0.5-1 s between tries, more
#: than the cells' set-ups, so the median takes more of them.
SETUP_ROUNDS = 5


@dataclass(frozen=True)
class Request:
    due: float          # seconds after the start of the schedule
    kind: str           # repeat | novel | dup
    cell: dict          # cell document as sent
    tenant: str


def make_inputs(seed: int, seconds: float) -> tuple[list[dict],
                                                     list[Request]]:
    """The stored pool and the request schedule, from the seed alone."""
    from repro.core.explorer import DesignSpaceExplorer
    from repro.service.protocol import cell_to_json

    rng = np.random.default_rng([seed, 0x5e1])
    explorer = DesignSpaceExplorer(ENDPOINTS, fidelity="approx")
    pool = [cell_to_json(c) for c in explorer.plan(POOL_WORKLOADS).cells
            if c.topology.label() in POOL_TOPOLOGIES]

    by_pair = {(c.workload.name, c.topology.label()): c
               for c in explorer.plan(NOVEL_WORKLOADS).cells}
    labels = [s.label() for s in explorer.topology_specs()
              if s.params.get("t", 0) <= NOVEL_MAX_T]
    order = rng.permutation(len(labels))
    offsets = rng.integers(len(NOVEL_WORKLOADS), size=len(labels))
    novel = [cell_to_json(by_pair[(NOVEL_WORKLOADS[(r + offsets[j])
                                                  % len(NOVEL_WORKLOADS)],
                                   labels[j])])
             for r in range(len(NOVEL_WORKLOADS)) for j in order]

    # the mix in exact proportions, so every seed offers the same load
    # and only the order of the requests varies
    count = max(1, round(RATE * seconds))
    dues = (np.arange(count) + rng.uniform(0.0, 1.0)) * (seconds / count)
    kinds = [k for k, share in MIX.items() for _ in range(round(share
                                                                * count))]
    kinds = (kinds + ["repeat"] * count)[:count]
    kinds = [kinds[i] for i in rng.permutation(count)]
    requests: list[Request] = []
    latest_novel = None
    for due, kind in zip(dues.tolist(), kinds):
        tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        if kind == "novel" and novel:
            latest_novel = novel.pop(0)
            cell = latest_novel
        elif kind == "dup" and latest_novel is not None:
            cell = latest_novel
        else:  # a repeat, or a novel/dup with nothing left to draw on
            kind = "repeat"
            cell = pool[int(rng.integers(len(pool)))]
        requests.append(Request(due, kind, cell, tenant))
    return pool, requests


# ------------------------------------------------------------- servers
class SubprocessServer:
    """``repro serve`` as users run it."""

    def __init__(self, ctx: Context, store: str, metrics: str,
                 seed: int) -> None:
        self.metrics = metrics
        self.log = open(ctx.out / "serve.log", "a", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store,
             "--endpoints", str(ENDPOINTS), "--port", "0",
             "--seed", str(seed), "--jobs", str(JOBS),
             "--metrics", metrics],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=child_env(ctx), cwd=ctx.root)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_S)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
        except BaseException:  # an error or SIGTERM: never leave it running
            self.stop()
            raise
        host, _, port = line.split("listening on", 1)[1].split()[0] \
            .rpartition(":")
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class InProcessServer:
    """Broker and HTTP server on an event loop in a thread of this
    process, so the tracer sees their spans."""

    def __init__(self, ctx: Context, store: str, metrics: str,
                 seed: int) -> None:
        from repro.service import Broker, ResultStore, ServiceServer

        self.metrics = metrics
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="service-loop", daemon=True)
        self.thread.start()

        async def boot():
            broker = Broker(ResultStore(store), endpoints=ENDPOINTS,
                            fidelity="approx", seed=seed, jobs=JOBS,
                            metrics_path=metrics)
            server = ServiceServer(broker, "127.0.0.1", 0)
            host, port = await server.start()
            return server, host, port

        self.server, self.host, self.port = asyncio.run_coroutine_threadsafe(
            boot(), self.loop).result(START_S)

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.close(),
                                         self.loop).result(START_S)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(START_S)
        self.loop.close()


def start(ctx: Context, server_cls, tag: str, pool: list[dict]):
    """Start a server on a fresh store and pre-populate the pool."""
    from repro.service import ServiceClient

    server = server_cls(ctx, str(ctx.out / f"store-{tag}"),
                        str(ctx.out / f"metrics-{tag}.jsonl"), ctx.seed)
    try:
        client = ServiceClient(server.host, server.port, timeout=START_S)
        status, doc = client.submit(pool, tenant="setup", wait=True)
        results = doc.get("results", []) if status == 200 else []
        if len(results) != len(pool) or \
                any(r.get("status") != "done" for r in results):
            raise RuntimeError(f"pre-population failed: HTTP {status}")
    except BaseException:  # an error or SIGTERM: never leave it running
        server.stop()
        raise
    return server, client


# ----------------------------------------------------------- generator
def generate(client, requests: list[Request], tracer=None,
             calibrating: bool = False) -> dict:
    """Send the schedule open-loop and observe every result; with
    ``calibrating``, take calibration samples in idle gaps."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    n = len(requests)
    done = [None] * n
    failed = [False] * n
    lag = []
    waiting: dict[str, list[int]] = {}
    last_poll: dict[str, float] = {}
    digests: set[str] = set()
    digest_of: list[str | None] = [None] * n
    cals: list[tuple[float, float]] = []
    clock = time.perf_counter
    t0 = clock()
    i = 0
    while i < n or waiting:
        now = clock() - t0
        if calibrating and not waiting and i < n \
                and requests[i].due - now >= CAL_GAP_S \
                and (not cals or clock() - cals[-1][0] >= CAL_EVERY_S):
            cals.append(calibrate.sample())
            continue
        if i < n and now >= requests[i].due:
            req = requests[i]
            lag.append(now - req.due)
            try:
                with span("gen.submit"):
                    status, doc = client.submit([req.cell],
                                                tenant=req.tenant)
            except OSError:
                status, doc = None, {}
            state = doc["statuses"][0]["status"] if status == 200 else None
            if status == 200:
                digest_of[i] = doc["digests"][0]
            if state == "done":
                done[i] = clock() - t0
                digests.add(doc["digests"][0])
            elif state == "pending":
                digest = doc["digests"][0]
                waiting.setdefault(digest, []).append(i)
                last_poll.setdefault(digest, clock())
            else:
                failed[i] = True
            i += 1
            continue
        if i >= n and now > requests[-1].due + DRAIN_S:
            for idxs in waiting.values():
                for idx in idxs:
                    failed[idx] = True
            break
        due_poll = min(waiting, key=last_poll.__getitem__) if waiting \
            else None
        if due_poll is not None and clock() - last_poll[due_poll] >= POLL_S:
            try:
                with span("gen.poll"):
                    status, doc = client.result(due_poll)
            except OSError:
                status, doc = None, {}
            last_poll[due_poll] = clock()
            if status == 202:
                continue
            settled = waiting.pop(due_poll)
            ok = status == 200 and doc.get("status") == "done"
            for idx in settled:
                if ok:
                    done[idx] = clock() - t0
                else:
                    failed[idx] = True
            if ok:
                digests.add(due_poll)
            continue
        wake = [POLL_S]
        if i < n:
            wake.append(requests[i].due - now)
        if due_poll is not None:
            wake.append(last_poll[due_poll] + POLL_S - clock())
        with span("gen.idle"):
            time.sleep(max(0.0, min(wake)))
    latency = [float("inf") if failed[k] or done[k] is None
               else done[k] - requests[k].due for k in range(n)]
    finished = [d for d in done if d is not None]
    return {"latency": latency, "failed": sum(failed), "lag": lag,
            "digests": digests, "cals": cals, "t0": t0,
            "digest_of": digest_of,
            "wall": max(finished) if finished else 0.0}


def check(out: Outcome, server, client, gen: dict,
          expected_requests: int) -> dict:
    """Validate every done result, the metrics stream and the broker's
    counters."""
    from repro.obs import validate_metrics_file
    from repro.service.store import validate_store_record

    records = {}
    for digest in sorted(gen["digests"]):
        status, doc = client.result(digest)
        try:
            out.check(status == 200 and doc.get("status") == "done",
                      f"result {digest[:12]}: HTTP {status}")
            body = {k: v for k, v in doc.items() if k != "status"}
            validate_store_record(body)
            records[digest] = body
        except Exception as exc:
            out.problems.append(f"result {digest[:12]} invalid: {exc}")
    c = client.stats()["counters"]
    out.check(c["requests"] == c["store_hits"] + c["deduped"]
              + c["enqueued"] + c["rejected"],
              f"counters do not balance: {c}")
    out.check(c["enqueued"] == c["simulated"] + c["errors"],
              f"enqueued != simulated + errors: {c}")
    out.check(c["requests"] == expected_requests,
              f"broker saw {c['requests']} requests, sent "
              f"{expected_requests}")
    out.check(gen["failed"] == 0, f"{gen['failed']} requests failed")
    try:
        n = validate_metrics_file(server.metrics)
        out.check(n == c["simulated"], f"{n} metrics records for "
                                       f"{c['simulated']} simulated cells")
    except Exception as exc:  # any validation error fails the run
        out.problems.append(f"metrics stream invalid: {exc}")
    return {"counters": c, "records": records}


def normalise_latency(gen: dict, requests: list[Request],
                      cals: list[tuple[float, float]]) -> list[float]:
    """Each latency, from its due time to its result, normalised by the
    set-up's and the generator's calibration samples nearest it."""
    t0 = gen["t0"]
    return calibrate.normalise(
        [(t0 + r.due, t0 + r.due + lat)
         for r, lat in zip(requests, gen["latency"])], cals + gen["cals"])


# ----------------------------------------------------------- workloads
def measure(ctx: Context) -> Outcome:
    out = Outcome()
    pool, requests = make_inputs(ctx.seed, ctx.seconds)
    setups, setup_cals = [], []
    server = None
    try:
        for r in range(SETUP_ROUNDS):
            if server is not None:
                server.stop()
            setup_cals.append(calibrate.sample())
            t0 = time.perf_counter()
            server, client = start(ctx, SubprocessServer, f"setup{r}", pool)
            setups.append((t0, time.perf_counter()))
        setup_cals.append(calibrate.sample())
        gen = generate(client, requests, calibrating=True)
        checked = check(out, server, client, gen,
                        len(pool) + len(requests))
    finally:
        if server is not None:
            server.stop()
    rss = peak_rss_mb()

    out.attempted = len(requests)
    out.failed = gen["failed"]
    lat = normalise_latency(gen, requests, setup_cals)
    out.metrics = {
        "setup_s": (median(calibrate.normalise(setups, setup_cals)), "s"),
        # raw: the open-loop schedule, not the host, sets most of it
        "wall_s": (gen["wall"], "s"),
        "latency_p50_ms": (median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    kinds = {k: sum(r.kind == k for r in requests) for k in MIX}
    out.details = {"raw_setup_s": [e - s for s, e in setups],
                   "setup_cals": setup_cals,
                   "requests": len(requests), "kinds": kinds,
                   "counters": checked["counters"], "cals": gen["cals"],
                   "raw_latency_ms": [x * 1e3 for x in gen["latency"]],
                   "generator_lag_ms_p90": percentile(gen["lag"], 90) * 1e3}
    return out


def _service_extras(spans, window: tuple[float, float], gen: dict,
                    before: dict, after: dict, requests, records) -> dict:
    lo, hi = window
    inside = [s for s in spans if lo <= s[3] <= hi]

    def durations(name):
        return [s[4] - s[3] for s in inside if s[2] == name]

    submits: dict[str, float] = {}
    for s in sorted(inside, key=lambda s: s[3]):
        if s[2] == "service.Broker.submit" and s[7]:
            submits.setdefault(s[7]["key"], s[3])
    batches = [s for s in inside if s[2] == "sweep.run_sweep" and s[7]]
    waits = []
    for key, t_submit in submits.items():
        entries = [b[3] for b in batches
                   if key in b[7]["cells"] and b[3] >= t_submit]
        if entries:
            waits.append(min(entries) - t_submit)
    delta = {k: after[k] - before[k] for k in after}
    novel = {d for r, d in zip(requests, gen["digest_of"])
             if r.kind == "novel" and d in records}
    cell_s = sum(records[d]["record"]["wall_seconds"] for d in novel)
    batch_s = sum(b[4] - b[3] for b in batches)
    return {
        "service.requests": len(requests),
        "service.submit_http_ms_p50": (median(durations("gen.submit"))
                                       * 1e3 if requests else 0.0),
        "service.queue_wait_ms_p50": median(waits) * 1e3 if waits else 0.0,
        "service.queue_wait_ms_p90": (percentile(waits, 90) * 1e3
                                      if waits else 0.0),
        "service.batch_cells_mean": (sum(len(b[7]["cells"])
                                         for b in batches) / len(batches)
                                     if batches else 0.0),
        "service.batch_s": batch_s / len(batches) if batches else 0.0,
        "service.store_get_ms": (median(durations("service.ResultStore.get"))
                                 * 1e3 if durations("service.ResultStore.get")
                                 else 0.0),
        "service.store_put_ms": (median(durations("service.ResultStore.put"))
                                 * 1e3 if durations("service.ResultStore.put")
                                 else 0.0),
        "service.dedup_ratio": ((delta["store_hits"] + delta["deduped"])
                                / delta["requests"]
                                if delta["requests"] else 0.0),
        "service.rejected": delta["rejected"],
        "service.generator_lag_ms_p90": percentile(gen["lag"], 90) * 1e3,
        "sweep.cell_s_sum": cell_s,
        "sweep.parallel_efficiency": cell_s / batch_s if batch_s else 0.0,
    }


def traced(ctx: Context, tracer) -> tuple[Outcome, object]:
    """One untraced and one traced pass, both with the server in-process."""
    out = Outcome()
    pool, requests = make_inputs(ctx.seed, ctx.seconds)
    expected = len(pool) + len(requests)

    server, client = start(ctx, InProcessServer, "untraced", pool)
    try:
        plain = generate(client, requests)
        check(out, server, client, plain, expected)
    finally:
        server.stop()

    server = None
    tracer.install()
    try:
        with tracer.span("bench.service-mix") as root:
            with tracer.span("bench.setup"):
                server, client = start(ctx, InProcessServer, "traced", pool)
            before = client.stats()["counters"]
            with tracer.span("bench.op") as op:
                gen = generate(client, requests, tracer)
    finally:
        tracer.uninstall()
        if server is not None:
            checked = check(out, server, client, gen, expected)
            server.stop()
    spans = tracer.collect()
    window = next((s[3], s[4]) for s in spans if s[0] == op.sid)

    out.attempted = 2 * len(requests)
    out.failed = plain["failed"] + gen["failed"]
    extras = _service_extras(spans, window, gen, before,
                             checked["counters"], requests,
                             checked["records"])
    overhead = median(gen["latency"]) / median(plain["latency"]) - 1.0
    out.details = {"untraced_latency_p50_ms": median(plain["latency"]) * 1e3,
                   "traced_latency_p50_ms": median(gen["latency"]) * 1e3}
    return out, (spans, root.sid, overhead, extras)
