"""Regression tests for the PR-10 service-layer fixes.

Four bugs, each pinned by a test that failed before the fix:

1. ``Broker._settle`` popped the future of an *errored* cell, so a
   client polling after settlement got a 404 instead of its error
   document — errors are never stored, so nothing else could answer.
   Fixed with a bounded LRU of settled error documents.
2. ``Broker.submit`` tested store membership by file existence; a
   corrupt on-disk record then surfaced as a ``KeyError`` (an HTTP 500)
   at result time.  Fixed by *reading* the record at submit, so
   corruption degrades to a re-simulation.
3. A negative ``Content-Length`` sailed past the size cap into
   ``readexactly`` and 500'd; non-numeric variants that ``int()``
   happens to accept (``+5``, ``1_0``) and conflicting duplicates were
   just as mis-handled.  All are 400s now.
4. ``FairScheduler`` kept every tenant's empty lane forever, so a
   long-lived service scanned an ever-growing dict per dequeue; and
   ``ResultStore`` never cleaned temp files crashed writers left
   behind.

Later hostile-input fixes follow the same pattern: a ``timeline`` count
of ``1e999`` (``int(inf)``), a non-UTF-8 body and a deeply nested body
each 500'd; timeline fields, fault counts and ``tasks`` now reject
bools, strings, negatives and non-finite numbers with a 400.
"""

from __future__ import annotations

import json
import os
import socket
import time
import warnings

from repro.service import Broker, ResultStore
from repro.service.scheduler import FairScheduler
from repro.service.store import ResultStoreWarning
from tests.test_service_broker import ENDPOINTS, make_cell, run
from tests.test_service_http import ServerThread


class TestErrorDocRetention:
    """Bug 1: errored digests must stay answerable after settlement."""

    def test_poll_after_error_settle_over_http(self, tmp_path):
        # cell_timeout ~0 deterministically fails the cell after it runs
        with ServerThread(tmp_path / "store",
                          cell_timeout=1e-12) as client:
            status, doc = client.submit([{
                "workload": "reduce", "tasks": 16,
                "topology": {"family": "fattree", "params": {}},
            }], wait=True)
            assert status == 200
            (settled,) = doc["results"]
            assert settled["status"] == "error"
            digest = settled["digest"]
            # the regression: this poll arrives *after* the batch
            # settled and the future is gone — it used to 404
            status, doc = client.result(digest)
            assert status == 200
            assert doc["status"] == "error"
            assert doc["digest"] == digest
            assert doc["error"] == settled["error"]

    def test_peek_and_result_serve_retained_error(self, tmp_path):
        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS,
                            cell_timeout=1e-12)
            await broker.start()
            digest = broker.submit("a", make_cell())
            first = await broker.result(digest)
            # settled: the future is gone, only the LRU can answer
            assert digest not in broker._futures
            peeked = broker.peek(digest)
            again = await broker.result(digest)
            await broker.close()
            return first, peeked, again

        first, peeked, again = run(main())
        assert first["status"] == "error"
        assert peeked == first
        assert again == first

    def test_resubmission_evicts_error_and_retries(self, tmp_path):
        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS,
                            cell_timeout=1e-12)
            await broker.start()
            digest = broker.submit("a", make_cell())
            doc = await broker.result(digest)
            assert doc["status"] == "error"
            # failures may be transient: the retry must re-enqueue, not
            # answer from the cached error
            assert broker.submit("a", make_cell()) == digest
            assert digest in broker._futures
            assert digest not in broker._errors
            retry = await broker.result(digest)
            await broker.close()
            return broker.counters, retry

        counters, retry = run(main())
        assert counters["enqueued"] == 2
        assert retry["status"] == "error"  # still failing, but freshly

    def test_error_cache_is_bounded_lru(self, tmp_path, monkeypatch):
        import repro.service.broker as broker_mod
        monkeypatch.setattr(broker_mod, "ERROR_DOCS_MAX", 2)

        async def main():
            broker = Broker(ResultStore(tmp_path), endpoints=ENDPOINTS,
                            cell_timeout=1e-12)
            await broker.start()
            digests = [broker.submit("a", make_cell(tasks=t))
                       for t in (4, 8, 16)]
            for d in digests:
                await broker.result(d)
            retained = [broker.peek(d) is not None for d in digests]
            await broker.close()
            return len(broker._errors), retained

        size, retained = run(main())
        assert size == 2
        assert retained == [False, True, True]  # oldest evicted


class TestCorruptRecordResubmission:
    """Bug 2: a corrupt store record must re-simulate, not KeyError."""

    def test_submit_after_corruption_reenqueues(self, tmp_path):
        async def main():
            store = ResultStore(tmp_path)
            broker = Broker(store, endpoints=ENDPOINTS)
            await broker.start()
            digest = broker.submit("a", make_cell())
            first = await broker.result(digest)
            assert first["status"] == "done"
            # truncate the record on disk behind the broker's back
            store._path(digest).write_text("{not json")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResultStoreWarning)
                # before the fix this existence check said "store hit",
                # and the later result() call raised KeyError (a 500)
                assert broker.submit("a", make_cell()) == digest
                redone = await broker.result(digest)
            await broker.close()
            return broker.counters, first, redone

        counters, first, redone = run(main())
        assert counters["simulated"] == 2
        assert counters["store_hits"] == 0
        assert redone["status"] == "done"
        assert redone["record"]["makespan"] == first["record"]["makespan"]


def _raw_request(host: str, port: int, payload: bytes) -> int:
    """Send raw bytes, return the HTTP status code of the response."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(payload)
        data = b""
        while b"\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
    return int(data.split(b"\r\n", 1)[0].split()[1])


class TestContentLengthValidation:
    """Bug 3: malformed Content-Length must be a 400, never a 500."""

    _BAD = ("-5", "+5", "abc", "1_0", "0x10", "5 5", "")

    def test_malformed_and_conflicting_lengths(self, tmp_path):
        with ServerThread(tmp_path / "store") as client:
            for bad in self._BAD:
                status = _raw_request(
                    client.host, client.port,
                    (f"POST /v1/submit HTTP/1.1\r\n"
                     f"Content-Length: {bad}\r\n\r\n").encode())
                assert status == 400, f"Content-Length {bad!r} -> {status}"
            status = _raw_request(
                client.host, client.port,
                b"POST /v1/submit HTTP/1.1\r\n"
                b"Content-Length: 4\r\n"
                b"Content-Length: 7\r\n\r\nnull")
            assert status == 400  # conflicting duplicates
            # duplicate *identical* lengths behave as one header
            status = _raw_request(
                client.host, client.port,
                b"POST /v1/submit HTTP/1.1\r\n"
                b"Content-Length: 4\r\n"
                b"Content-Length: 4\r\n\r\nnull")
            assert status == 400  # parses; rejected as a bad submission
            # and an honest request on the same server still works
            status = _raw_request(
                client.host, client.port,
                b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            assert status == 200


class TestSchedulerLanePruning:
    """Bug 4a: drained lanes (and their pass values) must be dropped."""

    def test_drained_lanes_are_pruned(self):
        sched = FairScheduler(64)
        for i in range(20):
            sched.submit(f"tenant-{i}", i)
        assert len(sched._lanes) == 20
        drained = list(sched.drain())
        assert len(drained) == 20
        assert sched._lanes == {}
        assert sched._passes == {}
        assert sched.backlog() == {}

    def test_rejoin_after_prune_keeps_fairness(self):
        sched = FairScheduler(64, weights={"gold": 2})
        sched.submit("gold", "g0")
        sched.submit("lead", "l0")
        list(sched.drain())
        # rejoin after pruning: both restart from the clock, and the
        # weighted interleave is the same as if lanes had been retained
        for i in range(4):
            sched.submit("gold", f"g{i}")
            sched.submit("lead", f"l{i}")
        drained = list(sched.drain())
        order = [t for t, _ in drained]
        items = [i for _, i in drained]
        assert order.count("gold") == 4 and order.count("lead") == 4
        # weight-2 gold drains twice per lead service slot
        assert items.index("l1") > items.index("g2")

    def test_partial_drain_keeps_backlogged_lane(self):
        sched = FairScheduler(8)
        sched.submit("a", 1)
        sched.submit("a", 2)
        assert sched.next() == ("a", 1)
        assert "a" in sched._lanes  # still backlogged: not pruned
        assert sched.next() == ("a", 2)
        assert "a" not in sched._lanes


class TestStoreTmpSweep:
    """Bug 4b: stale temp files from crashed writers are swept at open."""

    def test_stale_tmp_swept_fresh_kept(self, tmp_path):
        store = ResultStore(tmp_path)
        fan = tmp_path / "ab"
        fan.mkdir()
        stale = fan / f"{'a' * 64}.123.tmp"
        fresh = fan / f"{'b' * 64}.456.tmp"
        stale.write_text("half-written")
        fresh.write_text("in-flight")
        past = time.time() - 2 * ResultStore.TMP_STALE_S
        os.utime(stale, (past, past))
        reopened = ResultStore(tmp_path)
        assert reopened.stats["swept"] == 1
        assert not stale.exists()
        assert fresh.exists()  # a live writer's file is left alone
        assert store.stats["swept"] == 0  # first open had nothing stale


def _submit_bytes(body: bytes) -> bytes:
    return (b"POST /v1/submit HTTP/1.1\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body)


class TestHostileSubmitBodies:
    """Hostile ``POST /v1/submit`` bodies are typed 400s, never 500s."""

    _CELL = ('{"workload": "reduce", "tasks": 16, '
             '"topology": {"family": "fattree", "params": {}}')

    def _cells(self, extra: str) -> bytes:
        return ('{"cells": [' + self._CELL + ", " + extra + "}]}").encode()

    def test_overflow_non_utf8_and_deep_nesting(self, tmp_path):
        bodies = {
            # int(inf) used to raise OverflowError in cell_from_json
            "overflow": self._cells('"timeline": {"cables": 1e999}'),
            # json.loads raised UnicodeDecodeError past the JSON guard
            "non-utf8": b'{"cells": "\xff"}',
            # the parser raised RecursionError
            "deep": b"[" * 50000,
        }
        with ServerThread(tmp_path / "store") as client:
            for name, body in bodies.items():
                status = _raw_request(client.host, client.port,
                                      _submit_bytes(body))
                assert status == 400, f"{name} -> {status}"
            assert _raw_request(client.host, client.port,
                                b"GET /v1/healthz HTTP/1.1\r\n\r\n") == 200

    def test_fields_validated_strictly(self, tmp_path):
        bad = (
            '"timeline": {"cables": -3}',
            '"timeline": {"uplinks": "7"}',
            '"timeline": {"seed": true}',
            '"timeline": {"cables": 2.0}',
            '"timeline": {"cables": 1, "horizon": NaN}',
            '"timeline": {"cables": 1, "horizon": 0}',
            '"timeline": {"cables": 1, "horizon": -1.5}',
            '"timeline": {"cables": 1, "horizon": Infinity}',
            '"timeline": {"cables": 1, "horizon": null}',
            '"timeline": {"cables": 1, "horizon": 1' + "0" * 400 + '}',
            '"timeline": {"cables": 1, "mttr": NaN}',
            '"timeline": {"cables": 1, "mttr": "0.5"}',
            '"faults": {"cables": true}',
        )
        with ServerThread(tmp_path / "store") as client:
            for extra in bad:
                status = _raw_request(client.host, client.port,
                                      _submit_bytes(self._cells(extra)))
                assert status == 400, f"{extra} -> {status}"
            # a bool tasks used to yield the key "reduce@True"
            body = (b'{"cells": [{"workload": "reduce", "tasks": true, '
                    b'"topology": {"family": "fattree", "params": {}}}]}')
            status = _raw_request(client.host, client.port,
                                  _submit_bytes(body))
            assert status == 400
            assert _raw_request(client.host, client.port,
                                b"GET /v1/healthz HTTP/1.1\r\n\r\n") == 200

    def test_valid_timeline_still_parses(self):
        from repro.service.protocol import cell_from_json
        doc = json.loads(self._CELL + ', "timeline": {"cables": 2, '
                         '"uplinks": 0, "seed": 5, "horizon": 3, '
                         '"mttr": 0.5}}')
        cell = cell_from_json(doc)
        assert cell.timeline.label() == "tl(2,0,s5,h3,r0.5)"
        assert isinstance(cell.timeline.horizon, float)
