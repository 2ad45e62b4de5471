"""Span tracing from outside the program.

:class:`Tracer` wraps the public entry points of every layer of ``repro``
(module functions wherever they were imported, and class methods) and
records one span per call: ``(id, parent, name, start, end, lane,
request id, info)``.  A lane is one ``(pid, thread)``; spans of one lane
nest properly.  Spans stay in memory and are written out at the end.
Sweep workers fork after :meth:`Tracer.install`, so each worker starts
an empty buffer after the fork and dumps it to ``spans-<pid>.jsonl``
when it exits; :meth:`Tracer.collect` merges those files back in.

Time attribution (:func:`attribute`): every instant of the traced wall
time is given to the innermost open span of each lane that has one, split
evenly across such lanes.  The resulting ``share`` column therefore sums
to the wall time exactly; what the root span keeps is ``unattributed``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

#: Methods wrapped on their class: (span name, module, class, method).
_METHOD_TARGETS = (
    ("routing.route", "repro.topology.base", "Topology", "route"),
    ("routing.route_candidates", "repro.topology.base", "Topology",
     "route_candidates"),
    ("engine.ActiveSet.add", "repro.engine.active", "ActiveSet", "add"),
    ("engine.ActiveSet.add_many", "repro.engine.active", "ActiveSet",
     "add_many"),
    ("engine.ActiveSet.remove", "repro.engine.active", "ActiveSet",
     "remove"),
    ("engine.ActiveSet.remove_many", "repro.engine.active", "ActiveSet",
     "remove_many"),
    ("engine.ActiveSet.allocate", "repro.engine.active", "ActiveSet",
     "allocate"),
    ("obs.MetricsCollector.set_routing", "repro.obs.metrics",
     "MetricsCollector", "set_routing"),
    ("obs.MetricsCollector.flow_injected", "repro.obs.metrics",
     "MetricsCollector", "flow_injected"),
    ("obs.MetricsCollector.account_event", "repro.obs.metrics",
     "MetricsCollector", "account_event"),
    ("obs.MetricsCollector.record_allocation", "repro.obs.metrics",
     "MetricsCollector", "record_allocation"),
    ("obs.MetricsCollector.add_time", "repro.obs.metrics",
     "MetricsCollector", "add_time"),
    ("obs.MetricsCollector.record_transient", "repro.obs.metrics",
     "MetricsCollector", "record_transient"),
    ("obs.MetricsCollector.snapshot", "repro.obs.metrics",
     "MetricsCollector", "snapshot"),
    ("obs.MetricsStream.open", "repro.obs.stream", "MetricsStream", "open"),
    ("obs.MetricsStream.write_cell", "repro.obs.stream", "MetricsStream",
     "write_cell"),
    ("obs.MetricsStream.close", "repro.obs.stream", "MetricsStream",
     "close"),
    ("sweep.SweepCheckpoint.append", "repro.sweep.checkpoint",
     "SweepCheckpoint", "append"),
    ("service.Broker.submit", "repro.service.broker", "Broker", "submit"),
    ("service.FairScheduler.submit", "repro.service.scheduler",
     "FairScheduler", "submit"),
    ("service.FairScheduler.next", "repro.service.scheduler",
     "FairScheduler", "next"),
    ("service.ResultStore.get", "repro.service.store", "ResultStore", "get"),
    ("service.ResultStore.put", "repro.service.store", "ResultStore", "put"),
)

#: Module-level functions, patched wherever a module holds a reference.
_FUNCTION_TARGETS = (
    ("topology.build", "repro.topology.registry", "build"),
    ("engine.simulate", "repro.engine.simulator", "simulate"),
    ("sweep.run_sweep", "repro.sweep.runner", "run_sweep"),
)


def _simulate_info(args, kwargs, result):
    stats = getattr(result, "allocator_stats", None) or {}
    flows = args[1] if len(args) > 1 else kwargs.get("flows")
    return None, {
        "flows": int(getattr(flows, "num_flows", 0)),
        "events": int(result.events),
        "reallocations": int(result.reallocations),
        "full_passes": int(stats.get("full_passes", 0)),
        "relevel_fills": int(stats.get("relevel_fills", 0)),
        "warm_fills": int(stats.get("warm_fills", 0)),
    }


def _run_sweep_info(args, kwargs, result):
    plan = args[0] if args else kwargs.get("plan")
    return None, {"cells": [c.key() for c in plan.cells],
                  "jobs": int(kwargs.get("jobs", 1))}


def _broker_submit_info(args, kwargs, result):
    cell = args[2] if len(args) > 2 else kwargs["cell"]
    return result, {"key": cell.key()}


_INFO = {
    "engine.simulate": _simulate_info,
    "sweep.run_sweep": _run_sweep_info,
    "service.Broker.submit": _broker_submit_info,
}


class Tracer:
    """In-memory span recorder that patches ``repro``'s entry points."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self._tls = threading.local()
        self._pid = os.getpid()
        self._seq = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self.enabled = False

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self._tls.names = defaultdict(int)
        return stack

    def _open(self, name: str):
        stack = self._stack()
        sid = (self._pid, next(self._seq))
        parent = stack[-1] if stack else None
        stack.append(sid)
        self._tls.names[name] += 1
        return sid, parent

    def _close(self, sid, parent, name, t0, rid=None, info=None) -> None:
        t1 = time.perf_counter()
        self._tls.stack.pop()
        self._tls.names[name] -= 1
        self.spans.append((sid, parent, name, t0, t1,
                           (self._pid, threading.get_ident()), rid, info))

    def span(self, name: str, rid=None):
        """Context manager for a span recorded from the benchmark itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.sid, self.parent = tracer._open(name)
                self.t0 = time.perf_counter()
                return self

            def __exit__(self, *exc):
                tracer._close(self.sid, self.parent, name, self.t0, rid)
                return False

        return _Span()

    def _wrap(self, fn, name: str):
        tracer = self
        describe = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._stack()
            if tracer._tls.names[name]:
                # re-entry through a subclass or a delegating wrapper:
                # the outer call already covers it
                return fn(*args, **kwargs)
            sid, parent = tracer._open(name)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rid = info = None
                if describe is not None and result is not None:
                    rid, info = describe(args, kwargs, result)
                tracer._close(sid, parent, name, t0, rid, info)

        return wrapper

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        """Patch every target and start recording."""
        import importlib

        from repro.workloads.base import Workload

        for name, modname, attr in _FUNCTION_TARGETS:
            fn = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(fn, name)
            for mod in list(sys.modules.values()):
                modname_ = getattr(mod, "__name__", "") or ""
                if not (modname_.startswith("repro")
                        or modname_.startswith("perfbench")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        for name, modname, clsname, attr in _METHOD_TARGETS:
            cls = getattr(importlib.import_module(modname), clsname)
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], name))
        todo = list(Workload.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "build" in cls.__dict__:
                self._patch(cls, "build",
                            self._wrap(cls.__dict__["build"],
                                       "workloads.build"))
        mp_util.register_after_fork(self, Tracer._after_fork)
        self.enabled = True

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Stop recording and restore every patched attribute."""
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- processes
    def _after_fork(self) -> None:
        self.spans = []
        self._pid = os.getpid()
        self._seq = itertools.count()
        mp_util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def collect(self) -> list[tuple]:
        """This process's spans plus every dumped worker buffer."""
        spans = list(self.spans)
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    sid, parent, name, t0, t1, lane, rid, info = \
                        json.loads(line)
                    spans.append((tuple(sid), tuple(parent) if parent
                                  else None, name, t0, t1, tuple(lane),
                                  rid, info))
            path.unlink()
        return spans


# ------------------------------------------------------------- analysis
def attribute(spans: list[tuple], root_sid) -> dict:
    """Per-span ``self`` (lane-local) and ``share`` (wall-attributed).

    Returns ``{sid: (self_s, share_s)}``; spans are clipped to the root.
    """
    by_sid = {s[0]: s for s in spans}
    r0, r1 = by_sid[root_sid][3], by_sid[root_sid][4]
    child_sum: dict = defaultdict(float)
    for sid, parent, _n, t0, t1, lane, _r, _i in spans:
        if parent is not None and parent in by_sid \
                and by_sid[parent][5] == lane:
            child_sum[parent] += t1 - t0
    self_s = {s[0]: (s[4] - s[3]) - child_sum[s[0]] for s in spans}

    # innermost-span segments per lane
    lanes: dict = defaultdict(list)
    for s in spans:
        t0, t1 = max(s[3], r0), min(s[4], r1)
        if t1 > t0:
            lanes[s[5]].append((t0, t1, s[0]))
    bounds = []
    for lane, items in lanes.items():
        events = []
        for t0, t1, sid in items:
            events.append((t0, 1, -t1, sid))
            events.append((t1, 0, -t0, sid))
        events.sort()
        stack: list = []
        prev = None
        for t, kind, _k, sid in events:
            if stack and prev is not None and t > prev:
                bounds.append((prev, 1, lane, stack[-1]))
                bounds.append((t, 0, lane, stack[-1]))
            if kind == 1:
                stack.append(sid)
            elif stack and stack[-1] == sid:
                stack.pop()
            elif sid in stack:
                stack.remove(sid)
            prev = t
    bounds.sort(key=lambda b: (b[0], b[1]))
    share: dict = defaultdict(float)
    active: dict = {}
    prev = None
    for t, kind, lane, sid in bounds:
        if active and prev is not None and t > prev:
            part = (t - prev) / len(active)
            for owner in active.values():
                share[owner] += part
        if kind == 1:
            active[lane] = sid
        elif active.get(lane) == sid:
            del active[lane]
        prev = t
    return {sid: (self_s[sid], share.get(sid, 0.0)) for sid in by_sid}


def span_tree(spans: list[tuple], root_sid, attr: dict | None = None
              ) -> tuple[list[str], float, float]:
    """Aggregate spans by name path and render the tree.

    Returns ``(lines, wall_s, unattributed_s)``.  The ``share`` column of
    the rows plus the ``unattributed`` row sums to ``wall_s``.
    """
    by_sid = {s[0]: s for s in spans}
    if attr is None:
        attr = attribute(spans, root_sid)
    paths: dict = {}

    def path_of(sid):
        if sid in paths:
            return paths[sid]
        chain = []
        cur = sid
        while cur is not None and cur != root_sid and cur in by_sid:
            chain.append(by_sid[cur][2])
            cur = by_sid[cur][1]
        paths[sid] = tuple(reversed(chain))
        return paths[sid]

    rows: dict = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for s in spans:
        if s[0] == root_sid:
            continue
        row = rows[path_of(s[0])]
        own, share = attr[s[0]]
        row[0] += 1
        row[1] += s[4] - s[3]
        row[2] += own
        row[3] += share
    root = by_sid[root_sid]
    wall = root[4] - root[3]
    unattributed = attr[root_sid][1]
    children: dict = defaultdict(list)
    for path in rows:
        children[path[:-1]].append(path)
    lines = [f"{'span':<58} {'calls':>9} {'total_s':>10} {'self_s':>10} "
             f"{'share_s':>10}",
             f"{root[2]:<58} {1:>9} {wall:>10.4f} {'':>10} {wall:>10.4f}"]

    def walk(prefix, depth):
        for path in sorted(children.get(prefix, ()),
                           key=lambda p: -rows[p][3]):
            calls, total, own, share = rows[path]
            label = "  " * depth + path[-1]
            lines.append(f"{label:<58} {calls:>9} {total:>10.4f} "
                         f"{own:>10.4f} {share:>10.4f}")
            walk(path, depth + 1)

    walk((), 1)
    lines.append(f"{'  unattributed':<58} {'':>9} {'':>10} {'':>10} "
                 f"{unattributed:>10.4f}")
    total_share = sum(r[3] for r in rows.values()) + unattributed
    lines.append(f"{'  (rows + unattributed)':<58} {'':>9} {'':>10} "
                 f"{'':>10} {total_share:>10.4f}")
    return lines, wall, unattributed


def layer_totals(spans: list[tuple], attr: dict) -> dict:
    """Per span name: call count, busy seconds and lane-local self time."""
    out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                     "self_s": 0.0})
    for s in spans:
        row = out[s[2]]
        row["calls"] += 1
        row["busy_s"] += s[4] - s[3]
        row["self_s"] += attr[s[0]][0]
    return out
