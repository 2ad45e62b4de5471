"""Persistent active-flow set with incremental max-min allocation.

:func:`repro.engine.maxmin.allocate` is the *reference* allocator: it is
handed a freshly concatenated CSR of every active route and recomputes
progressive filling from zero state.  That is robust but makes every
event cost O(total active route length · log) even when a single flow
finished — the dominant cost of the ``"exact"`` fidelity.

:class:`ActiveSet` keeps the flow→link incidence alive *across* events:

* **Slot-packed bookkeeping** — active flows occupy slots ``0..m-1``;
  removal swaps the last slot in, so the flow-id and rate vectors the
  event loop reads are always dense views, with no per-event Python list
  rebuilds.  Adding or removing a flow costs O(route length).
* **Pooled entries buffer** — each flow's route is copied once into a
  shared link-id pool on admission and reused by every later allocation;
  dead segments are reclaimed by occasional O(live) compaction, so there
  is no per-event ``np.concatenate`` over a Python list.
* **Persistent link→flows CSR** — progressive filling freezes flows
  through a CSR that lives *across* events: small membership batches
  patch it in place (removals tombstone their entries, admissions append
  into per-link slack regions, per-link occupancy is maintained
  alongside), so a steady-churn pass skips the O(nnz) gather/sort setup
  entirely; bulk churn falls back to one vectorised tight rebuild.  Each
  saturated link then freezes exactly its own flows, so freeze work per
  pass is O(total route length) regardless of the water-level iteration
  count.  The per-link arithmetic is element-for-element the same as the
  reference, so the resulting rates are identical (bitwise for
  unweighted flows, to float tolerance for weighted ones).
* **Warm-started fills** — a full pass records the water level at which
  every link saturated.  When the multiset of active routes is unchanged
  since the previous allocation (each finished flow was replaced by a
  release with an *identical* route — the steady state of chained
  workloads such as permutations and the unstructured streams), the
  max-min solution is unchanged too: continuing flows keep their rates
  and each new flow's rate is the minimum recorded level along its
  route.  The whole "allocation" is then O(changed routes).  Route
  identity is tracked by object (the simulator's route cache interns one
  array per ``(src, dst)`` pair), and pending references are pinned so
  ids cannot be recycled mid-flight.
* **Suffix-resumed relevels** — the warm machinery extended to
  *near-identical* states: unweighted churn whose admissions were all
  matched by removals with identical routes, plus any number of net
  removals (the exact-fidelity completion batch: finished flows leave,
  chained releases reuse their predecessors' routes).  Removing flows
  only raises water levels, and it provably cannot change any fill
  iteration strictly below ``tmin`` — the lowest recorded level on any
  link of a net-removed route — so a full pass's recorded per-iteration
  increments (the full pass saves them alongside the levels) can be
  *replayed* over the handful of links whose occupancy changed and the
  water-level loop resumed at ``tmin`` with only the flows rated above
  it participating.  Rates, levels and the spliced sequences are
  bitwise those of a full pass, so consecutive completion batches keep
  resuming one another.  Any violated precondition (weighted set, net
  admissions, stale CSR, non-increasing recorded levels, replay work
  rivalling a full pass) falls back to the full pass;
  ``ActiveSet(..., relevel=False)`` disables the path for A/B
  benchmarking and the equivalence suites.

The warm and relevel paths are exact, not approximate: they reproduce
the float values a full pass would produce, so ``"exact"``-fidelity
makespans are unchanged.  Weighted flow sets always take the full pass
(a matched route does not imply a matched weight).
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels import numpy_fill
from repro.engine.maxmin import _SAT_TOL, _slices_concat
from repro.errors import SimulationError

#: Initial slot capacity (grown geometrically).
_MIN_SLOTS = 64

#: Initial pooled-entries capacity (grown geometrically).
_MIN_ENTRIES = 1024

#: Dead entries tolerated in the pool before a gather triggers compaction.
_COMPACT_SLACK = 4096

#: Membership batches larger than max(this, m/8) skip in-place CSR
#: patching and schedule a vectorised rebuild instead — per-flow patch
#: work only pays off when the batch is small next to the active set.
_PATCH_MAX = 64


class ActiveSet:
    """Incidence, occupancy and rates of the currently active flows.

    One instance serves one simulation run; ``capacities`` is the global
    per-link capacity vector (bits/s) of the topology's link table.
    ``relevel=False`` turns every non-warm fill into a full pass (see
    "Suffix-resumed relevels" in the module docstring).
    """

    def __init__(self, capacities: np.ndarray, *,
                 weighted: bool = False,
                 track_occupancy: bool = False,
                 relevel: bool = True) -> None:
        self.capacities = np.asarray(capacities, dtype=np.float64)
        num_links = self.capacities.shape[0]
        self._weighted = bool(weighted)
        #: Per-link live-flow counts, maintained across add/remove when
        #: ``track_occupancy`` is set (the adaptive routing policy reads
        #: this to score candidate routes); ``None`` otherwise, so the
        #: default engine pays nothing for it.
        self.occupancy: np.ndarray | None = (
            np.zeros(num_links, dtype=np.int64) if track_occupancy else None)
        self._caps_all_positive = bool((self.capacities > 0).all()) \
            if num_links else True

        # slot-packed per-flow state (slot i valid for i < _m)
        self._flow_ids = np.full(_MIN_SLOTS, -1, dtype=np.int64)
        self._rates = np.zeros(_MIN_SLOTS, dtype=np.float64)
        self._weights = np.ones(_MIN_SLOTS, dtype=np.float64)
        self._starts = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self._lens = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self._route_key = np.zeros(_MIN_SLOTS, dtype=np.int64)
        self._slot_flag = np.zeros(_MIN_SLOTS, dtype=bool)
        self._routes: list[np.ndarray | None] = [None] * _MIN_SLOTS
        # flow id -> slot (-1 = inactive); grown to the largest id seen,
        # so batch membership updates are single vectorised gathers
        self._slot_arr = np.full(_MIN_SLOTS, -1, dtype=np.int64)
        self._m = 0

        # pooled route entries (flow i owns _entries[start:start+len])
        self._entries = np.empty(_MIN_ENTRIES, dtype=np.int64)
        self._tail = 0
        self._live_nnz = 0

        # reusable per-link scratch (allocated once per simulation)
        self._cap_rem = np.empty(num_links, dtype=np.float64)
        self._counts = np.zeros(num_links, dtype=np.float64)
        self._sat_floor = self.capacities * _SAT_TOL

        # persistent link→flows CSR (flow *ids*, slack regions per link),
        # patched in place across events: removals tombstone (-1) their
        # entries, admissions append into their links' slack, and per-link
        # occupancy is maintained alongside.  A full vectorised rebuild
        # happens on the next pass whenever the structure is invalidated
        # (large batch, region overflow, pool compaction) or tombstones
        # accumulate; weighted sets always rebuild (occupancy depends on
        # weights).
        self._csr_flows = np.empty(0, dtype=np.int64)
        self._csr_start = np.zeros(num_links, dtype=np.int64)
        self._csr_len = np.zeros(num_links, dtype=np.int64)
        self._csr_cap = np.zeros(num_links, dtype=np.int64)
        self._pos_in_csr = np.empty(_MIN_ENTRIES, dtype=np.int64)
        self._counts_base = np.zeros(num_links, dtype=np.float64)
        self._csr_ok = False
        self._csr_dead = 0
        # adds+removes since the last allocation: a rebuild only pays for
        # slack regions and the back-map when recent churn was small
        # enough that patching can keep the structure alive
        self._churn_units = 0

        # warm-start state: water level at which each link saturated in
        # the last full pass (+inf = never), and the links that were set
        # (the mask mirrors _level_links for O(batch) membership tests)
        self._levels = np.full(num_links, np.inf, dtype=np.float64)
        self._level_links = np.empty(0, dtype=np.int64)
        self._level_mask = np.zeros(num_links, dtype=bool)
        self._level_buf = np.empty(0, dtype=np.int64)
        self._have_levels = False

        # recorded per-iteration water-level increments and cumulative
        # levels of the last fill (full pass, or spliced by a relevel);
        # _seq_ok certifies the levels strictly increase, which the
        # relevel's threshold search and occupancy replay both rely on
        self._delta_seq = np.empty(0, dtype=np.float64)
        self._level_seq = np.empty(0, dtype=np.float64)
        self._seq_ok = False
        self._seq_buf_d = np.empty(0, dtype=np.float64)
        self._seq_buf_l = np.empty(0, dtype=np.float64)
        self._relevel_enabled = bool(relevel)

        # membership churn since the last allocation, as append-only key
        # lists compared as sorted arrays at allocation time (cheaper
        # than per-key dict upkeep when batches have all-distinct
        # routes).  Removed routes are kept (key-aligned) until the next
        # allocation — they pin the interned arrays so ids cannot be
        # recycled mid-flight, and the relevel path reads the net-removed
        # ones; added routes are pinned by the slot table itself.
        self._added_keys: list[int] = []
        self._removed_keys: list[int] = []
        self._removed_routes: list[np.ndarray] = []
        self._pending_new: list[int] = []

        #: Allocation counters (read by benchmarks and tests).
        self.full_passes = 0
        self.warm_fills = 0
        self.relevel_fills = 0

    # ---------------------------------------------------------------- views
    @property
    def size(self) -> int:
        """Number of active flows."""
        return self._m

    @property
    def flow_ids(self) -> np.ndarray:
        """Dense flow-id vector (view; invalidated by add/remove)."""
        return self._flow_ids[:self._m]

    @property
    def rates(self) -> np.ndarray:
        """Per-flow rates aligned with :attr:`flow_ids` (view)."""
        return self._rates[:self._m]

    @property
    def weights(self) -> np.ndarray:
        """Per-flow bandwidth weights aligned with :attr:`flow_ids`."""
        return self._weights[:self._m]

    def route_list(self) -> list[np.ndarray]:
        """Active routes in slot order (for the metrics collector)."""
        return self._routes[:self._m]  # type: ignore[return-value]

    def slots_of(self, fids: np.ndarray) -> np.ndarray:
        """Current slots of the active flows ``fids`` (their positions in
        :attr:`flow_ids` and :attr:`rates`)."""
        return self._slot_arr[fids]

    # ----------------------------------------------------------- membership
    def add(self, fid: int, route: np.ndarray, *, rate: float = 0.0,
            weight: float = 1.0) -> None:
        """Admit flow ``fid`` with the given route (O(route length)).

        ``rate`` seeds the flow's current rate (approx-mode inheritance);
        it is overwritten by the next allocation.
        """
        length = route.shape[0]
        if length == 0:
            raise SimulationError(
                f"flow {fid} has an empty route; zero-hop flows never "
                "enter the active set")
        self._ensure_slot_arr(fid)
        if self._slot_arr[fid] >= 0:
            raise SimulationError(f"flow {fid} is already active")
        if weight <= 0:
            raise SimulationError("flow weights must be strictly positive")
        slot = self._m
        if slot == self._flow_ids.shape[0]:
            self._grow_slots()
        if self._tail + length > self._entries.shape[0]:
            self._make_room(length)
        start = self._tail
        self._entries[start:start + length] = route
        self._tail = start + length
        self._live_nnz += length
        self._flow_ids[slot] = fid
        self._rates[slot] = rate
        self._weights[slot] = weight
        self._starts[slot] = start
        self._lens[slot] = length
        self._route_key[slot] = id(route)
        self._routes[slot] = route
        self._slot_arr[fid] = slot
        self._m = slot + 1
        self._churn_units += 1
        if self.occupancy is not None:
            self.occupancy[route] += 1  # routes are simple paths
        if self._csr_ok:
            self._csr_patch_add(fid, route, start, length)
        self._added_keys.append(id(route))
        self._pending_new.append(fid)

    def add_many(self, fids: np.ndarray, routes: list[np.ndarray], *,
                 weights: np.ndarray | None = None,
                 rates: np.ndarray | None = None) -> None:
        """Admit a batch of flows in one vectorised pass.

        Equivalent to calling :meth:`add` per flow in order, but the slot
        arrays, the entries pool and the churn log are updated in bulk
        instead of per flow.  ``rates`` seeds each flow's allocation (the
        approx-fidelity engine inherits a predecessor's last rate at
        release); flows start at ``0.0`` until the next fill otherwise.
        """
        k = len(routes)
        if k == 0:
            return
        fids = np.asarray(fids, dtype=np.int64)
        lens = np.fromiter((r.shape[0] for r in routes), count=k,
                           dtype=np.int64)
        if not (lens > 0).all():
            bad = int(fids[np.fromiter(
                (r.shape[0] == 0 for r in routes), count=k, dtype=bool)][0])
            raise SimulationError(
                f"flow {bad} has an empty route; zero-hop flows never "
                "enter the active set")
        if weights is not None and not (weights > 0).all():
            raise SimulationError("flow weights must be strictly positive")
        self._ensure_slot_arr(int(fids.max()))
        if (self._slot_arr[fids] >= 0).any() or \
                np.unique(fids).shape[0] != k:
            raise SimulationError("batch admission repeats an active flow")
        m = self._m
        while m + k > self._flow_ids.shape[0]:
            self._grow_slots()
        total = int(lens.sum())
        if self._tail + total > self._entries.shape[0]:
            self._make_room(total)
        start0 = self._tail
        block = routes[0] if k == 1 else np.concatenate(routes)
        self._entries[start0:start0 + total] = block
        self._tail = start0 + total
        self._live_nnz += total
        starts = np.zeros(k, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        starts += start0
        sl = slice(m, m + k)
        self._flow_ids[sl] = fids
        self._rates[sl] = 0.0 if rates is None else rates
        self._weights[sl] = 1.0 if weights is None else weights
        self._starts[sl] = starts
        self._lens[sl] = lens
        keys = np.fromiter((id(r) for r in routes), count=k, dtype=np.int64)
        self._route_key[sl] = keys
        self._routes[m:m + k] = routes
        self._slot_arr[fids] = np.arange(m, m + k, dtype=np.int64)
        self._m = m + k
        self._churn_units += k
        if self.occupancy is not None:
            # links can repeat across the batch's routes, so accumulate
            np.add.at(self.occupancy, block, 1)
        if self._csr_ok:
            if k > max(_PATCH_MAX, m >> 3):
                self._csr_ok = False
            else:
                for i in range(k):
                    self._csr_patch_add(int(fids[i]), routes[i],
                                        int(starts[i]), int(lens[i]))
                    if not self._csr_ok:
                        break
        self._added_keys.extend(keys.tolist())
        self._pending_new.extend(fids.tolist())

    def remove(self, fid: int) -> float:
        """Retire flow ``fid`` and return its last allocated rate (O(1)
        slot work plus O(1) churn bookkeeping)."""
        if not 0 <= fid < self._slot_arr.shape[0] or self._slot_arr[fid] < 0:
            raise SimulationError(f"flow {fid} is not active")
        slot = int(self._slot_arr[fid])
        self._slot_arr[fid] = -1
        rate = float(self._rates[slot])
        route = self._routes[slot]
        assert route is not None
        self._live_nnz -= int(self._lens[slot])
        self._removed_keys.append(id(route))
        self._removed_routes.append(route)
        self._churn_units += 1
        if self.occupancy is not None:
            self.occupancy[route] -= 1
        if self._csr_ok:
            s = int(self._starts[slot])
            e = s + int(self._lens[slot])
            self._csr_flows[self._pos_in_csr[s:e]] = -1
            self._csr_dead += e - s
            self._counts_base[route] -= 1.0
        last = self._m - 1
        if slot != last:
            self._flow_ids[slot] = self._flow_ids[last]
            self._rates[slot] = self._rates[last]
            self._weights[slot] = self._weights[last]
            self._starts[slot] = self._starts[last]
            self._lens[slot] = self._lens[last]
            self._route_key[slot] = self._route_key[last]
            self._routes[slot] = self._routes[last]
            self._slot_arr[int(self._flow_ids[slot])] = slot
        self._flow_ids[last] = -1
        self._routes[last] = None
        self._m = last
        return rate

    def remove_many(self, fids: np.ndarray) -> None:
        """Retire a batch of flows in one vectorised pass.

        Equivalent to calling :meth:`remove` per flow (return values
        aside); the freed low slots are refilled with the surviving tail
        slots so the set stays dense, with O(moved slots) Python work
        instead of O(flows).
        """
        k = fids.shape[0]
        if k == 0:
            return
        if k == 1:
            self.remove(int(fids[0]))
            return
        fids = np.asarray(fids, dtype=np.int64)
        if fids.min() < 0 or int(fids.max()) >= self._slot_arr.shape[0]:
            raise SimulationError("batch removal names an inactive flow")
        slots = self._slot_arr[fids]
        if (slots < 0).any() or np.unique(slots).shape[0] != k:
            raise SimulationError("batch removal names an inactive flow")

        routes = self._routes
        self._removed_keys.extend(self._route_key[slots].tolist())
        # key-aligned route references: they pin the removed arrays until
        # the next allocation and feed the relevel path's dirty-link set
        self._removed_routes.extend([routes[s] for s in slots.tolist()])

        self._churn_units += k
        if self.occupancy is not None:
            gone = self._entries[_slices_concat(
                self._starts[slots], self._starts[slots] + self._lens[slots])]
            np.subtract.at(self.occupancy, gone, 1)
        if self._csr_ok:
            if k > max(_PATCH_MAX, self._m >> 3):
                self._csr_ok = False
            else:
                idxp = _slices_concat(self._starts[slots],
                                      self._starts[slots] + self._lens[slots])
                self._csr_flows[self._pos_in_csr[idxp]] = -1
                self._csr_dead += idxp.shape[0]
                np.subtract.at(self._counts_base, self._entries[idxp], 1.0)

        self._live_nnz -= int(self._lens[slots].sum())
        m = self._m
        new_m = m - k
        removed = self._slot_flag  # borrowed scratch, reset below
        removed[slots] = True
        low = slots[slots < new_m]
        if low.shape[0]:
            src = new_m + np.flatnonzero(~removed[new_m:m])
            for name in ("_flow_ids", "_rates", "_weights", "_starts",
                         "_lens", "_route_key"):
                arr = getattr(self, name)
                arr[low] = arr[src]
            for i, j in zip(low.tolist(), src.tolist()):
                routes[i] = routes[j]
            self._slot_arr[self._flow_ids[low]] = low
        removed[slots] = False
        self._slot_arr[fids] = -1
        self._flow_ids[new_m:m] = -1
        self._routes[new_m:m] = [None] * k
        self._m = new_m

    def _csr_patch_add(self, fid: int, route: np.ndarray, start: int,
                       length: int) -> None:
        """Append one admitted flow into its links' CSR slack regions.

        Falls back to a rebuild (``_csr_ok = False``) when any region is
        full.  Routes are simple paths (no repeated link), which the
        per-link append relies on.
        """
        cl = self._csr_len[route]
        if (cl >= self._csr_cap[route]).any():
            self._csr_ok = False
            return
        q = self._csr_start[route] + cl
        self._csr_flows[q] = fid
        self._pos_in_csr[start:start + length] = q
        self._csr_len[route] = cl + 1
        self._counts_base[route] += 1.0

    def _net_removed_routes(self) -> list[np.ndarray] | None:
        """The distinct routes removed more often than added since the
        last allocation, or ``None`` when any route was *net added*.

        ``[]`` therefore means the added and removed keys form the same
        multiset (the plain warm path's eligibility); a non-empty list is
        the relevel path's input — the only routes whose links' occupancy
        shrank.  Multiplicity beyond one does not matter downstream (only
        the union of dirty links is used), so distinct routes suffice.
        """
        added = self._added_keys
        removed = self._removed_keys
        if len(added) > len(removed):
            return None
        if not removed:
            return []
        ra, rc = np.unique(np.asarray(removed, dtype=np.int64),
                           return_counts=True)
        if added:
            aa, ac = np.unique(np.asarray(added, dtype=np.int64),
                               return_counts=True)
            pos = np.searchsorted(ra, aa)
            if bool((pos >= ra.shape[0]).any()) \
                    or not bool((ra[pos] == aa).all()) \
                    or bool((ac > rc[pos]).any()):
                return None
            rc = rc.copy()
            rc[pos] -= ac
        net_keys = ra[rc > 0]
        if net_keys.shape[0] == 0:
            return []
        by_key = dict(zip(self._removed_keys, self._removed_routes))
        return [by_key[key] for key in net_keys.tolist()]

    def _clear_churn(self) -> None:
        self._added_keys.clear()
        self._removed_keys.clear()
        self._removed_routes.clear()
        self._pending_new.clear()

    def _ensure_slot_arr(self, fid: int) -> None:
        if fid < 0:
            raise SimulationError(f"flow ids must be non-negative, got {fid}")
        if fid >= self._slot_arr.shape[0]:
            size = self._slot_arr.shape[0]
            while size <= fid:
                size *= 2
            grown = np.full(size, -1, dtype=np.int64)
            grown[:self._slot_arr.shape[0]] = self._slot_arr
            self._slot_arr = grown

    # ------------------------------------------------------------ allocation
    def allocate(self, stats: dict | None = None) -> np.ndarray:
        """Assign exact max-min rates to every active flow.

        Takes the O(changed) warm path when the route multiset is
        unchanged, the suffix-resumed relevel when it shrank (see module
        docstring), and the CSR-backed full pass otherwise.  ``stats``,
        when a dict, receives ``iterations`` (0 on the warm path),
        ``warm`` and ``relevel``.  Returns the dense rates view.
        """
        if self._m == 0:
            self._clear_churn()
            if stats is not None:
                stats["iterations"] = 0
                stats["warm"] = False
            return self._rates[:0]
        if self._have_levels and not self._weighted:
            net = self._net_removed_routes()
            if net is not None:
                if not net:
                    if self._warm_fill():
                        self.warm_fills += 1
                        self._churn_units = 0
                        self._clear_churn()
                        if stats is not None:
                            stats["iterations"] = 0
                            stats["warm"] = True
                        return self._rates[:self._m]
                elif self._relevel_enabled:
                    iterations = self._relevel_fill(net)
                    if iterations >= 0:
                        self.relevel_fills += 1
                        self._churn_units = 0
                        self._clear_churn()
                        if stats is not None:
                            stats["iterations"] = iterations
                            stats["warm"] = True
                            stats["relevel"] = True
                        return self._rates[:self._m]
        iterations = self._full_pass()
        self.full_passes += 1
        self._clear_churn()
        if stats is not None:
            stats["iterations"] = iterations
            stats["warm"] = False
        return self._rates[:self._m]

    def _warm_fill(self) -> bool:
        """Rate the flows added since the last allocation from the
        recorded water levels; ``False`` falls back to a full pass.

        The segmented minimum reads the pooled route copies, which hold
        the same link ids as the interned route arrays."""
        if not self._pending_new:
            return True
        pending = np.asarray(self._pending_new, dtype=np.int64)
        return bool(numpy_fill.warm_fill(
            self._levels, self._entries, self._starts, self._lens,
            self._slot_arr, pending, self._rates))

    def _relevel_fill(self, net_routes: list[np.ndarray]) -> int:
        """Resume the recorded fill above the churn's water threshold.

        ``net_routes`` are the net-removed routes (see
        :meth:`_net_removed_routes`; non-empty).  Returns the suffix
        iteration count on success, ``-1`` to fall back to a full pass.
        On success, rates, levels and the recorded sequences are exactly
        what a full pass would have produced, so relevels compose across
        consecutive events.
        """
        if not (self._csr_ok and self._seq_ok and self._caps_all_positive):
            return -1
        k_seq = self._level_seq.shape[0]
        if k_seq == 0:
            return -1
        m = self._m
        dirty = net_routes[0] if len(net_routes) == 1 \
            else np.concatenate(net_routes)
        # every removed flow was rated, so its bottleneck link holds a
        # finite recorded level: tmin is finite and positive
        tmin = float(self._levels[dirty].min())
        if not 0.0 < tmin < np.inf:
            return -1
        k = int(np.searchsorted(self._level_seq, tmin, side="left"))
        if k == 0:
            # the threshold undercuts the first recorded level: the whole
            # fill would replay, and a full pass is strictly cheaper
            return -1

        # rate the pending admissions from the recorded levels: each was
        # matched by a removal with the identical route, so the minimum
        # recorded level along it is the retired twin's exact rate
        # (+inf = bottlenecked only above the threshold; resolved below)
        if self._pending_new:
            slots, mins = numpy_fill.pending_minima(
                self._levels, self._entries, self._starts, self._lens,
                self._slot_arr, np.asarray(self._pending_new, dtype=np.int64))
            if bool((mins <= 0.0).any()):
                return -1
            self._rates[slots] = mins

        # flows rated at or above the threshold are re-levelled; all
        # others froze strictly below it and keep their (final) rates
        participants = np.flatnonzero(self._rates[:m] >= tmin)
        npart = int(participants.shape[0])
        if npart:
            pstarts = self._starts[participants]
            plens = self._lens[participants]
            plinks = self._entries[_slices_concat(pstarts,
                                                  pstarts + plens)]
            suffix = np.unique(np.concatenate((plinks, dirty)))
        else:
            plinks = None
            suffix = np.unique(dirty)
        # cost guard: the replay walks every suffix CSR row plus k
        # iterations per suffix link — past the live incidence size a
        # full pass is the cheaper option
        if int(self._csr_len[suffix].sum()) + k * suffix.shape[0] \
                > self._live_nnz:
            return -1

        counts = self._counts
        counts[suffix] = 0.0
        if plinks is not None:
            np.add.at(counts, plinks, 1.0)
        act = suffix[counts[suffix] > 0.0]
        # every level written below must be covered by the next full
        # pass's inf-reset, including links saturating for the first time
        newly = suffix[~self._level_mask[suffix]]
        if newly.shape[0]:
            self._level_links = np.concatenate((self._level_links, newly))
            self._level_mask[newly] = True
        self._levels[suffix] = np.inf
        level0 = float(self._level_seq[k - 1])
        if self._level_buf.shape[0] < act.shape[0]:
            self._level_buf = np.empty(act.shape[0], dtype=np.int64)
        seq_d = np.empty(act.shape[0] + 1, dtype=np.float64)
        seq_l = np.empty(act.shape[0] + 1, dtype=np.float64)
        # partially written rates/levels are fine on either fallback
        # below: the full pass rewrites every rate and resets every level
        # in _level_links, which covers the whole suffix
        if not numpy_fill.replay_prefix(
                self.capacities, self._sat_floor, self._cap_rem,
                self._csr_start, self._csr_len, self._csr_flows,
                self._slot_arr, self._rates, act, self._delta_seq,
                self._level_seq, k):
            # a replayed link saturated inside the prefix: the
            # invariance proof does not hold, take the full pass
            return -1
        frozen = self._slot_flag  # borrowed scratch, reset on exit
        try:
            status, iterations, _ = numpy_fill.water_fill(
                self._sat_floor, self._cap_rem, counts, self._levels,
                self._csr_start, self._csr_len, self._csr_flows,
                self._entries, self._starts, self._lens, self._slot_arr,
                self._rates, frozen, None, act, level0, npart, tmin,
                self._level_buf, seq_d, seq_l)
        finally:
            frozen[:m] = False
        if status != 0:
            return -1
        self._delta_seq = np.concatenate(
            (self._delta_seq[:k], seq_d[:iterations]))
        self._level_seq = np.concatenate(
            (self._level_seq[:k], seq_l[:iterations]))
        self._seq_ok = bool((np.diff(self._level_seq) > 0.0).all())
        return iterations

    def _csr_rebuild(self, weights: np.ndarray | None,
                     slack: bool) -> None:
        """Rebuild the persistent link→flows CSR from the pool.

        Vectorised (one stable ``argsort`` over the live entries); also
        recomputes the per-link occupancy into ``self._counts``.  With
        ``slack`` each link's flows get headroom and the pool→CSR
        back-map is built, so later small membership batches patch the
        structure in place; without it (bulk churn, or a weighted set,
        whose occupancy depends on the weights) the CSR is packed tight
        and valid for this pass only.
        """
        m = self._m
        counts = self._counts
        num_links = counts.shape[0]
        idx = _slices_concat(self._starts[:m],
                             self._starts[:m] + self._lens[:m])
        work_e = self._entries[idx]
        work_o = np.repeat(np.arange(m, dtype=np.int64), self._lens[:m])
        if self._tail - self._live_nnz > max(_COMPACT_SLACK, self._live_nnz):
            self._compact(work_e)
            idx = np.arange(work_e.shape[0], dtype=np.int64)

        link_nnz = np.bincount(work_e, minlength=num_links).astype(np.int64)
        if weights is None:
            np.copyto(counts, link_nnz)
        else:
            np.copyto(counts, np.bincount(work_e, weights=weights[work_o],
                                          minlength=num_links))
        order = np.argsort(work_e, kind="stable")
        fids_sorted = self._flow_ids[:m][work_o[order]]
        if slack and weights is None:
            cap = link_nnz + (link_nnz >> 1) + 4
            self._csr_start[0] = 0
            np.cumsum(cap[:-1], out=self._csr_start[1:])
            total = int(self._csr_start[-1] + cap[-1])
            if self._csr_flows.shape[0] < total:
                self._csr_flows = np.empty(
                    max(total, 2 * self._csr_flows.shape[0]), dtype=np.int64)
            sorted_e = work_e[order]
            first = np.zeros(num_links, dtype=np.int64)
            np.cumsum(link_nnz[:-1], out=first[1:])
            q = self._csr_start[sorted_e] + \
                (np.arange(sorted_e.shape[0], dtype=np.int64)
                 - first[sorted_e])
            self._csr_flows[q] = fids_sorted
            self._pos_in_csr[idx[order]] = q
            np.copyto(self._csr_cap, cap)
            np.copyto(self._counts_base, counts)
            self._csr_ok = True
        else:
            nnz = work_e.shape[0]
            if self._csr_flows.shape[0] < nnz:
                self._csr_flows = np.empty(
                    max(nnz, 2 * self._csr_flows.shape[0]), dtype=np.int64)
            self._csr_flows[:nnz] = fids_sorted
            self._csr_start[0] = 0
            np.cumsum(link_nnz[:-1], out=self._csr_start[1:])
            self._csr_ok = False
        np.copyto(self._csr_len, link_nnz)
        self._csr_dead = 0

    def _full_pass(self) -> int:
        """Progressive filling over the live incidence.

        Mirrors the reference :func:`repro.engine.maxmin.allocate`
        arithmetic per link, so rates agree with a from-scratch reference
        run on the same flows.  The persistent link→flows CSR lets each
        saturated link freeze exactly its own flows, so total freeze work
        is amortised O(total route length) per pass — the water-level
        iteration count does not multiply it — and when the CSR survived
        the event's membership patches, the pass skips the O(nnz)
        gather/sort/occupancy setup entirely.  The water-level loop is
        :func:`repro.engine.kernels.numpy_fill.water_fill`, started at
        level zero with every flow unfrozen.
        """
        m = self._m
        counts = self._counts
        weights = self._weights[:m] if self._weighted else None

        if self._csr_ok and self._csr_dead * 4 <= self._live_nnz:
            np.copyto(counts, self._counts_base)
        else:
            self._csr_rebuild(
                weights,
                slack=self._churn_units <= max(_PATCH_MAX, m >> 3))
        self._churn_units = 0

        act = np.flatnonzero(counts > 0)
        if not self._caps_all_positive and \
                bool((self.capacities[act] <= 0).any()):
            raise SimulationError("active flow crosses a zero-capacity link")
        self._cap_rem[act] = self.capacities[act]
        self._levels[self._level_links] = np.inf
        if self._level_buf.shape[0] < act.shape[0]:
            self._level_buf = np.empty(act.shape[0], dtype=np.int64)
        if self._seq_buf_d.shape[0] < act.shape[0] + 1:
            self._seq_buf_d = np.empty(act.shape[0] + 1, dtype=np.float64)
            self._seq_buf_l = np.empty(act.shape[0] + 1, dtype=np.float64)

        frozen = self._slot_flag  # borrowed scratch, reset on exit
        try:
            status, iterations, nsat = numpy_fill.water_fill(
                self._sat_floor, self._cap_rem, counts, self._levels,
                self._csr_start, self._csr_len, self._csr_flows,
                self._entries, self._starts, self._lens, self._slot_arr,
                self._rates, frozen, weights, act, 0.0, m,
                None, self._level_buf, self._seq_buf_d, self._seq_buf_l)
        finally:
            frozen[:m] = False

        if status == 1:
            raise SimulationError("allocation left flows without a bottleneck")
        if status == 2:  # pragma: no cover - progressive filling terminates
            raise SimulationError("progressive filling failed to converge")
        self._level_mask[self._level_links] = False
        self._level_links = self._level_buf[:nsat].copy()
        self._level_mask[self._level_links] = True
        self._have_levels = not self._weighted
        if self._weighted:
            self._seq_ok = False
        else:
            self._delta_seq = self._seq_buf_d[:iterations].copy()
            self._level_seq = self._seq_buf_l[:iterations].copy()
            self._seq_ok = bool(
                (np.diff(self._level_seq) > 0.0).all())
        return iterations

    # ------------------------------------------------------------- plumbing
    def _grow_slots(self) -> None:
        new = max(_MIN_SLOTS, 2 * self._flow_ids.shape[0])
        for name in ("_flow_ids", "_rates", "_weights", "_starts", "_lens",
                     "_route_key", "_slot_flag"):
            old = getattr(self, name)
            arr = np.zeros(new, dtype=old.dtype)
            arr[:old.shape[0]] = old
            setattr(self, name, arr)
        self._flow_ids[self._m:] = -1
        self._routes.extend([None] * (new - len(self._routes)))

    def _make_room(self, extra: int) -> None:
        """Compact the entries pool and/or grow it to fit ``extra``."""
        if self._tail - self._live_nnz > 0:
            m = self._m
            idx = _slices_concat(self._starts[:m],
                                 self._starts[:m] + self._lens[:m])
            self._compact(self._entries[idx])
        needed = self._tail + extra
        if needed > self._entries.shape[0]:
            size = max(_MIN_ENTRIES, self._entries.shape[0])
            while size < needed:
                size *= 2
            pool = np.empty(size, dtype=np.int64)
            pool[:self._tail] = self._entries[:self._tail]
            self._entries = pool
            # pool indices are preserved by growth, so the CSR back-map
            # stays valid — carry it over to the new capacity
            pos = np.empty(size, dtype=np.int64)
            pos[:self._tail] = self._pos_in_csr[:self._tail]
            self._pos_in_csr = pos

    def _compact(self, live_entries: np.ndarray) -> None:
        """Rewrite the pool as the given gathered live entries."""
        self._csr_ok = False  # pool indices move; the CSR back-map is stale
        m = self._m
        lens = self._lens[:m]
        self._entries[:live_entries.shape[0]] = live_entries
        starts = np.zeros(m, dtype=np.int64)
        if m > 1:
            np.cumsum(lens[:-1], out=starts[1:])
        self._starts[:m] = starts
        self._tail = int(live_entries.shape[0])
