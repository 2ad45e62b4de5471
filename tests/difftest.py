"""Differential-test helpers for the engine-equivalence suites.

* :func:`assert_results_identical` pins two runs of one scenario to
  bitwise-identical results — the batched vs per-flow event loop
  (``tests/test_batched_loop.py``), relevel vs full passes
  (``tests/test_exact_batch.py``, ``tests/test_kernel_diff.py``).
  "Bitwise-identical" means every float in the
  :class:`~repro.engine.results.SimulationResult` compares equal (NaN
  patterns included), not merely close: those paths are specified as
  *exact* replacements, so any ULP of drift is a bug, not noise.
* :func:`assert_matches_rebuild` runs one scenario on the incremental
  and the historical rebuild engine and compares them at the suites'
  tolerances.
* :func:`reference_rates` recomputes an
  :class:`~repro.engine.active.ActiveSet`'s allocation from scratch with
  the reference :func:`repro.engine.maxmin.allocate`.
"""

from __future__ import annotations

import numpy as np

import pytest

from repro.engine import simulate
from repro.engine.active import ActiveSet
from repro.engine.maxmin import allocate
from repro.engine.results import SimulationResult


def assert_results_identical(a: SimulationResult, b: SimulationResult,
                             label_a: str, label_b: str) -> None:
    """Assert two simulation results are bitwise-identical."""
    ctx = f"[{label_a} vs {label_b}]"
    assert a.makespan == b.makespan, \
        f"{ctx} makespan {a.makespan!r} != {b.makespan!r}"
    np.testing.assert_array_equal(
        a.completion_times, b.completion_times,
        err_msg=f"{ctx} completion_times differ")
    np.testing.assert_array_equal(
        a.start_times, b.start_times, err_msg=f"{ctx} start_times differ")
    assert a.events == b.events, \
        f"{ctx} events {a.events} != {b.events}"
    assert a.reallocations == b.reallocations, \
        f"{ctx} reallocations {a.reallocations} != {b.reallocations}"
    assert a.fidelity == b.fidelity and a.num_flows == b.num_flows, ctx
    assert a.transient == b.transient, \
        f"{ctx} transient counters {a.transient} != {b.transient}"


def assert_matches_rebuild(topology, flows, **kwargs) -> SimulationResult:
    """Incremental vs rebuild engine on one scenario: event and
    reallocation counts equal, makespan to 1e-12 relative, completion
    times to 1e-9.  Returns the incremental result."""
    inc = simulate(topology, flows, **kwargs)
    reb = simulate(topology, flows, allocator="rebuild", **kwargs)
    assert inc.events == reb.events
    assert inc.reallocations == reb.reallocations
    assert inc.makespan == pytest.approx(reb.makespan, rel=1e-12)
    np.testing.assert_allclose(inc.completion_times, reb.completion_times,
                               rtol=1e-9)
    return inc


def reference_rates(active: ActiveSet, capacities: np.ndarray,
                    weighted: bool) -> np.ndarray:
    """Reference allocation over the set's current flows (slot order),
    on a CSR concatenated from :meth:`ActiveSet.route_list`."""
    routes = active.route_list()
    ptr = np.zeros(len(routes) + 1, dtype=np.int64)
    np.cumsum([r.shape[0] for r in routes], out=ptr[1:])
    return allocate(np.concatenate(routes), ptr, capacities,
                    active.weights.copy() if weighted else None)
