"""Differential-test harness for engine-equivalence suites.

Two suites drive this module:

* ``tests/test_kernel_diff.py`` runs one scenario under every *available*
  fill-kernel backend (:func:`repro.engine.kernels.use` pins the backend
  for every :class:`~repro.engine.active.ActiveSet` the scenario builds)
  and asserts the results are bitwise-identical;
* ``tests/test_batched_loop.py`` runs one scenario under the vectorised
  and the historical per-flow completion walks (the event loop's
  ``per_flow`` switch) with the same assertion.

"Bitwise-identical" here means every float in the
:class:`~repro.engine.results.SimulationResult` compares equal (NaN
patterns included), not merely close: the compiled kernels and the
batched event loop are specified as *exact* replacements, so any ULP of
drift is a bug, not noise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine import kernels
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


def assert_same_allocator_work(a: SimulationResult,
                               b: SimulationResult,
                               label_a: str, label_b: str) -> None:
    """Assert two runs did the same full-pass/warm-fill split.

    Separate from :func:`assert_results_identical` because the per-flow
    and batched event loops legitimately differ here (admission
    granularity changes how often the warm path applies) while kernel
    backends must not.
    """
    ctx = f"[{label_a} vs {label_b}]"
    for key in ("full_passes", "warm_fills", "relevel_fills"):
        assert a.allocator_stats[key] == b.allocator_stats[key], \
            (f"{ctx} allocator_stats[{key!r}] "
             f"{a.allocator_stats[key]} != {b.allocator_stats[key]}")


def run_all_backends(scenario: Callable[[], SimulationResult]
                     ) -> tuple[SimulationResult, list[str]]:
    """Run ``scenario`` once per available kernel backend and diff.

    The numpy reference backend always runs (and runs *first*), so the
    pure-NumPy path is exercised even on machines with the ``[fast]``
    extra installed.  Returns the reference result and the list of
    backends exercised.
    """
    names = list(kernels.available())
    assert names[0] == "numpy"
    results: list[tuple[str, SimulationResult]] = []
    for name in names:
        with kernels.use(name):
            results.append((name, scenario()))
    base_name, base = results[0]
    for name, other in results[1:]:
        assert_results_identical(base, other, base_name, name)
        assert_same_allocator_work(base, other, base_name, name)
    return base, names
