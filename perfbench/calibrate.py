"""Host-speed calibration.

The shared hosts this benchmark runs on change speed by up to half for
seconds to minutes at a time, whatever the benchmark does (a fixed loop
took 15 ms in fast phases and 21-24 ms in slow ones).  Raw times then
measure the phase more than the program.  So every time metric is
reported *normalised*: the measured time multiplied by ``REF_S / cal``,
where ``cal`` is the time of a fixed kernel measured around it, on the
same host, in the same phase.  The result is still in seconds: the time
the operation would take on a host where the kernel takes ``REF_S``.
The kernel is the benchmark's own code and never changes with the
program, so a change to the program moves the normalised time exactly as
much as it moves the raw time.  Every run also keeps the raw times.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

#: Nominal kernel time: roughly its time in a fast phase of a 2-core
#: ``Intel(R) Xeon(R) Processor`` VM.  A constant, so that normalised
#: times from different runs and commits compare.
REF_S = 0.015

#: A measurement is normalised by the median of this many calibration
#: samples nearest to it in time.  One sample (3 kernel runs) is too noisy
#: on its own; nine span about 10 s, well inside a host phase.
NEAREST = 9

_ARRAY = np.linspace(1.0, 2.0, 100_000)


def _kernel() -> float:
    """Interpreter-bound and NumPy-bound work, like the program's."""
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    a = _ARRAY
    for _ in range(24):
        a = np.sqrt(a * 1.0001 + 0.5)
    return acc + float(a[-1])


def sample(repeats: int = 3) -> tuple[float, float]:
    """One calibration sample: ``(when, kernel time)``, the median of
    ``repeats`` kernel runs, ``when`` on the ``time.perf_counter`` clock."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return time.perf_counter(), median(times)


def normalise(spans: list[tuple[float, float]],
              cals: list[tuple[float, float]]) -> list[float]:
    """The normalised duration of each ``(start, end)`` span (on the
    ``time.perf_counter`` clock), by the calibration samples nearest its
    middle."""
    out = []
    for start, end in spans:
        mid = (start + end) / 2.0
        near = sorted(cals, key=lambda c: abs(c[0] - mid))[:NEAREST]
        out.append((end - start) * REF_S / median(c for _, c in near))
    return out
