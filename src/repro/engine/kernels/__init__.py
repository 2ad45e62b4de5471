"""Progressive-filling kernels of the incremental allocator.

:mod:`repro.engine.kernels.numpy_fill` holds the water-level loop, the
warm-fill replay and the relevel's prefix replay that
:class:`~repro.engine.active.ActiveSet` runs on every allocation.
"""

from __future__ import annotations


def default_name() -> str:
    """Name of the fill implementation, always ``"numpy"``.

    Kept because the benchmark harness records it as ``kernel_backend``
    in every host record (``perfbench/common.py``).
    """
    return "numpy"
