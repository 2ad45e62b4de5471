"""The benchmark host record names the engine's fill implementation.

``perfbench/common.py`` records ``repro.engine.kernels.default_name()``
as ``kernel_backend`` in every run's host record, so numbers from two
checkouts are only compared when they ran the same fills.
"""

from __future__ import annotations

from perfbench.common import host_info


class TestHostRecord:
    def test_kernel_backend_is_numpy(self):
        assert host_info()["kernel_backend"] == "numpy"
