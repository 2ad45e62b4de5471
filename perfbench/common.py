"""Helpers shared by every workload: host record, file guard, statistics,
peak memory and the per-seed reference cache."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import resource
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median  # noqa: F401  (shared with the workloads)

#: Committed records a run must leave byte-identical.
GUARDED_GLOBS = ("benchmarks/results/BENCH_*.json", "results/**/*")


@dataclass
class Context:
    """What one invocation of the benchmark works with."""

    root: Path          # checkout root (holds ``src/repro``)
    out: Path           # this run's private output directory
    refs: Path          # per-seed reference cache, shared across runs
    workload: str
    seed: int
    seconds: float


@dataclass
class Outcome:
    """What a workload reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def child_env(ctx: Context) -> dict[str, str]:
    """Environment for a child Python that must import this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ctx.root / "src"), env.get("PYTHONPATH")) if p)
    return env


def host_info() -> dict:
    """The facts that make numbers from two hosts comparable (or not)."""
    import numpy
    import scipy

    from repro.engine import kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 0
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.default_name(),
    }


def source_hash(root: Path) -> str:
    """Digest of the program's sources; keys the reference cache so a
    code change never compares against a stale reference."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def guarded_files(root: Path) -> dict[str, str]:
    """sha256 of every committed record the benchmark must not touch."""
    digests = {}
    for pattern in GUARDED_GLOBS:
        for path in sorted(root.glob(pattern)):
            if path.is_file():
                digests[str(path.relative_to(root))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return digests


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); ``inf`` entries
    (failed requests) sort last, so they count as missing any limit."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    if data[hi] == float("inf"):
        return data[hi] if pos > lo else data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child
    (sweep workers, the service subprocess), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def load_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def save_json(path: Path, doc) -> None:
    """Write atomically, so a killed run never leaves a torn reference."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, path)
