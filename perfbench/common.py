"""Statistics, seeding and machine facts shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import time
from typing import Any, Dict, List, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_for_tail(pct: float) -> int:
    """Samples needed so that at least ten lie beyond the *pct* percentile."""
    return int(round(10 / (1 - pct / 100.0)))


def session_seeds(seed: int, count: int) -> List[int]:
    """The per-session program seeds a workload seed expands to."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def records_digest(record_dicts: Sequence[Dict[str, Any]]) -> str:
    """Order-sensitive digest of serialized trial records."""
    text = json.dumps(list(record_dicts), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def tree_bytes(*paths: str) -> int:
    """Bytes on disk of the given files and directory trees."""
    total = 0
    for path in paths:
        if os.path.isdir(path):
            for directory, _, files in os.walk(path):
                total += sum(os.path.getsize(os.path.join(directory, name))
                             for name in files)
        else:
            total += os.path.getsize(path)
    return total


def machine() -> Dict[str, Any]:
    """Host facts printed with every result, so hosts are never mixed up."""
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


class Budget:
    """Decides whether another repetition fits the measuring time."""

    def __init__(self, seconds: float, minimum: int) -> None:
        self.deadline = time.perf_counter() + seconds
        self.minimum = minimum
        self.durations: List[float] = []

    def another(self) -> bool:
        if len(self.durations) < self.minimum:
            return True
        expected = median(self.durations)
        return time.perf_counter() + expected <= self.deadline

    def record(self, started: float) -> None:
        self.durations.append(time.perf_counter() - started)
