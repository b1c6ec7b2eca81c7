"""The Wayfinder benchmarking platform.

The platform automates the core loop of §3.1: pick a configuration, build and
boot an image for it, benchmark the application, record the result, and ask
the search algorithm for the next configuration.  It also implements the
skip-build optimization (reuse the running image when only runtime parameters
changed), tracks a virtual wall clock so time budgets behave like the paper's
multi-hour sessions without actually waiting, and exposes the exploration
history that the search algorithms and the analysis code consume.
"""

from repro.platform.executor import WorkerPoolBackend
from repro.platform.history import ExplorationHistory, TrialRecord
from repro.platform.metrics import (
    CompositeScoreMetric,
    LatencyMetric,
    MemoryFootprintMetric,
    Metric,
    ThroughputMetric,
    metric_for_application,
)
from repro.platform.pipeline import BenchmarkingPipeline, VirtualClock
from repro.platform.runner import SearchSession, SessionResult

__all__ = [
    "TrialRecord",
    "ExplorationHistory",
    "Metric",
    "ThroughputMetric",
    "LatencyMetric",
    "MemoryFootprintMetric",
    "CompositeScoreMetric",
    "metric_for_application",
    "VirtualClock",
    "BenchmarkingPipeline",
    "WorkerPoolBackend",
    "SearchSession",
    "SessionResult",
]
