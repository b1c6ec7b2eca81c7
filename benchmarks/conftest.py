"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced but
representative budget (the real experiments take hours of kernel builds and
benchmark runs; the simulated substrate reproduces their structure in
seconds).  Budgets scale with the ``REPRO_BENCH_SCALE`` environment variable:
``REPRO_BENCH_SCALE=3`` triples every iteration budget for higher-fidelity
curves, at the cost of proportionally longer benchmark runs.

The expensive search sessions behind Figure 6 / Table 2 / Table 3 / Figure 8
are executed once per pytest session and cached, so the dependent benchmarks
report different views of the same data instead of re-running the search.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

import pytest

from repro import Wayfinder
from repro.deeptune.transfer import transfer_model


def bench_scale() -> float:
    """Read the global budget multiplier from the environment."""
    try:
        return max(0.1, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def scaled(iterations: int) -> int:
    """Scale an iteration budget by REPRO_BENCH_SCALE (minimum of 10)."""
    return max(10, int(round(iterations * bench_scale())))


#: Applications of the main Linux evaluation (§4.1), in paper order.
LINUX_APPLICATIONS = ("nginx", "redis", "sqlite", "npb")

#: Iterations per search session in the Figure 6 reproduction (the paper uses
#: 250; the default here keeps the whole benchmark suite in the minutes range).
FIG6_ITERATIONS = 80

_fig6_cache: Optional[Dict] = None


def linux_wayfinder(application: str, algorithm: str, seed: int = 101,
                    algorithm_options: Optional[dict] = None) -> Wayfinder:
    """Build the standard §4.1 Wayfinder instance for *application*."""
    return Wayfinder.for_linux(
        application=application,
        metric="auto",
        version="v4.19",
        algorithm=algorithm,
        favor="runtime",
        seed=seed,
        algorithm_options=algorithm_options,
    )


def time_observe(algorithm) -> List[float]:
    """Wrap *algorithm*'s ``observe`` so each call's wall time is recorded.

    Returns the list the per-call seconds are appended to: the Figure 8
    model-update time (encoding the trial, updating the replay buffer and
    the bounded incremental training run).
    """
    times: List[float] = []
    observe = algorithm.observe

    def timed_observe(record):
        started = time.perf_counter()
        observe(record)
        times.append(time.perf_counter() - started)

    algorithm.observe = timed_observe
    return times


def run_fig6_sessions() -> Dict:
    """Run (once) the random / DeepTune / DeepTune+TL sessions for every app.

    Returns a mapping ``app -> {"random": SearchResult, "deeptune": SearchResult,
    "tl": SearchResult, "wayfinder": Wayfinder, "tl_wayfinder": Wayfinder,
    "update_times_s": [seconds per DeepTune observe]}`` plus the
    Redis-pretrained model under the key ``"pretrained_model"``.
    """
    global _fig6_cache
    if _fig6_cache is not None:
        return _fig6_cache

    iterations = scaled(FIG6_ITERATIONS)
    results: Dict = {}

    # Pre-train on Redis for the transfer-learning variant (§4.2 trains the
    # TL model on Redis and applies it to the other applications).
    pretrain = linux_wayfinder("redis", "deeptune", seed=202)
    pretrain_result = pretrain.specialize(iterations=iterations)
    pretrained_model = pretrain.trained_model()
    results["pretrained_model"] = pretrained_model
    results["pretrain_result"] = pretrain_result

    for index, application in enumerate(LINUX_APPLICATIONS):
        seed = 300 + index
        random_result = linux_wayfinder(application, "random", seed=seed) \
            .specialize(iterations=iterations)

        deeptune_wayfinder = linux_wayfinder(application, "deeptune", seed=seed)
        update_times_s = time_observe(deeptune_wayfinder.algorithm)
        deeptune_result = deeptune_wayfinder.specialize(iterations=iterations)

        tl_wayfinder = linux_wayfinder(
            application, "deeptune", seed=seed,
            algorithm_options={"model": transfer_model(pretrained_model),
                               "warmup_iterations": 0})
        tl_result = tl_wayfinder.specialize(iterations=iterations)

        results[application] = {
            "random": random_result,
            "deeptune": deeptune_result,
            "tl": tl_result,
            "wayfinder": deeptune_wayfinder,
            "tl_wayfinder": tl_wayfinder,
            "update_times_s": update_times_s,
        }
    _fig6_cache = results
    return results


@pytest.fixture(scope="session")
def fig6_sessions():
    """Session-scoped cache of the §4.1 / §4.2 search sessions."""
    return run_fig6_sessions()
