"""Reference implementations the bit-identity tests pin production code to.

These are the straightforward, materializing versions of paths that
production code serves a faster way.  They live with the tests, not in
``src/``, because nothing but the tests (and the benchmarks measuring the
fast paths against them) calls them.
"""

from __future__ import annotations

from statistics import mean
from typing import List, Tuple

from repro.analysis.campaign_report import CampaignResults


def per_iteration_cost_series_reference(
        results: CampaignResults,
        algorithm: str) -> List[Tuple[float, float]]:
    """The pre-columnar oracle for ``per_iteration_cost_series``.

    Materializes every record dict and aggregates them the way the original
    reader did, so tests can pin the streaming path bit-identical.
    """
    per_experiment: List[List[float]] = []
    for entry in results.completed:
        if entry["spec"].get("algorithm") != algorithm:
            continue
        records = results.document(entry["name"]).get("records", [])
        durations = [float(record.get("duration_s", 0.0))
                     for record in sorted(records,
                                          key=lambda r: int(r["index"]))]
        if durations:
            per_experiment.append(durations)
    if not per_experiment:
        return []
    horizon = min(len(durations) for durations in per_experiment)
    return [(float(index),
             mean(durations[index] for durations in per_experiment))
            for index in range(horizon)]
