"""Cross-experiment aggregation and reporting for campaign directories.

The campaign runner leaves one history document per experiment plus a
manifest in the campaign directory; this module folds them into the
cross-experiment views the paper reports: a best-objective-per-application
table (columns per algorithm, Table 3 style), a time-to-best table per
algorithm (Figure 8's headline numbers), and a Figure 7-style
per-iteration cost series per algorithm.  Everything renders through the
plain-text :func:`~repro.analysis.reporting.format_table` /
:func:`~repro.analysis.reporting.format_series` helpers, so a campaign
report needs no plotting dependency — it is the text form of the figures.

The aggregation is the *streaming* tier of the storage lane: table builders
fold the manifest's per-experiment summaries (never trial records), and the
per-iteration cost series reads ``duration_s``/``index`` straight off each
experiment's mmap-backed :class:`~repro.platform.trialstore.ColumnarHistoryView`
— so a report over many 10⁵-trial experiments costs O(trials) numpy column
work and zero payload parsing, instead of JSON-decoding every stored
configuration.  It also never needs to rebuild the configuration spaces,
which keeps ``campaign report`` instant even for campaigns over
experiment-scale spaces.
"""

from __future__ import annotations

import os
from statistics import mean
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.reporting import format_series, format_table
from repro.platform.campaign_runner import (STATUS_COMPLETE, STATUS_FAILED,
                                            STATUS_FAILED_PERMANENT,
                                            load_manifest)
from repro.platform.trialstore import ColumnarHistoryView


class CampaignResults:
    """A loaded campaign directory: its manifest plus lazy per-experiment views."""

    def __init__(self, directory: str, manifest: Dict[str, Any]) -> None:
        self.directory = directory
        self.manifest = manifest
        self._views: Dict[str, ColumnarHistoryView] = {}

    @property
    def name(self) -> str:
        return self.manifest["campaign"]["name"]

    @property
    def experiments(self) -> List[Dict[str, Any]]:
        return list(self.manifest["experiments"])

    @property
    def completed(self) -> List[Dict[str, Any]]:
        return [entry for entry in self.manifest["experiments"]
                if entry["status"] == STATUS_COMPLETE]

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.manifest["experiments"]:
            counts[entry["status"]] = counts.get(entry["status"], 0) + 1
        return counts

    def axis_values(self, field: str) -> List[Any]:
        """Distinct values of one spec *field* across the grid, in grid order."""
        values: List[Any] = []
        for entry in self.manifest["experiments"]:
            value = entry["spec"].get(field)
            if value not in values:
                values.append(value)
        return values

    def view(self, name: str) -> ColumnarHistoryView:
        """The lazy columnar view of experiment *name* (cached).

        Numeric aggregation should go through this: columns stream off the
        mmap and the payload sidecar is never opened, so the cost is
        O(trials) column reads rather than O(total payload bytes) JSON.
        """
        if name not in self._views:
            from repro.platform.results import open_history_view

            path = os.path.join(self.directory, name + ".json")
            self._views[name] = open_history_view(path)
        return self._views[name]


def load_campaign(directory: str) -> CampaignResults:
    """Open a campaign directory written by the campaign runner."""
    return CampaignResults(directory, load_manifest(directory))


def _mean_or_none(values: List[float]) -> Optional[float]:
    return mean(values) if values else None


def _fmt(value: Optional[float], pattern: str = "{:.2f}") -> str:
    return "-" if value is None else pattern.format(value)


def _completed_matching(results: CampaignResults,
                        **spec_fields: Any) -> List[Dict[str, Any]]:
    matched = []
    for entry in results.completed:
        if all(entry["spec"].get(field) == value
               for field, value in spec_fields.items()):
            matched.append(entry)
    return matched


def best_objective_document(results: CampaignResults) -> Dict[str, Any]:
    """Raw (unformatted) Table 3-style data: application x algorithm means.

    The machine-readable twin of :func:`best_objective_table` — same rows,
    raw floats (``None`` for cells whose experiments have not completed).
    """
    algorithms = results.axis_values("algorithm")
    rows: List[List[Any]] = []
    for application in results.axis_values("application"):
        row: List[Any] = [application]
        for algorithm in algorithms:
            entries = _completed_matching(results, application=application,
                                          algorithm=algorithm)
            values = [entry["summary"]["best_objective"] for entry in entries
                      if entry["summary"].get("best_objective") is not None]
            row.append(_mean_or_none(values))
        rows.append(row)
    return {
        "title": "{}: mean best objective per application".format(results.name),
        "columns": ["application"] + list(algorithms),
        "rows": rows,
    }


def best_objective_table(results: CampaignResults) -> str:
    """Mean best objective per application x algorithm (Table 3 style).

    Seeds (and, when swept, favor presets) of the same grid cell are
    averaged; cells whose experiments have not completed render as ``-``.
    Renders :func:`best_objective_document`, so the text and JSON forms
    cannot drift apart.
    """
    document = best_objective_document(results)
    rows = [[row[0]] + [_fmt(value) for value in row[1:]]
            for row in document["rows"]]
    return format_table(document["columns"], rows, title=document["title"])


def _mean_utilization(entry: Dict[str, Any]) -> Optional[float]:
    """Fleet-mean worker utilization of one completed experiment, if stored."""
    per_worker = entry["summary"].get("worker_utilization")
    if not per_worker:
        return None
    return mean(per_worker)


def time_to_best_document(results: CampaignResults) -> Dict[str, Any]:
    """Raw per-algorithm efficiency data behind :func:`time_to_best_table`."""
    rows: List[List[Any]] = []
    for algorithm in results.axis_values("algorithm"):
        entries = _completed_matching(results, algorithm=algorithm)
        ttb = [entry["summary"]["time_to_best_s"] for entry in entries
               if entry["summary"].get("time_to_best_s") is not None]
        improvement = [entry["summary"]["improvement_factor"]
                       for entry in entries
                       if entry["summary"].get("improvement_factor") is not None]
        crash = [entry["summary"]["crash_rate"] for entry in entries
                 if entry["summary"].get("crash_rate") is not None]
        utilization = [value for value in map(_mean_utilization, entries)
                       if value is not None]
        rows.append([
            algorithm,
            len(entries),
            _mean_or_none([t / 3600.0 for t in ttb]),
            _mean_or_none(improvement),
            _mean_or_none(crash),
            _mean_or_none(utilization),
        ])
    return {
        "title": "{}: search efficiency per algorithm".format(results.name),
        "columns": ["algorithm", "experiments", "time to best (h)",
                    "improvement", "crash rate", "worker util"],
        "rows": rows,
    }


def time_to_best_table(results: CampaignResults) -> str:
    """Per-algorithm search efficiency: time-to-best, improvement, utilization."""
    document = time_to_best_document(results)
    rows = [(algorithm, experiments, _fmt(ttb_h),
             _fmt(improvement, "{:.2f}x"), _fmt(crash, "{:.0%}"),
             _fmt(utilization, "{:.0%}"))
            for algorithm, experiments, ttb_h, improvement, crash, utilization
            in document["rows"]]
    return format_table(tuple(document["columns"]), rows,
                        title=document["title"])


def per_iteration_cost_series(results: CampaignResults,
                              algorithm: str) -> List[Tuple[float, float]]:
    """Figure 7-style series: mean per-trial benchmarking cost by iteration.

    Each completed experiment of *algorithm* contributes its records'
    ``duration_s`` keyed by trial index; the series is the per-index mean,
    truncated to the shortest experiment so every point averages the same
    population.

    The per-experiment gather is the O(trials) part and runs vectorized on
    the columnar view (stable argsort + column fancy-index, no payload
    parsing).  The cross-experiment reduction stays on
    :func:`statistics.mean` — its exact rational summation is what the
    pre-columnar reader used, so the emitted floats are bit-identical
    (``tests/oracles.py`` keeps that reader to pin this in tests).
    """
    per_experiment: List[Any] = []
    for entry in _completed_matching(results, algorithm=algorithm):
        durations = results.view(entry["name"]).cost_by_iteration()
        if len(durations):
            per_experiment.append(durations)
    if not per_experiment:
        return []
    horizon = min(len(durations) for durations in per_experiment)
    if len(per_experiment) == 1:
        # mean([x]) == x exactly, so a single experiment's column can be
        # emitted directly — the common case for per-algorithm sweeps.
        column = per_experiment[0]
        return [(float(index), float(column[index]))
                for index in range(horizon)]
    return [(float(index),
             mean(float(durations[index]) for durations in per_experiment))
            for index in range(horizon)]


def warm_start_document(results: CampaignResults) -> Dict[str, Any]:
    """Warm-start provenance per experiment as raw table data.

    Completed experiments that adopted a zoo donor carry a ``warm_start``
    block in their stored summary (donor application, zoo entry,
    similarity score); this surfaces it instead of silently dropping it.
    Rows are empty for cold-started campaigns, and the table renders only
    when rows exist — same contract as the failed-experiments table.
    """
    rows: List[List[Any]] = []
    for entry in results.completed:
        provenance = (entry.get("summary") or {}).get("warm_start")
        if not provenance:
            continue
        rows.append([entry["name"],
                     provenance.get("donor"),
                     provenance.get("similarity"),
                     provenance.get("observations")])
    return {
        "title": "Warm-started experiments (donor picked from the surrogate zoo)",
        "columns": ["experiment", "donor", "similarity", "donor obs"],
        "rows": rows,
    }


def failed_experiments_document(results: CampaignResults) -> Dict[str, Any]:
    """Failed/quarantined experiments as raw table data (rows may be empty)."""
    failed = [entry for entry in results.experiments
              if entry["status"] in (STATUS_FAILED, STATUS_FAILED_PERMANENT)]
    return {
        "title": "Failed experiments (failed-permanent = quarantined)",
        "columns": ["experiment", "status", "attempts", "error"],
        "rows": [[entry["name"], entry["status"],
                  int(entry.get("attempts", 0)),
                  (entry.get("error") or "").strip().splitlines()[-1]
                  if (entry.get("error") or "").strip() else ""]
                 for entry in failed],
    }


def campaign_report_document(directory: str) -> Dict[str, Any]:
    """The whole campaign report as one JSON-representable document.

    This is the machine-readable form served by the tuning service's
    ``/v1/jobs/{id}/report`` endpoint and by ``campaign report --json``;
    :func:`render_campaign_report` formats the same per-table documents, so
    the two views agree cell for cell.  Series carry their full point
    lists (downsampling to ``max_points`` is a text-rendering concern).
    """
    results = load_campaign(directory)
    series = []
    for algorithm in results.axis_values("algorithm"):
        points = per_iteration_cost_series(results, algorithm)
        if points:
            series.append({"algorithm": algorithm,
                           "points": [[index, cost]
                                      for index, cost in points]})
    return {
        "campaign": results.name,
        "experiments": len(results.experiments),
        "status": results.status_counts(),
        "best_objective": best_objective_document(results),
        "time_to_best": time_to_best_document(results),
        "per_iteration_cost": series,
        "warm_start": warm_start_document(results),
        "failed": failed_experiments_document(results),
    }


def render_campaign_report(directory: str, max_points: int = 12) -> str:
    """The full plain-text report of a campaign directory."""
    results = load_campaign(directory)
    counts = results.status_counts()
    status = ", ".join("{} {}".format(count, status)
                       for status, count in sorted(counts.items()))
    sections = [
        "Campaign {!r}: {} experiments ({})".format(
            results.name, len(results.experiments), status),
        "",
        best_objective_table(results),
        "",
        time_to_best_table(results),
    ]
    for algorithm in results.axis_values("algorithm"):
        series = per_iteration_cost_series(results, algorithm)
        if series:
            sections.append("")
            sections.append(format_series(
                series, "iteration", "mean trial cost (s)",
                title="{}: per-iteration cost ({})".format(results.name,
                                                           algorithm),
                max_points=max_points))
    # rendered only when any experiment warm-started, so cold campaigns
    # keep their historical report bytes
    warm = warm_start_document(results)
    if warm["rows"]:
        sections.append("")
        sections.append(format_table(
            tuple(warm["columns"]),
            [(name, donor, _fmt(similarity, "{:.3f}"), observations)
             for name, donor, similarity, observations in warm["rows"]],
            title=warm["title"]))
    # rendered only when failures exist, so a chaos run whose experiments
    # all ultimately completed reports byte-identically to a clean run
    failed = failed_experiments_document(results)
    if failed["rows"]:
        sections.append("")
        sections.append(format_table(
            tuple(failed["columns"]),
            [tuple(row) for row in failed["rows"]],
            title=failed["title"]))
    return "\n".join(sections)
