"""Exploration history: everything the platform records about past trials.

Search algorithms interact with the platform through the history (§3.1):
which configurations were explored, their objective values, which ones
crashed and at which stage, and how much time each evaluation consumed.  The
history also provides the derived series the evaluation figures plot:
best-so-far curves over virtual time and windowed crash rates.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config.encoding import ConfigEncoder
from repro.config.space import Configuration
from repro.nn.buffers import ensure_row_capacity
from repro.platform.metrics import Metric
from repro.vm.failures import FailureStage


class TrialRecord:
    """One evaluated configuration and everything measured about it."""

    def __init__(
        self,
        index: int,
        configuration: Configuration,
        objective: Optional[float],
        crashed: bool,
        failure_stage: FailureStage,
        failure_reason: str,
        metric_value: Optional[float],
        memory_mb: Optional[float],
        duration_s: float,
        started_at_s: float,
        build_skipped: bool = False,
        worker: int = 0,
    ) -> None:
        self.index = index
        self.configuration = configuration
        self.objective = objective
        self.crashed = crashed
        self.failure_stage = failure_stage
        self.failure_reason = failure_reason
        self.metric_value = metric_value
        self.memory_mb = memory_mb
        self.duration_s = duration_s
        self.started_at_s = started_at_s
        self.build_skipped = build_skipped
        #: index of the system-under-test worker that ran the trial.
        self.worker = worker

    @property
    def finished_at_s(self) -> float:
        """Virtual timestamp at which this evaluation completed."""
        return self.started_at_s + self.duration_s

    def __repr__(self) -> str:
        if self.crashed:
            return "TrialRecord(#{}, crashed at {})".format(self.index,
                                                            self.failure_stage.value)
        return "TrialRecord(#{}, objective={:.2f})".format(self.index, self.objective)


class ExplorationHistory:
    """Ordered collection of trial records for one search session.

    Membership tests and best-record queries are called once per candidate by
    the search algorithms (192 times per iteration with the default DeepTune
    pool), so both are maintained incrementally: a hash set indexes explored
    configurations and the best successful record is cached as records are
    added, keeping :meth:`contains_configuration` and :meth:`best_record` O(1)
    instead of O(n) scans.  The per-trial objective/crash columns consumed by
    :meth:`training_arrays` live in preallocated arrays grown by amortized
    doubling.
    """

    def __init__(self, metric: Metric) -> None:
        self.metric = metric
        self._records: List[TrialRecord] = []
        self._explored: Set[Configuration] = set()
        self._best: Optional[TrialRecord] = None
        self._crash_count = 0
        self._objective_buffer = np.empty(0, dtype=np.float64)
        self._crash_buffer = np.empty(0, dtype=bool)

    # -- collection protocol -----------------------------------------------------
    def add(self, record: TrialRecord) -> None:
        index = len(self._records)
        self._records.append(record)
        self._explored.add(record.configuration)
        if record.crashed:
            self._crash_count += 1
        elif record.objective is not None and (
                self._best is None
                or self.metric.is_improvement(record.objective, self._best.objective)):
            self._best = record
        self._objective_buffer = ensure_row_capacity(self._objective_buffer, index + 1)
        self._crash_buffer = ensure_row_capacity(self._crash_buffer, index + 1)
        self._objective_buffer[index] = (
            record.objective
            if (not record.crashed and record.objective is not None) else np.nan)
        self._crash_buffer[index] = record.crashed

    def add_batch(self, records: Sequence[TrialRecord]) -> List[TrialRecord]:
        """Ingest one batch of completed trials in virtual-completion-time order.

        Workers finish out of submission order, so the batch is stably sorted
        by :attr:`TrialRecord.finished_at_s` (submission order breaks ties)
        before ingestion and every record's ``index`` is rewritten to its
        session-global position.  This keeps the incumbent cache, the
        best-so-far series, and time-to-best semantics well-defined: a trial
        only becomes the incumbent from the moment it *completed* on the
        virtual time axis.  Returns the records in ingestion order.
        """
        ordered = sorted(records, key=lambda record: record.finished_at_s)
        for record in ordered:
            record.index = len(self._records)
            self.add(record)
        return ordered

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TrialRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TrialRecord:
        return self._records[index]

    @property
    def records(self) -> List[TrialRecord]:
        return list(self._records)

    def records_since(self, count: int) -> List[TrialRecord]:
        """Records appended after the first *count* — the incremental tail
        consumed by O(new trials) checkpoint persistence."""
        return self._records[count:]

    # -- bookkeeping ------------------------------------------------------------------
    def contains_configuration(self, configuration: Configuration) -> bool:
        return configuration in self._explored

    def successful_records(self) -> List[TrialRecord]:
        return [r for r in self._records if not r.crashed and r.objective is not None]

    def crash_rate(self, window: Optional[int] = None) -> float:
        """Fraction of crashed trials, optionally over the last *window* trials."""
        if window is None:
            if not self._records:
                return 0.0
            return self._crash_count / float(len(self._records))
        records = self._records[-window:]
        if not records:
            return 0.0
        return sum(1 for r in records if r.crashed) / float(len(records))

    def total_elapsed_s(self) -> float:
        if not self._records:
            return 0.0
        return self._records[-1].finished_at_s

    # -- best configuration ---------------------------------------------------------------
    def best_record(self) -> Optional[TrialRecord]:
        """The best successful trial under the session's metric (O(1), cached)."""
        return self._best

    def best_objective(self) -> Optional[float]:
        best = self.best_record()
        return None if best is None else best.objective

    def time_to_best_s(self) -> Optional[float]:
        """Virtual seconds from session start to the completion of the best trial."""
        best = self.best_record()
        return None if best is None else best.finished_at_s

    def best_so_far_series(self) -> List[Tuple[float, float]]:
        """(finished_at_s, best objective so far) pairs over the session."""
        series: List[Tuple[float, float]] = []
        best: Optional[float] = None
        for record in self._records:
            if not record.crashed and record.objective is not None:
                if best is None or self.metric.is_improvement(record.objective, best):
                    best = record.objective
            if best is not None:
                series.append((record.finished_at_s, best))
        return series

    def objective_series(self) -> List[Tuple[float, Optional[float]]]:
        """(finished_at_s, objective or None for crashes) for every trial."""
        return [(r.finished_at_s, r.objective if not r.crashed else None)
                for r in self._records]

    def crash_rate_series(self, window: int = 25) -> List[Tuple[float, float]]:
        """(finished_at_s, windowed crash rate) pairs over the session.

        A rolling crash count replaces per-record ``flags[-window:]``
        re-slicing (which made the series O(n·window)): the flag leaving the
        window is subtracted as each new one arrives, so the whole series
        costs O(n) and produces the identical float divisions.
        """
        series: List[Tuple[float, float]] = []
        rolling = 0
        for position, record in enumerate(self._records):
            rolling += record.crashed
            if position >= window:
                rolling -= self._records[position - window].crashed
            occupied = min(position + 1, window)
            series.append((record.finished_at_s, rolling / float(occupied)))
        return series

    # -- machine-learning views --------------------------------------------------------------
    def training_arrays(self, encoder: ConfigEncoder
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (X, y, crashed) arrays for model training.

        Crashed trials have no objective; their ``y`` entry is NaN so callers
        can mask them out of the regression loss while keeping them for the
        crash-classification loss.

        ``y`` and ``crashed`` are **read-only zero-copy views** of the
        history's internal column buffers — no per-call copy, so the cost of
        assembling training targets stays flat as the history grows.  The
        views are stable: appends write past position ``n`` and buffer
        growth reallocates rather than mutating in place.  Callers needing a
        mutable array must copy explicitly.
        """
        n = len(self._records)
        configurations = [record.configuration for record in self._records]
        matrix = encoder.encode_batch(configurations)
        objective = self._objective_buffer[:n]
        crashed = self._crash_buffer[:n]
        objective.flags.writeable = False
        crashed.flags.writeable = False
        return matrix, objective, crashed

    def summary(self) -> dict:
        """Aggregate statistics used by reports and tests."""
        best = self.best_record()
        return {
            "trials": len(self._records),
            "crashes": self._crash_count,
            "crash_rate": self.crash_rate(),
            "best_objective": None if best is None else best.objective,
            "best_index": None if best is None else best.index,
            "time_to_best_s": self.time_to_best_s(),
            "total_elapsed_s": self.total_elapsed_s(),
        }
