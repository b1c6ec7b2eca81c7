"""The search session: the lifecycle engine of the platform.

A session iterates "select configuration(s) → evaluate → record" until a
:class:`~repro.platform.lifecycle.StopCondition` fires, then reports the best
configuration found, how long it took to find it, and the full exploration
history used by the evaluation figures.

Every session evaluates through a
:class:`~repro.platform.executor.WorkerPoolBackend`; a one-worker pool is
the single-machine platform.  The loop is event-driven on top of the pool's
completion-event interface (:meth:`WorkerPoolBackend.submit` /
:meth:`WorkerPoolBackend.next_completion`) and supports two execution modes:

* ``batch`` (the default) keeps the historical barrier semantics: each round
  asks the algorithm for up to ``batch_size`` configurations
  (:meth:`SearchAlgorithm.propose_batch`), dispatches them as one barrier
  batch, ingests the whole batch, and evaluates stop conditions at the batch
  boundary.  With ``workers=1, batch_size=1`` this reproduces the strictly
  sequential propose→evaluate→observe loop trial for trial — same proposals,
  same RNG consumption, same timestamps — asserted by
  ``tests/test_batch_execution.py``.
* ``async`` never forms a barrier: every idle worker immediately receives the
  next proposal (:meth:`SearchAlgorithm.propose` with the in-flight
  configurations passed as ``pending``), completions are ingested one event
  at a time, and stop conditions, observers, and checkpoints all operate at
  trial granularity.  With ``workers=1`` the async loop also reproduces the
  sequential loop exactly (there is never a pending trial at proposal time);
  asserted by ``tests/test_async_execution.py``.

Around that core the session exposes a lifecycle:

* **stop conditions** — iteration budgets, virtual-time budgets, and
  incumbent plateaus are pluggable :class:`StopCondition` objects; budgets
  count the whole history, so resumed sessions continue toward the original
  budget;
* **observers** — :class:`SessionObserver` callbacks (``on_batch_start``,
  ``on_dispatch``, ``on_trial``, ``on_new_incumbent``, ``on_checkpoint``)
  fire as the run progresses; the CLI renders its live progress from them;
* **checkpointing** — when a checkpointer is attached (see
  :class:`repro.platform.results.SessionCheckpointer`), full session state —
  including any in-flight async trials — is persisted every
  ``checkpoint_every`` batches (batch mode) or completion events (async
  mode), making the run resumable via :meth:`Wayfinder.resume`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.config.space import Configuration
from repro.platform.executor import EXECUTION_MODES, WorkerPoolBackend
from repro.platform.history import ExplorationHistory, TrialRecord
from repro.platform.lifecycle import (
    IterationBudget,
    SessionObserver,
    StopCondition,
    TimeBudget,
)
from repro.platform.metrics import Metric

if TYPE_CHECKING:  # annotation only: repro.search imports repro.platform
    from repro.search.base import SearchAlgorithm


class SessionResult:
    """Outcome of one complete search session."""

    def __init__(self, history: ExplorationHistory, algorithm_name: str,
                 builds_skipped: int,
                 workers: int = 1, batch_size: int = 1,
                 time_budget_s: Optional[float] = None,
                 favor: Optional[str] = None,
                 stop_reason: Optional[str] = None,
                 execution: str = "batch",
                 worker_utilization: Optional[List[float]] = None) -> None:
        self.history = history
        self.algorithm_name = algorithm_name
        self.builds_skipped = builds_skipped
        self.workers = workers
        self.batch_size = batch_size
        self.time_budget_s = time_budget_s
        self.favor = favor
        self.stop_reason = stop_reason
        self.execution = execution
        #: per-worker busy fraction of the session's virtual timeline;
        #: deterministic (virtual-clock-derived), so it is stored in
        #: byte-equality-pinned summaries.
        self.worker_utilization = list(worker_utilization or [])

    @property
    def best_record(self) -> Optional[TrialRecord]:
        return self.history.best_record()

    @property
    def best_configuration(self) -> Optional[Configuration]:
        best = self.best_record
        return None if best is None else best.configuration

    @property
    def best_objective(self) -> Optional[float]:
        return self.history.best_objective()

    @property
    def crash_rate(self) -> float:
        return self.history.crash_rate()

    @property
    def time_to_best_s(self) -> Optional[float]:
        return self.history.time_to_best_s()

    @property
    def iterations(self) -> int:
        return len(self.history)

    def summary(self) -> dict:
        data = self.history.summary()
        data.update({
            "algorithm": self.algorithm_name,
            "builds_skipped": self.builds_skipped,
            "workers": self.workers,
            "batch_size": self.batch_size,
            "time_budget_s": self.time_budget_s,
            "favor": self.favor,
            "stop_reason": self.stop_reason,
            "execution": self.execution,
            "worker_utilization": list(self.worker_utilization),
        })
        return data

    def __repr__(self) -> str:
        return "SessionResult(algorithm={}, iterations={}, best={!r})".format(
            self.algorithm_name, self.iterations, self.best_objective
        )


class SearchSession:
    """Runs one specialization search with a given algorithm and budget."""

    def __init__(self, backend: WorkerPoolBackend,
                 algorithm: SearchAlgorithm,
                 metric: Optional[Metric] = None,
                 evaluate_default_first: bool = False,
                 batch_size: int = 1,
                 observers: Optional[Sequence[SessionObserver]] = None,
                 favor: Optional[str] = None,
                 execution: str = "batch") -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if execution not in EXECUTION_MODES:
            raise ValueError("unknown execution mode {!r}; expected one of {}".format(
                execution, ", ".join(EXECUTION_MODES)))
        self.backend = backend
        self.algorithm = algorithm
        self.metric = metric or backend.metric
        self.batch_size = batch_size
        #: scheduling policy the run loop drives: ``batch`` (barrier rounds)
        #: or ``async`` (completion-driven, no barrier).
        self.execution = execution
        self.history = ExplorationHistory(self.metric)
        #: when set, the very first trial benchmarks the default configuration
        #: so the incumbent baseline is always part of the explored set (and
        #: of the model's training data).  It always runs first *and alone*,
        #: even in batched/async sessions: the baseline must not share the
        #: fleet with configurations proposed without any observation to
        #: learn from.  A resumed session skips it — the restored history
        #: already holds it.
        self.evaluate_default_first = evaluate_default_first
        self.observers: List[SessionObserver] = list(observers or [])
        #: favor preset recorded in the session result (purely descriptive;
        #: the favored kinds themselves live inside the algorithm's sampler).
        self.favor = favor
        #: optional :class:`repro.platform.results.SessionCheckpointer`; when
        #: set, full session state is persisted every ``checkpoint_every``
        #: batches (batch mode) / completion events (async mode) and
        #: observers are notified via ``on_checkpoint``.
        self.checkpointer = None
        self.checkpoint_every = 1
        self._last_checkpoint_batch: Optional[int] = None
        #: checkpoint-cadence events completed so far: barrier batches in
        #: batch mode (the default-configuration trial is batch 0),
        #: completion events in async mode; restored on resume so checkpoint
        #: cadence is stable.
        self.batches_run = 0

    # -- lifecycle plumbing ------------------------------------------------------
    def add_observer(self, observer: SessionObserver) -> SessionObserver:
        self.observers.append(observer)
        return observer

    def _notify(self, hook: str, *args) -> None:
        for observer in self.observers:
            getattr(observer, hook)(self, *args)

    def _ingest_batch(self, records: Sequence[TrialRecord]) -> None:
        """History ingestion + observer notifications for completed trials."""
        previous_best = self.history.best_record()
        ordered = self.history.add_batch(records)
        incumbent = previous_best
        for record in ordered:
            self._notify("on_trial", record)
            if record.crashed or record.objective is None:
                continue
            if incumbent is None or self.metric.is_improvement(
                    record.objective, incumbent.objective):
                incumbent = record
                self._notify("on_new_incumbent", record)

    def _checkpoint(self, force: bool = False) -> None:
        if self.checkpointer is None:
            return
        if not force and self.batches_run % max(1, self.checkpoint_every) != 0:
            return
        if self._last_checkpoint_batch == self.batches_run:
            return
        path = self.checkpointer.save()
        self._last_checkpoint_batch = self.batches_run
        self._notify("on_checkpoint", path)

    def _build_conditions(self, iterations: Optional[int],
                          time_budget_s: Optional[float],
                          stop: Optional[Sequence[StopCondition]]) -> List[StopCondition]:
        conditions: List[StopCondition] = list(stop or [])
        if iterations is not None:
            conditions.append(IterationBudget(iterations))
        if time_budget_s is not None:
            conditions.append(TimeBudget(time_budget_s))
        if not conditions:
            raise ValueError("a session needs an iteration, time, or custom stop budget")
        return conditions

    def _stopped_by(self, conditions: Sequence[StopCondition]) -> Optional[StopCondition]:
        for condition in conditions:
            if condition.should_stop(self):
                return condition
        return None

    def _observe(self, records: Sequence[TrialRecord]) -> None:
        """Feed completed trials to the algorithm."""
        for record in records:
            self.algorithm.observe(record)

    def _run_default_first(self, dispatch_event: bool) -> None:
        """Benchmark the default configuration first and alone (fresh runs)."""
        self._notify("on_batch_start", self.batches_run, 1)
        default = self.backend.space.default_configuration()
        if dispatch_event:
            worker = self.backend.submit(default)
            self._notify("on_dispatch", default, worker)
            records = [self.backend.next_completion()]
        else:
            records = self.backend.run_batch([default])
        self._ingest_batch(records)
        self._observe(records)
        self.batches_run += 1
        self._checkpoint()

    # -- the run loop ------------------------------------------------------------
    def run(self, iterations: Optional[int] = None,
            time_budget_s: Optional[float] = None,
            batch_size: Optional[int] = None,
            stop: Optional[Sequence[StopCondition]] = None) -> SessionResult:
        """Run the exploration loop until a stop condition fires.

        *iterations* and *time_budget_s* are conveniences wrapping the
        :class:`IterationBudget` / :class:`TimeBudget` stop conditions;
        arbitrary conditions (e.g. :class:`IncumbentPlateau`) are passed via
        *stop*.  Budgets count the whole history, so a session resumed from a
        checkpoint continues toward the original budget.  *time_budget_s* is
        measured on the platform's virtual clock, i.e. in simulated
        benchmarking time, matching how the paper expresses budgets.

        *batch_size* overrides the session-level batch size for this run
        (batch mode only; async sessions dispatch one proposal per idle
        worker).  In batch mode each round proposes up to ``batch_size``
        configurations; completed trials enter the history in
        virtual-completion-time order while the algorithm observes them in
        submission order, keeping its training stream independent of how
        many workers evaluated the batch.  In async mode trials are ingested
        and observed one completion event at a time — observation order *is*
        completion order — and stop conditions are evaluated per event.
        """
        conditions = self._build_conditions(iterations, time_budget_s, stop)
        batch_size = self.batch_size if batch_size is None else batch_size
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.execution == "async":
            stopped_by = self._drive_async(conditions)
        else:
            stopped_by = self._drive_batch(conditions, batch_size)
        # Always leave a final checkpoint at the finished state so a stored
        # run can be extended later with a larger budget.
        self._checkpoint(force=True)
        time_budgets = [c.seconds for c in conditions if isinstance(c, TimeBudget)]
        return SessionResult(
            history=self.history,
            algorithm_name=self.algorithm.name,
            builds_skipped=self.backend.builds_skipped,
            workers=self.backend.workers,
            batch_size=batch_size,
            time_budget_s=time_budgets[0] if time_budgets else None,
            favor=self.favor,
            stop_reason=stopped_by.name if stopped_by is not None else None,
            execution=self.execution,
            worker_utilization=self.backend.worker_utilization,
        )

    def _drive_batch(self, conditions: Sequence[StopCondition],
                     batch_size: int) -> Optional[StopCondition]:
        """Barrier rounds: propose a batch, evaluate it, observe it, repeat."""
        stopped_by: Optional[StopCondition] = None
        if self.evaluate_default_first and not self.history:
            self._run_default_first(dispatch_event=False)
        while True:
            stopped_by = self._stopped_by(conditions)
            if stopped_by is not None:
                break
            k = batch_size
            for condition in conditions:
                remaining = condition.remaining_trials(self)
                if remaining is not None:
                    k = min(k, remaining)
            self._notify("on_batch_start", self.batches_run, k)
            batch = self.algorithm.propose_batch(self.history, k)
            records = self.backend.run_batch(batch)
            self._ingest_batch(records)
            self._observe(records)
            self.batches_run += 1
            self._checkpoint()
        return stopped_by

    def _dispatch_async(self, conditions: Sequence[StopCondition]) -> None:
        """Hand every idle worker its next proposal (budget permitting).

        Trial-count budgets gate dispatch so in-flight work never exceeds
        the remaining budget — an async session hits iteration budgets
        exactly, with no dispatched-but-wasted trials.
        """
        while self.backend.has_idle_worker():
            allowed: Optional[int] = None
            for condition in conditions:
                remaining = condition.remaining_trials(self)
                if remaining is not None:
                    headroom = remaining - self.backend.in_flight
                    allowed = headroom if allowed is None else min(allowed, headroom)
            if allowed is not None and allowed <= 0:
                break
            configuration = self.algorithm.propose(
                self.history, pending=self.backend.pending_configurations())
            worker = self.backend.submit(configuration)
            self._notify("on_dispatch", configuration, worker)

    def _drive_async(self, conditions: Sequence[StopCondition]) -> Optional[StopCondition]:
        """Completion-driven loop: no barrier, no worker clock sync.

        Each iteration tops up every idle worker with a pending-aware
        proposal, then pops exactly one completion event: the record is
        ingested, observed, and counted toward the checkpoint cadence, and
        stop conditions are re-evaluated — all at trial granularity.  While
        a condition fires, dispatching pauses and in-flight trials drain
        into the history (they started before the budget expired, matching
        the batch engine's at-most-one-batch overshoot).  Conditions are
        judged against the whole history after every ingested trial, so a
        non-monotone condition (e.g. an incumbent plateau reset by a drained
        trial) can un-fire and resume dispatching — exactly as a new
        incumbent inside a batch resets the plateau at the next barrier.
        """
        stopped_by: Optional[StopCondition] = None
        if self.evaluate_default_first and not self.history:
            self._run_default_first(dispatch_event=True)
        while True:
            stopped_by = self._stopped_by(conditions)
            if stopped_by is not None:
                if self.backend.in_flight == 0:
                    break
            else:
                self._dispatch_async(conditions)
                if self.backend.in_flight == 0:
                    # Budgets gated dispatch to zero with nothing running:
                    # the next condition check is definitive.
                    stopped_by = self._stopped_by(conditions)
                    break
            record = self.backend.next_completion()
            self._ingest_batch([record])
            self._observe([record])
            self.batches_run += 1
            self._checkpoint()
        return stopped_by
