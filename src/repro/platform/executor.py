"""Execution backend: how proposed configurations are evaluated.

:class:`WorkerPoolBackend` models a fleet of N system-under-test machines; the
single-machine platform is the one-worker pool.  Each worker owns a full
:class:`~repro.platform.pipeline.BenchmarkingPipeline` — its own virtual
clock and its own skip-build state (a worker can only reuse an image *it* has
booted) — while all workers share one
:class:`~repro.vm.simulator.SystemSimulator`.  Sharing the simulator means the
measurement-noise RNG stream is consumed in dispatch order, so with
``enable_skip_build=False`` the *outcome* of evaluating a given dispatch
sequence does not depend on how many workers it was spread across; only the
time axis does.  With skip-build enabled (the default), image reuse is
inherently per-worker state — a variant one worker would have reused may be
cold-built on another — so durations and the build/boot failure masking of
reused images can legitimately differ between worker counts.

The search session talks to the pool through a *completion-event*
interface — :meth:`WorkerPoolBackend.submit` dispatches one configuration to
an idle worker and :meth:`WorkerPoolBackend.next_completion` returns the
earliest-finishing in-flight trial — and both execution modes are driven
through it:

* **batch** mode (:meth:`WorkerPoolBackend.run_batch`) keeps barrier
  semantics: a whole batch is dispatched by greedy list scheduling, every
  worker clock is advanced to the session clock at the batch start, and the
  batch's records are returned together in submission order.
* **async** mode never forms a barrier: the session submits one proposal per
  idle worker and pops completions one at a time, so per-worker clocks
  advance independently and a fast worker never idles behind a straggler.

With one worker both modes run trials back to back on a single clock, which
reproduces the strictly sequential propose→evaluate→observe loop trial for
trial (asserted by ``tests/test_batch_execution.py`` and
``tests/test_async_execution.py``).

Because the system under test is simulated, a trial's outcome is computed
eagerly at :meth:`~WorkerPoolBackend.submit` time (consuming the shared noise
RNG in dispatch order and advancing the worker's clock past the trial);
``next_completion`` only decides *when* the session learns the outcome and
when the worker becomes free again.  In-flight trials are therefore
first-class checkpoint state: :meth:`~WorkerPoolBackend.export_state`
snapshots them so a checkpoint taken at any completion event resumes
record-for-record identically.

Clock-merge semantics: a trial's timestamps come from the clock of the worker
it ran on, and the session-level clock is the maximum over all worker clocks.
In batch mode every worker clock is advanced to the session clock at the
start of a batch (workers idle at the barrier); per-worker busy virtual time
is tracked so the idle share of every worker's timeline — and the
``worker_utilization`` the session reports — is well-defined in both modes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.config.space import Configuration
from repro.platform.history import TrialRecord
from repro.platform.metrics import Metric
from repro.platform.pipeline import BenchmarkingPipeline, VirtualClock
from repro.platform.results import record_from_dict, record_to_dict
from repro.vm.simulator import SystemSimulator

#: the scheduling policies the execution stack implements — the canonical
#: list; the session, the experiment spec, the campaign axis, and the CLI
#: all validate against this tuple.
EXECUTION_MODES = ("batch", "async")


class WorkerPoolBackend:
    """A pool of N simulated system-under-test machines (one by default).

    Dispatch is greedy: a submitted configuration goes to the idle worker
    whose clock is earliest, ties broken by worker id, and completions pop
    in virtual-finish-time order with the same tie-breaking.  Driving a
    whole batch through submit/next_completion (after the barrier clock
    sync) therefore reproduces classical greedy list scheduling exactly,
    while the async session skips the barrier and keeps every worker busy —
    which is the entire point: the fleet compresses wall-clock time-to-best
    without touching per-trial durations.
    """

    name = "worker-pool"

    def __init__(self, simulator: SystemSimulator, metric: Metric,
                 workers: int = 1, enable_skip_build: bool = True) -> None:
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        self.simulator = simulator
        self._metric = metric
        self.workers = workers
        self.pipelines = [
            BenchmarkingPipeline(simulator, metric, clock=VirtualClock(),
                                 enable_skip_build=enable_skip_build)
            for _ in range(workers)
        ]
        #: in-flight trial per busy worker, in submission order (dict order).
        self._in_flight: Dict[int, TrialRecord] = {}
        self._busy_s: List[float] = [0.0] * workers
        #: virtual time of the latest popped completion event.  A proposal is
        #: made in reaction to a completion, so a trial dispatched after that
        #: event cannot start before it: submit advances the assigned
        #: worker's clock to this horizon, preserving causality on the
        #: virtual time axis without a fleet-wide barrier.  (Completion pops
        #: are monotone in finish time, so the horizon never moves backward.)
        self._horizon_s = 0.0

    @property
    def space(self):
        """The configuration space of the system under test."""
        return self.pipelines[0].space

    @property
    def metric(self) -> Metric:
        return self._metric

    @property
    def now_s(self) -> float:
        """Session-level virtual time: the latest worker clock (seconds)."""
        return max(pipeline.clock.now_s for pipeline in self.pipelines)

    @property
    def worker_clocks_s(self) -> List[float]:
        return [pipeline.clock.now_s for pipeline in self.pipelines]

    @property
    def trials_run(self) -> int:
        return sum(pipeline.trials_run for pipeline in self.pipelines)

    @property
    def builds_skipped(self) -> int:
        return sum(pipeline.builds_skipped for pipeline in self.pipelines)

    def _sync_to_barrier(self) -> None:
        """Advance every worker clock to the session clock (idle at barrier)."""
        session_now = self.now_s
        for pipeline in self.pipelines:
            behind = session_now - pipeline.clock.now_s
            if behind > 0:
                pipeline.clock.advance(behind)

    # -- completion events -------------------------------------------------------
    def idle_workers(self) -> List[int]:
        """Indices of workers with no trial in flight, ascending."""
        return [index for index in range(self.workers)
                if index not in self._in_flight]

    def has_idle_worker(self) -> bool:
        return bool(self.idle_workers())

    @property
    def in_flight(self) -> int:
        """Number of submitted trials whose completion has not been popped."""
        return len(self._in_flight)

    def pending_configurations(self) -> List[Configuration]:
        """Configurations of the in-flight trials, in submission order.

        The session passes these to the algorithm's pending-aware
        ``propose`` so async proposals dedupe against work already running.
        """
        return [record.configuration for record in self._in_flight.values()]

    def submit(self, configuration: Configuration) -> int:
        """Dispatch *configuration* to the earliest-clock idle worker.

        Returns the worker index.  Raises :class:`RuntimeError` when no
        worker is idle — the session must pop a completion first.
        """
        idle = self.idle_workers()
        if not idle:
            raise RuntimeError("all workers are busy; pop a completion first")

        def start_time(index: int) -> float:
            return max(self.pipelines[index].clock.now_s, self._horizon_s)

        worker = min(idle, key=lambda index: (start_time(index), index))
        behind = self._horizon_s - self.pipelines[worker].clock.now_s
        if behind > 0:
            self.pipelines[worker].clock.advance(behind)
        record = self.pipelines[worker].evaluate(configuration)
        record.worker = worker
        self._busy_s[worker] += record.duration_s
        self._in_flight[worker] = record
        return worker

    def next_completion(self) -> TrialRecord:
        """Pop and return the earliest-finishing in-flight trial.

        Ties on the virtual finish time break toward the lower worker index,
        matching the greedy list scheduler's tie-breaking so batch mode is
        driven through the same interface.
        """
        if not self._in_flight:
            raise RuntimeError("no trial in flight")
        worker = min(self._in_flight,
                     key=lambda index: (self._in_flight[index].finished_at_s,
                                        index))
        record = self._in_flight.pop(worker)
        self._horizon_s = max(self._horizon_s, record.finished_at_s)
        return record

    # -- batch driver -------------------------------------------------------------
    def run_batch(self, configurations: Sequence[Configuration]) -> List[TrialRecord]:
        """Evaluate *configurations* as one barrier batch; records in submission order.

        Submission order (not completion order) keeps the observation stream
        seen by the search algorithm independent of the worker count; the
        history re-orders by virtual completion time on ingestion
        (:meth:`ExplorationHistory.add_batch`).
        """
        if self._in_flight:
            raise RuntimeError("cannot form a barrier batch with trials in flight")
        self._sync_to_barrier()
        records: List[TrialRecord] = []
        for configuration in configurations:
            if not self.has_idle_worker():
                # Free the earliest-finishing worker; its clock is the
                # minimum over the pool, so submitting to it reproduces the
                # greedy earliest-clock assignment.
                self.next_completion()
            worker = self.submit(configuration)
            records.append(self._in_flight[worker])
        while self._in_flight:
            self.next_completion()
        return records

    # -- accounting / checkpointing ----------------------------------------------
    @property
    def worker_busy_s(self) -> List[float]:
        """Virtual seconds each worker spent evaluating (idle time excluded)."""
        return list(self._busy_s)

    @property
    def worker_utilization(self) -> List[float]:
        """Busy fraction of each worker's session timeline (virtual time).

        Deterministic — it is derived entirely from virtual clocks — so it is
        safe to store in byte-equality-pinned summaries.  An empty session
        reports full utilization (no timeline to have idled on).
        """
        elapsed = self.now_s
        if elapsed <= 0.0:
            return [1.0] * self.workers
        return [busy / elapsed for busy in self._busy_s]

    def export_state(self) -> dict:
        """Snapshot worker clocks, skip-build state, in-flight trials, and the
        simulator RNG."""
        return {
            "kind": self.name,
            "simulator": self.simulator.export_state(),
            "pipelines": [pipeline.export_state() for pipeline in self.pipelines],
            "busy_s": list(self._busy_s),
            "horizon_s": self._horizon_s,
            "in_flight": [record_to_dict(record)
                          for record in self._in_flight.values()],
        }

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        if state.get("kind") != self.name:
            raise ValueError("checkpoint backend state does not match a worker pool")
        if len(state["pipelines"]) != len(self.pipelines):
            raise ValueError(
                "checkpoint was taken with {} workers, backend has {}".format(
                    len(state["pipelines"]), len(self.pipelines)))
        self.simulator.import_state(state["simulator"])
        for pipeline, pipeline_state in zip(self.pipelines, state["pipelines"]):
            pipeline.import_state(pipeline_state)
        self._busy_s = [float(busy) for busy in state["busy_s"]]
        self._horizon_s = float(state["horizon_s"])
        self._in_flight = {}
        for entry in state["in_flight"]:
            # record_to_dict carries the worker assignment, so the record's
            # own field keys the busy-worker map on restore.
            record = record_from_dict(entry, self.space)
            self._in_flight[record.worker] = record
