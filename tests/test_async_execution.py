"""Asynchronous (barrier-free) execution: equivalence, determinism, scheduling.

The async engine's acceptance bar mirrors the batch engine's:

1. ``execution="async"`` with ``workers=1`` reproduces the strictly
   sequential propose→evaluate→observe loop trial for trial for every
   registered algorithm (the reference loop is the same inline
   re-implementation ``tests/test_batch_execution.py`` pins batch mode to).
2. A checkpoint taken at *any completion event* — async checkpoints fire at
   trial granularity, not batch boundaries — resumes record-for-record
   identically to the uninterrupted async run, for every algorithm at
   ``workers ∈ {1, 4}`` (modeled on ``tests/test_checkpoint_resume.py``;
   in-flight trials are first-class backend checkpoint state).
3. The scheduler really is barrier-free: after the default-configuration
   trial seeds the horizon, every worker runs back-to-back trials (a worker
   never idles waiting for a straggler), trials overlap in virtual time,
   proposals dedupe against in-flight configurations, and causality is
   preserved (no trial starts before the completion event that triggered
   its proposal).
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.core.spec import ExperimentSpec
from repro.core.wayfinder import Wayfinder
from repro.platform.history import ExplorationHistory
from repro.platform.lifecycle import CallbackObserver
from repro.platform.metrics import ThroughputMetric, metric_for_application
from repro.platform.results import ResultsStore, load_checkpoint_file
from repro.platform.runner import SearchSession
from repro.search.registry import available_algorithms, create_algorithm

from tests.conftest import (
    SMALL_SPACE_OPTIONS,
    archive_checkpoint,
    make_pipeline,
    make_pool,
)
from tests.test_batch_execution import (
    ALGO_OPTIONS,
    _build_algorithm,
    _reference_sequential_run,
)


def _trial_tuple(record):
    return (record.index, record.configuration, record.objective,
            record.crashed, record.duration_s, record.started_at_s,
            record.build_skipped, record.worker)


def _spec(algorithm: str, workers: int, iterations: int,
          **overrides) -> ExperimentSpec:
    fields = dict(
        application="nginx", metric="throughput", algorithm=algorithm,
        favor="runtime", seed=7, iterations=iterations, workers=workers,
        batch_size=workers, execution="async",
        space_options=SMALL_SPACE_OPTIONS,
        algorithm_options=ALGO_OPTIONS[algorithm],
        name="async-{}-w{}".format(algorithm, workers))
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestAsyncSequentialEquivalence:
    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_async_worker1_reproduces_sequential_loop(self, name,
                                                      small_linux_model):
        iterations = 6 if name == "unicorn" else 8
        metric = metric_for_application("nginx")

        reference = _reference_sequential_run(
            make_pipeline(small_linux_model, "nginx"),
            _build_algorithm(name, small_linux_model.space),
            metric, iterations)

        session = SearchSession(
            make_pool(small_linux_model, "nginx"),
            _build_algorithm(name, small_linux_model.space),
            metric, evaluate_default_first=True, execution="async")
        result = session.run(iterations=iterations)

        assert result.execution == "async"
        assert len(result.history) == len(reference) == iterations
        for ours, theirs in zip(result.history, reference):
            assert _trial_tuple(ours)[:6] == (
                theirs.index, theirs.configuration, theirs.objective,
                theirs.crashed, theirs.duration_s, theirs.started_at_s)

    def test_registry_covered(self):
        assert set(ALGO_OPTIONS) == set(available_algorithms())


def _full_async_run_with_checkpoints(spec, tmp_path):
    """Run to completion, archiving the checkpoint of every completion event.

    Returns (history tuples, [(trials_done, archived_path), ...]).
    """
    wayfinder = Wayfinder.from_spec(spec)
    store = ResultsStore(str(tmp_path))
    wayfinder.enable_checkpointing(store, name=spec.name, every=1)
    archived = []

    def archive(session, path):
        copy = archive_checkpoint(store, spec.name, path, len(session.history))
        archived.append((len(session.history), copy))

    wayfinder.add_observer(CallbackObserver(on_checkpoint=archive))
    result = wayfinder.specialize()
    return [_trial_tuple(r) for r in result.history], archived


class TestAsyncResumeDeterminism:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_resume_at_any_completion_event(self, name, workers, tmp_path):
        iterations = 5 if name == "unicorn" else 9
        spec = _spec(name, workers, iterations)
        reference, archived = _full_async_run_with_checkpoints(spec, tmp_path)
        assert len(reference) == iterations

        # async checkpoints fire once per completion event, so every interior
        # trial count is a valid interruption point
        resume_points = [entry for entry in archived
                         if 0 < entry[0] < iterations]
        assert len(resume_points) == iterations - 1
        for trials_done, path in resume_points:
            resumed = Wayfinder.resume(path)
            session_history = resumed.build_session().session.history
            assert len(session_history) == trials_done
            result = resumed.specialize()
            assert [_trial_tuple(r) for r in result.history] == reference

    def test_checkpoint_embeds_in_flight_trials(self, tmp_path):
        spec = _spec("random", 4, 9)
        _, archived = _full_async_run_with_checkpoints(spec, tmp_path)
        # at a mid-run completion event the other workers are still busy
        mid = [path for trials_done, path in archived if trials_done == 4][0]
        state = load_checkpoint_file(mid)["state_tree"]
        in_flight = state["backend"]["in_flight"]
        assert in_flight, "expected in-flight trials at a mid-run event"
        assert all("configuration" in entry and "worker" in entry
                   for entry in in_flight)

    def test_resume_can_extend_the_budget(self, tmp_path):
        spec = _spec("random", 4, 6)
        reference, archived = _full_async_run_with_checkpoints(spec, tmp_path)
        result = Wayfinder.resume(archived[-1][1]).specialize(iterations=10)
        assert result.iterations == 10
        assert [_trial_tuple(r) for r in result.history][:6] == reference


class TestAsyncScheduling:
    def _result(self, algorithm="random", workers=4, iterations=13,
                observers=(), **overrides):
        wayfinder = Wayfinder.from_spec(
            _spec(algorithm, workers, iterations, **overrides))
        for observer in observers:
            wayfinder.add_observer(observer)
        return wayfinder.specialize()

    def test_workers_run_back_to_back(self):
        """No barrier: each worker starts its next trial the moment its
        previous one completes (modulo the default-trial horizon)."""
        result = self._result(iterations=13)
        per_worker = defaultdict(list)
        for record in list(result.history)[1:]:  # default trial seeds worker 0
            per_worker[record.worker].append(record)
        assert len(per_worker) == 4
        for records in per_worker.values():
            records.sort(key=lambda r: r.started_at_s)
            for previous, current in zip(records, records[1:]):
                assert current.started_at_s == pytest.approx(
                    previous.finished_at_s)

    def test_trials_overlap_in_virtual_time(self):
        result = self._result(iterations=13)
        records = sorted(result.history, key=lambda r: r.started_at_s)
        assert any(second.started_at_s < first.finished_at_s
                   for first, second in zip(records, records[1:]))

    def test_causality_no_trial_precedes_the_default_observation(self):
        result = self._result(iterations=13)
        default = result.history[0]
        assert default.started_at_s == 0.0
        for record in list(result.history)[1:]:
            assert record.started_at_s >= default.finished_at_s

    def test_async_compresses_elapsed_time_vs_batch(self):
        asynchronous = self._result(iterations=13)
        batch = Wayfinder.from_spec(
            _spec("random", 4, 13, execution="batch")).specialize()
        assert asynchronous.total_time_s < batch.total_time_s

    def test_iteration_budget_exact_with_ragged_fleet(self):
        result = self._result(iterations=7)
        assert result.iterations == 7
        assert result.stop_reason == "iterations"

    def test_time_budget_drains_in_flight_trials(self):
        result = self._result(iterations=None, time_budget_s=2500.0)
        assert result.stop_reason == "time-budget"
        assert result.history.total_elapsed_s() >= 2500.0

    def test_on_dispatch_fires_per_trial(self):
        events = []
        observer = CallbackObserver(
            on_dispatch=lambda s, c, w: events.append(("dispatch", w)),
            on_batch_start=lambda s, i, k: events.append(("batch", i, k)),
            on_trial=lambda s, r: events.append(("trial", r.index)))
        result = self._result(iterations=9, observers=[observer])
        dispatches = [e for e in events if e[0] == "dispatch"]
        trials = [e for e in events if e[0] == "trial"]
        batches = [e for e in events if e[0] == "batch"]
        assert len(dispatches) == result.iterations
        assert [index for _, index in trials] == list(range(9))
        # async sessions have no rounds: on_batch_start only marks the
        # default-configuration trial
        assert batches == [("batch", 0, 1)]
        assert {worker for _, worker in dispatches} == {0, 1, 2, 3}

    def test_pending_dedupe_no_duplicate_trials(self):
        for algorithm in ("random", "grid", "deeptune"):
            result = self._result(algorithm=algorithm, iterations=11)
            configurations = [r.configuration for r in result.history]
            assert len(set(configurations)) == len(configurations)

    def test_summary_surfaces_execution_and_utilization(self):
        result = self._result(iterations=13)
        summary = result.summary()
        assert summary["execution"] == "async"
        utilization = summary["worker_utilization"]
        assert len(utilization) == 4
        assert all(0.0 < value <= 1.0 for value in utilization)
        serial = Wayfinder.from_spec(_spec("random", 1, 5)).specialize()
        assert serial.summary()["worker_utilization"] == [1.0]

    def test_async_utilization_beats_batch(self):
        asynchronous = self._result(iterations=13)
        batch = Wayfinder.from_spec(
            _spec("random", 4, 13, execution="batch")).specialize()
        mean = lambda values: sum(values) / len(values)  # noqa: E731
        assert (mean(asynchronous.summary()["worker_utilization"])
                > mean(batch.summary()["worker_utilization"]))


class TestPendingAwareProposal:
    """propose(history, pending=...) dedupes without disturbing the RNG."""

    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_pending_empty_is_bit_identical(self, name, small_space):
        a = _build_algorithm(name, small_space)
        b = _build_algorithm(name, small_space)
        history = ExplorationHistory(ThroughputMetric())
        assert a.propose(history) == b.propose(history, pending=())

    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_pending_configuration_not_reproposed(self, name, small_space):
        probe = _build_algorithm(name, small_space)
        history = ExplorationHistory(ThroughputMetric())
        pending = probe.propose(history)
        fresh = _build_algorithm(name, small_space)
        assert fresh.propose(history, pending=[pending]) != pending

    def test_grid_skips_in_flight_plan_entries(self, small_space):
        grid = create_algorithm("grid", small_space, seed=9)
        other = create_algorithm("grid", small_space, seed=9)
        history = ExplorationHistory(ThroughputMetric())
        first = other.propose(history)
        second = other.propose(history, pending=[first])
        assert first != second
        # without pending, the same cursor would have yielded `first`
        assert grid.propose(history) == first
