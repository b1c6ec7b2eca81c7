"""Unit tests for the benchmarking platform: metrics, history, pipeline, runner."""

import pytest

from repro.config.parameter import ParameterKind
from repro.platform.history import ExplorationHistory, TrialRecord
from repro.platform.metrics import (
    CompositeScoreMetric,
    LatencyMetric,
    MemoryFootprintMetric,
    ThroughputMetric,
    metric_for_application,
)
from repro.platform.pipeline import BenchmarkingPipeline, VirtualClock
from repro.platform.runner import SearchSession
from repro.search.random_search import RandomSearch
from repro.vm.failures import FailureStage
from repro.vm.simulator import EvaluationOutcome

from tests.conftest import make_pipeline, make_pool, make_simulator


def make_outcome(configuration, metric_value=100.0, memory=200.0, crashed=False):
    return EvaluationOutcome(
        configuration=configuration,
        crashed=crashed,
        failure_stage=FailureStage.RUN if crashed else FailureStage.NONE,
        failure_reason="boom" if crashed else "",
        metric_value=None if crashed else metric_value,
        memory_mb=None if crashed else memory,
        build_duration_s=100.0,
        boot_duration_s=10.0,
        run_duration_s=40.0,
        build_skipped=False,
    )


def make_record(configuration, index=0, objective=100.0, crashed=False,
                duration=150.0, started=0.0):
    return TrialRecord(
        index=index,
        configuration=configuration,
        objective=None if crashed else objective,
        crashed=crashed,
        failure_stage=FailureStage.RUN if crashed else FailureStage.NONE,
        failure_reason="",
        metric_value=None if crashed else objective,
        memory_mb=None if crashed else 200.0,
        duration_s=duration,
        started_at_s=started,
    )


class TestMetrics:
    def test_throughput_direction(self, default_configuration):
        metric = ThroughputMetric()
        assert metric.maximize
        assert metric.extract(make_outcome(default_configuration, 500.0)) == 500.0
        assert metric.extract(make_outcome(default_configuration, crashed=True)) is None
        assert metric.is_improvement(2.0, 1.0)
        assert metric.worst_value() == float("-inf")

    def test_latency_direction(self, default_configuration):
        metric = LatencyMetric()
        assert not metric.maximize
        assert metric.is_improvement(1.0, 2.0)
        assert metric.worst_value() == float("inf")

    def test_memory_metric_reads_footprint(self, default_configuration):
        metric = MemoryFootprintMetric()
        assert metric.extract(make_outcome(default_configuration, memory=321.0)) == 321.0

    def test_improvement_with_none_incumbent(self):
        assert ThroughputMetric().is_improvement(1.0, None)

    def test_composite_score_prefers_high_throughput_low_memory(self, default_configuration):
        metric = CompositeScoreMetric(throughput_range=(0, 100), memory_range=(0, 100))
        good = metric.score(90.0, 10.0)
        bad = metric.score(10.0, 90.0)
        assert good > bad

    def test_composite_score_extract_none_on_crash(self, default_configuration):
        metric = CompositeScoreMetric()
        assert metric.extract(make_outcome(default_configuration, crashed=True)) is None

    def test_metric_for_application(self):
        assert metric_for_application("sqlite").direction == "minimize"
        assert metric_for_application("nginx").direction == "maximize"


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        assert clock.now_s == 0.0
        clock.advance(10.5)
        assert clock.now_s == 10.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestExplorationHistory:
    def test_best_record_maximize(self, small_space):
        history = ExplorationHistory(ThroughputMetric())
        default = small_space.default_configuration()
        history.add(make_record(default, 0, 100.0))
        history.add(make_record(default.with_values({"vm.swappiness": 1}), 1, 250.0,
                                started=150.0))
        history.add(make_record(default.with_values({"vm.swappiness": 2}), 2, crashed=True,
                                started=300.0))
        best = history.best_record()
        assert best.index == 1
        assert history.best_objective() == 250.0
        assert history.crash_rate() == pytest.approx(1 / 3)
        assert history.time_to_best_s() == pytest.approx(300.0)

    def test_best_record_minimize(self, small_space):
        history = ExplorationHistory(LatencyMetric())
        default = small_space.default_configuration()
        history.add(make_record(default, 0, 300.0))
        history.add(make_record(default.with_values({"vm.swappiness": 1}), 1, 280.0))
        assert history.best_record().index == 1

    def test_series_shapes(self, small_space):
        history = ExplorationHistory(ThroughputMetric())
        default = small_space.default_configuration()
        for index in range(6):
            crashed = index % 3 == 2
            history.add(make_record(
                default.with_values({"vm.swappiness": index}), index,
                objective=100.0 + index, crashed=crashed, started=index * 150.0))
        assert len(history.objective_series()) == 6
        assert len(history.crash_rate_series(window=3)) == 6
        best_series = history.best_so_far_series()
        assert best_series[-1][1] >= best_series[0][1]

    def test_crash_rate_series_matches_quadratic_reference(self, small_space):
        """The rolling-sum series is pinned float-for-float to the original
        ``flags[-window:]`` re-slicing implementation it replaced."""
        import random

        def reference_series(history, window):
            series, flags = [], []
            for record in history:
                flags.append(record.crashed)
                recent = flags[-window:]
                series.append((record.finished_at_s,
                               sum(recent) / float(len(recent))))
            return series

        rng = random.Random(17)
        history = ExplorationHistory(ThroughputMetric())
        default = small_space.default_configuration()
        for index in range(120):
            history.add(make_record(
                default.with_values({"vm.swappiness": index % 60}), index,
                objective=float(index), crashed=rng.random() < 0.3,
                started=index * 150.0))
        for window in (1, 3, 25, 119, 120, 500):
            assert history.crash_rate_series(window=window) \
                == reference_series(history, window)

    def test_training_arrays(self, small_space):
        from repro.config.encoding import ConfigEncoder
        history = ExplorationHistory(ThroughputMetric())
        default = small_space.default_configuration()
        history.add(make_record(default, 0, 100.0))
        history.add(make_record(default.with_values({"vm.swappiness": 5}), 1, crashed=True))
        encoder = ConfigEncoder(small_space)
        X, y, crashed = history.training_arrays(encoder)
        assert X.shape == (2, encoder.width)
        assert y[0] == 100.0
        assert crashed.tolist() == [False, True]
        # the returned views are read-only (zero-copy contract)
        with pytest.raises(ValueError):
            y[0] = -1.0
        with pytest.raises(ValueError):
            crashed[0] = True

    def test_summary_and_contains(self, small_space):
        history = ExplorationHistory(ThroughputMetric())
        default = small_space.default_configuration()
        history.add(make_record(default, 0, 10.0))
        assert history.contains_configuration(default)
        summary = history.summary()
        assert summary["trials"] == 1
        assert summary["best_objective"] == 10.0

    def test_empty_history(self):
        history = ExplorationHistory(ThroughputMetric())
        assert history.best_record() is None
        assert history.crash_rate() == 0.0
        assert history.total_elapsed_s() == 0.0


class TestBenchmarkingPipeline:
    def test_evaluate_advances_clock(self, small_linux_model):
        pipeline = make_pipeline(small_linux_model, "nginx")
        record = pipeline.evaluate(small_linux_model.space.default_configuration())
        assert not record.crashed
        assert pipeline.clock.now_s == pytest.approx(record.duration_s)
        assert record.started_at_s == 0.0

    def test_constraint_violation_rejected_quickly(self, small_linux_model):
        pipeline = make_pipeline(small_linux_model, "nginx")
        invalid = small_linux_model.space.default_configuration().with_values(
            {"CONFIG_NET": False, "CONFIG_INET": True})
        record = pipeline.evaluate(invalid)
        assert record.crashed
        assert record.failure_stage is FailureStage.BUILD
        assert record.duration_s == pipeline.CONSTRAINT_REJECT_S

    def test_skip_build_when_only_runtime_changes(self, small_linux_model):
        pipeline = make_pipeline(small_linux_model, "nginx")
        default = small_linux_model.space.default_configuration()
        first = pipeline.evaluate(default)
        second = pipeline.evaluate(default.with_values({"net.core.somaxconn": 4096}))
        third = pipeline.evaluate(default.with_values({"CONFIG_FTRACE": False}))
        assert not first.build_skipped
        assert second.build_skipped
        assert second.duration_s < first.duration_s / 2
        assert not third.build_skipped
        assert pipeline.builds_skipped == 1

    def test_skip_build_can_be_disabled(self, small_linux_model):
        from repro.platform.metrics import metric_for_application
        simulator = make_simulator(small_linux_model, "nginx")
        pipeline = BenchmarkingPipeline(simulator, metric_for_application("nginx"),
                                        enable_skip_build=False)
        default = small_linux_model.space.default_configuration()
        pipeline.evaluate(default)
        second = pipeline.evaluate(default.with_values({"net.core.somaxconn": 4096}))
        assert not second.build_skipped


class TestSearchSession:
    def test_iteration_budget(self, small_linux_model):
        backend = make_pool(small_linux_model, "nginx")
        algorithm = RandomSearch(small_linux_model.space, seed=4,
                                 favored_kinds=[ParameterKind.RUNTIME])
        session = SearchSession(backend, algorithm)
        result = session.run(iterations=12)
        assert result.iterations == 12
        assert result.best_objective is not None
        assert result.algorithm_name == "random"

    def test_time_budget(self, small_linux_model):
        backend = make_pool(small_linux_model, "nginx")
        algorithm = RandomSearch(small_linux_model.space, seed=4,
                                 favored_kinds=[ParameterKind.RUNTIME])
        session = SearchSession(backend, algorithm)
        result = session.run(time_budget_s=2000.0)
        assert result.history.total_elapsed_s() >= 2000.0
        assert result.iterations >= 2

    def test_requires_some_budget(self, small_linux_model):
        backend = make_pool(small_linux_model, "nginx")
        algorithm = RandomSearch(small_linux_model.space, seed=4)
        session = SearchSession(backend, algorithm)
        with pytest.raises(ValueError):
            session.run()


class TestBackendStateRoundTrip:
    """WorkerPoolBackend export/import round-trips, including in-flight and
    degenerate states (zero trials, skip-build image on a subset of workers)."""

    def _pool(self, os_model, workers=2, seed=7, enable_skip_build=True):
        from repro.platform.executor import WorkerPoolBackend

        simulator = make_simulator(os_model, "nginx", seed=seed)
        metric = metric_for_application("nginx")
        return WorkerPoolBackend(simulator, metric, workers=workers,
                                 enable_skip_build=enable_skip_build)

    def _variants(self, space, n):
        default = space.default_configuration()
        return [default.with_values({"net.core.somaxconn": 128 + index})
                for index in range(n)]

    def test_zero_trial_round_trip(self, small_linux_model):
        backend = self._pool(small_linux_model)
        state = backend.export_state()
        assert set(state) == {"kind", "simulator", "pipelines", "busy_s",
                              "horizon_s", "in_flight"}
        assert state["in_flight"] == []
        assert state["busy_s"] == [0.0, 0.0]
        restored = self._pool(small_linux_model)
        restored.import_state(state)
        assert restored.export_state() == state
        assert restored.trials_run == 0
        assert restored.worker_utilization == [1.0, 1.0]

    def test_in_flight_trials_round_trip(self, small_linux_model):
        backend = self._pool(small_linux_model)
        for configuration in self._variants(small_linux_model.space, 2):
            backend.submit(configuration)
        assert backend.in_flight == 2
        state = backend.export_state()
        assert len(state["in_flight"]) == 2

        restored = self._pool(small_linux_model)
        restored.import_state(state)
        assert restored.export_state() == state
        assert restored.pending_configurations() == backend.pending_configurations()
        # popping completions from both yields identical records, and the
        # freed workers continue from identical clocks
        while backend.in_flight:
            ours = backend.next_completion()
            theirs = restored.next_completion()
            assert (ours.configuration, ours.objective, ours.crashed,
                    ours.duration_s, ours.started_at_s, ours.worker) == (
                        theirs.configuration, theirs.objective, theirs.crashed,
                        theirs.duration_s, theirs.started_at_s, theirs.worker)
        assert restored.worker_clocks_s == backend.worker_clocks_s

    def test_skip_build_image_on_subset_of_workers(self, small_linux_model):
        backend = self._pool(small_linux_model)
        # one completed trial: only worker 0 has booted (and can reuse) an image
        records = backend.run_batch(self._variants(small_linux_model.space, 1))
        state = backend.export_state()
        images = [entry["last_running_configuration"]
                  for entry in state["pipelines"]]
        assert images[1] is None  # worker 1 never evaluated anything
        if not records[0].crashed:
            assert images[0] is not None

        restored = self._pool(small_linux_model)
        restored.import_state(state)
        assert restored.export_state() == state
        assert restored.builds_skipped == backend.builds_skipped
        assert restored.worker_busy_s == backend.worker_busy_s

    def test_import_rejects_mismatched_shape(self, small_linux_model):
        backend = self._pool(small_linux_model, workers=2)
        state = backend.export_state()
        three = self._pool(small_linux_model, workers=3)
        with pytest.raises(ValueError):
            three.import_state(state)
        one = self._pool(small_linux_model, workers=1)
        with pytest.raises(ValueError):
            one.import_state(state)

    def test_state_without_event_fields_is_rejected(self, small_linux_model):
        """Every exported state carries the event fields; none is defaulted."""
        backend = self._pool(small_linux_model)
        backend.run_batch(self._variants(small_linux_model.space, 2))
        for key in ("busy_s", "horizon_s", "in_flight"):
            state = backend.export_state()
            state.pop(key)
            with pytest.raises(KeyError):
                self._pool(small_linux_model).import_state(state)
