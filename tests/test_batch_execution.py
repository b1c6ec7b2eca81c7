"""Batched multi-worker execution: equivalence, determinism, clock merging.

Three properties pin the batched engine to the historical sequential loop:

1. ``propose_batch(history, 1)`` behaves exactly like ``[propose(history)]``
   for every registered algorithm (same configuration, same RNG draws).
2. A ``workers=1, batch_size=1`` session reproduces the pre-refactor
   strictly sequential propose→evaluate→observe loop trial for trial (the
   reference loop is re-implemented inline below, exactly as the runner
   used to execute it).
3. With the same seed, ``workers=1`` and ``workers=4`` evaluate the same
   configurations for batch-native algorithms.  This holds because workers
   share one simulator (the measurement-noise stream is consumed in
   dispatch order) and algorithms observe in submission order; skip-build
   is disabled here since image reuse is inherently per-worker state that
   legitimately changes durations and build/boot-failure masking.
"""

from __future__ import annotations

import pytest

from repro.config.parameter import BoolParameter, ParameterKind
from repro.config.space import ConfigSpace
from repro.platform.executor import WorkerPoolBackend
from repro.platform.history import ExplorationHistory
from repro.platform.metrics import ThroughputMetric, metric_for_application
from repro.platform.runner import SearchSession
from repro.search.base import ConfigurationSampler
from repro.search.registry import available_algorithms, create_algorithm

from tests.conftest import make_pipeline, make_pool, make_simulator
from tests.test_platform import make_record

#: per-algorithm options keeping the model-guided phases cheap but active.
ALGO_OPTIONS = {
    "random": {},
    "grid": {},
    "bayesian": {"initial_random": 3, "candidate_pool_size": 16},
    "unicorn": {"candidate_pool_size": 8, "top_k": 4},
    "deeptune": {"warmup_iterations": 3, "candidate_pool_size": 32,
                 "training_steps_per_iteration": 4, "hidden_dims": (24, 12),
                 "n_centroids": 8},
}

BATCH_NATIVE = ("random", "grid", "bayesian", "deeptune")


def _build_algorithm(name, space, seed=9):
    return create_algorithm(name, space, seed=seed,
                            favored_kinds=[ParameterKind.RUNTIME],
                            **ALGO_OPTIONS[name])


def _observed_history(space, algorithms, n=6, seed=123):
    """One shared history whose records every algorithm in *algorithms* observed."""
    sampler = ConfigurationSampler(space, seed=seed,
                                   favored_kinds=[ParameterKind.RUNTIME])
    history = ExplorationHistory(ThroughputMetric())
    for index in range(n):
        record = make_record(sampler.sample(), index, 50.0 + 10.0 * index,
                             crashed=(index == 2), started=index * 150.0)
        history.add(record)
        for algorithm in algorithms:
            algorithm.observe(record)
    return history


class TestProposeBatchContract:
    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_k1_matches_propose_cold(self, name, small_space):
        a = _build_algorithm(name, small_space)
        b = _build_algorithm(name, small_space)
        history = ExplorationHistory(ThroughputMetric())
        assert b.propose_batch(history, 1) == [a.propose(history)]

    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_k1_matches_propose_warm(self, name, small_space):
        a = _build_algorithm(name, small_space)
        b = _build_algorithm(name, small_space)
        history = _observed_history(small_space, [a, b])
        assert b.propose_batch(history, 1) == [a.propose(history)]

    @pytest.mark.parametrize("name", BATCH_NATIVE)
    def test_batch_is_distinct_and_fresh(self, name, small_space):
        algorithm = _build_algorithm(name, small_space)
        history = _observed_history(small_space, [algorithm])
        batch = algorithm.propose_batch(history, 4)
        assert len(batch) == 4
        assert len(set(batch)) == 4
        for configuration in batch:
            assert not history.contains_configuration(configuration)

    def test_rejects_empty_batch(self, small_space):
        algorithm = _build_algorithm("random", small_space)
        history = ExplorationHistory(ThroughputMetric())
        with pytest.raises(ValueError):
            algorithm.propose_batch(history, 0)

    def test_registry_covers_all_batch_options(self):
        assert set(ALGO_OPTIONS) == set(available_algorithms())

    def test_unicorn_stays_sequential(self, small_space):
        algorithm = _build_algorithm("unicorn", small_space)
        history = _observed_history(small_space, [algorithm])
        relearns_before = len(algorithm.iteration_stats)
        algorithm.propose_batch(history, 3)
        # one full causal-graph recomputation per proposal: the Figure 7
        # cost profile survives batching.
        assert len(algorithm.iteration_stats) == relearns_before + 3


def _reference_sequential_run(pipeline, algorithm, metric, iterations):
    """The pre-refactor SearchSession loop, verbatim: one trial at a time."""
    history = ExplorationHistory(metric)
    record = pipeline.evaluate(pipeline.space.default_configuration())
    history.add(record)
    algorithm.observe(record)
    completed = 1
    while completed < iterations:
        configuration = algorithm.propose(history)
        record = pipeline.evaluate(configuration)
        history.add(record)
        algorithm.observe(record)
        completed += 1
    return history


def _trial_tuple(record):
    return (record.index, record.configuration, record.objective,
            record.crashed, record.duration_s, record.started_at_s,
            record.build_skipped)


class TestSequentialEquivalence:
    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_batch1_worker1_reproduces_sequential_loop(self, name, small_linux_model):
        iterations = 6 if name == "unicorn" else 8
        metric = metric_for_application("nginx")

        reference = _reference_sequential_run(
            make_pipeline(small_linux_model, "nginx"),
            _build_algorithm(name, small_linux_model.space),
            metric, iterations)

        session = SearchSession(
            make_pool(small_linux_model, "nginx"),
            _build_algorithm(name, small_linux_model.space),
            metric, evaluate_default_first=True, batch_size=1)
        result = session.run(iterations=iterations)

        assert len(result.history) == len(reference) == iterations
        for ours, theirs in zip(result.history, reference):
            assert _trial_tuple(ours) == _trial_tuple(theirs)


class TestWorkerCountDeterminism:
    def _run(self, name, os_model, workers, batch_size, iterations=12):
        simulator = make_simulator(os_model, "nginx", seed=5)
        metric = metric_for_application("nginx")
        backend = WorkerPoolBackend(simulator, metric, workers=workers,
                                    enable_skip_build=False)
        session = SearchSession(algorithm=_build_algorithm(name, os_model.space, seed=3),
                                metric=metric, backend=backend,
                                evaluate_default_first=True,
                                batch_size=batch_size)
        return session.run(iterations=iterations).history

    @pytest.mark.parametrize("name", BATCH_NATIVE)
    def test_worker_count_does_not_change_evaluated_set(self, name, small_linux_model):
        iterations = 9 if name in ("bayesian", "deeptune") else 13
        serial = self._run(name, small_linux_model, 1, 4, iterations)
        fleet = self._run(name, small_linux_model, 4, 4, iterations)
        assert len(serial) == len(fleet) == iterations
        assert (set(r.configuration for r in serial)
                == set(r.configuration for r in fleet))
        # stronger: same outcomes per configuration (shared-simulator RNG
        # stream is consumed in the same dispatch order).
        serial_outcomes = {r.configuration: (r.objective, r.crashed) for r in serial}
        fleet_outcomes = {r.configuration: (r.objective, r.crashed) for r in fleet}
        assert serial_outcomes == fleet_outcomes
        # and the fleet compresses the virtual time axis
        assert fleet[-1].finished_at_s < serial[-1].finished_at_s


class TestWorkerPoolBackend:
    def _pool(self, os_model, workers=2, enable_skip_build=True):
        simulator = make_simulator(os_model, "nginx", seed=7)
        metric = metric_for_application("nginx")
        return WorkerPoolBackend(simulator, metric, workers=workers,
                                 enable_skip_build=enable_skip_build)

    def _variants(self, space, n):
        default = space.default_configuration()
        return [default.with_values({"net.core.somaxconn": 128 + index})
                for index in range(n)]

    def test_requires_a_worker(self, small_linux_model):
        with pytest.raises(ValueError):
            self._pool(small_linux_model, workers=0)

    def test_batch_overlaps_in_virtual_time(self, small_linux_model):
        backend = self._pool(small_linux_model, workers=2)
        configurations = self._variants(small_linux_model.space, 4)
        records = backend.run_batch(configurations)
        # submission order is preserved in the returned list
        assert [r.configuration for r in records] == configurations
        # both workers start their first trial at the common barrier time
        assert sum(1 for r in records if r.started_at_s == 0.0) == 2
        assert {r.worker for r in records} == {0, 1}
        assert backend.trials_run == 4
        assert backend.now_s == max(backend.worker_clocks_s)
        assert backend.now_s < sum(r.duration_s for r in records)

    def test_barrier_syncs_clocks_between_batches(self, small_linux_model):
        backend = self._pool(small_linux_model, workers=2)
        first = backend.run_batch(self._variants(small_linux_model.space, 3))
        horizon = max(r.finished_at_s for r in first)
        second = backend.run_batch(self._variants(small_linux_model.space, 2))
        for record in second:
            assert record.started_at_s >= horizon

    def test_skip_build_state_is_per_worker(self, small_linux_model):
        backend = self._pool(small_linux_model, workers=2)
        # batch 1: each worker builds and boots its own image
        backend.run_batch(self._variants(small_linux_model.space, 2))
        # batch 2: runtime-only variants reuse each worker's running image
        records = backend.run_batch(self._variants(small_linux_model.space, 2))
        assert backend.builds_skipped == sum(
            pipeline.builds_skipped for pipeline in backend.pipelines)
        assert any(r.build_skipped for r in records)

    def test_history_add_batch_orders_by_completion(self, small_linux_model):
        backend = self._pool(small_linux_model, workers=2)
        records = backend.run_batch(self._variants(small_linux_model.space, 4))
        history = ExplorationHistory(metric_for_application("nginx"))
        ordered = history.add_batch(records)
        finished = [r.finished_at_s for r in ordered]
        assert finished == sorted(finished)
        assert [r.index for r in history] == list(range(4))
        assert set(ordered) == set(records)

    def test_single_worker_pool_runs_back_to_back(self, small_linux_model):
        backend = self._pool(small_linux_model, workers=1)
        configurations = self._variants(small_linux_model.space, 2)
        records = backend.run_batch(configurations)
        starts = [r.started_at_s for r in records]
        assert starts == sorted(starts)
        assert records[1].started_at_s == records[0].finished_at_s
        assert backend.now_s == backend.pipelines[0].clock.now_s
        assert backend.workers == 1


class TestBatchedSession:
    def _session(self, os_model, workers, batch_size):
        simulator = make_simulator(os_model, "nginx", seed=11)
        metric = metric_for_application("nginx")
        backend = WorkerPoolBackend(simulator, metric, workers=workers)
        algorithm = _build_algorithm("random", os_model.space, seed=2)
        return SearchSession(algorithm=algorithm, metric=metric, backend=backend,
                             evaluate_default_first=True, batch_size=batch_size)

    def test_default_runs_first_and_alone(self, small_linux_model):
        session = self._session(small_linux_model, 4, 4)
        result = session.run(iterations=9)
        history = result.history
        default = small_linux_model.space.default_configuration()
        assert history[0].configuration == default
        assert history[0].started_at_s == 0.0
        for record in list(history)[1:]:
            assert record.started_at_s >= history[0].finished_at_s

    def test_iteration_budget_exact_with_ragged_batches(self, small_linux_model):
        result = self._session(small_linux_model, 4, 4).run(iterations=7)
        assert result.iterations == 7
        assert result.workers == 4
        assert result.batch_size == 4
        assert result.summary()["workers"] == 4

    def test_time_budget_overshoots_at_most_one_batch(self, small_linux_model):
        session = self._session(small_linux_model, 2, 2)
        result = session.run(time_budget_s=2500.0)
        history = result.history
        assert history.total_elapsed_s() >= 2500.0
        # every trial of the final batch started before the budget expired
        final_start = min(r.started_at_s for r in list(history)[-2:])
        assert final_start < 2500.0

    def test_run_rejects_bad_batch_size(self, small_linux_model):
        session = self._session(small_linux_model, 1, 1)
        with pytest.raises(ValueError):
            session.run(iterations=4, batch_size=0)


class TestSamplePoolDeduplication:
    def test_pool_avoids_explored_configurations(self):
        space = ConfigSpace([
            BoolParameter("flag_a", ParameterKind.RUNTIME, default=False),
            BoolParameter("flag_b", ParameterKind.RUNTIME, default=False),
        ], name="tiny")
        sampler = ConfigurationSampler(space, seed=1)
        history = ExplorationHistory(ThroughputMetric())
        # explore 3 of the 4 possible configurations
        default = space.default_configuration()
        for index, values in enumerate([{}, {"flag_a": True},
                                        {"flag_b": True}]):
            history.add(make_record(default.with_values(values), index, 1.0))
        pool = sampler.sample_pool(8, history=history, attempts_per_slot=64)
        assert len(pool) == 8
        unexplored = default.with_values({"flag_a": True, "flag_b": True})
        assert all(configuration == unexplored for configuration in pool)

    def test_without_history_behaviour_unchanged(self, small_space):
        a = ConfigurationSampler(small_space, seed=6)
        b = ConfigurationSampler(small_space, seed=6)
        assert a.sample_pool(5) == [b.sample() for _ in range(5)]
