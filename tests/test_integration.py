"""Integration tests: full search sessions across modules.

These tests reproduce, at a reduced iteration count, the qualitative claims
of the paper's evaluation: DeepTune finds better-than-default configurations,
its crash rate drops below random search's, transfer learning warm-starts the
search, Cozart debloating composes with the runtime search, and the memory
metric drives footprint reductions.
"""

import pytest

from repro import Wayfinder
from repro.apps.registry import default_bench_tool_for, get_application
from repro.config.parameter import ParameterKind
from repro.cozart.debloat import CozartDebloater
from repro.deeptune.algorithm import DeepTuneSearch
from repro.deeptune.transfer import transfer_model
from repro.platform.executor import WorkerPoolBackend
from repro.platform.metrics import CompositeScoreMetric
from repro.platform.runner import SearchSession
from repro.vm.simulator import SystemSimulator

from tests.conftest import SMALL_SPACE_OPTIONS


def linux_wayfinder(**kwargs):
    defaults = dict(application="nginx", metric="throughput", seed=31,
                    algorithm="deeptune", favor="runtime",
                    space_options=SMALL_SPACE_OPTIONS)
    defaults.update(kwargs)
    return Wayfinder.for_linux(**defaults)


class TestPerformanceSearch:
    def test_deeptune_beats_default_for_nginx(self):
        result = linux_wayfinder().specialize(iterations=35)
        assert result.improvement_factor > 1.05

    def test_deeptune_crash_rate_drops_below_random(self):
        deeptune = linux_wayfinder(seed=32).specialize(iterations=45)
        random_result = linux_wayfinder(seed=32, algorithm="random").specialize(iterations=45)
        late_deeptune = deeptune.history.crash_rate_series(window=15)[-1][1]
        late_random = random_result.history.crash_rate_series(window=15)[-1][1]
        assert late_deeptune <= late_random

    def test_npb_improvement_is_marginal(self):
        result = linux_wayfinder(application="npb", seed=33).specialize(iterations=25)
        assert result.improvement_factor == pytest.approx(1.0, abs=0.06)

    def test_sqlite_stays_close_to_default(self):
        result = linux_wayfinder(application="sqlite", metric="auto",
                                 seed=34).specialize(iterations=25)
        # The default is already close to optimal: no large improvement exists.
        assert result.improvement_factor < 1.10


class TestTransferLearning:
    def test_redis_model_warm_starts_nginx(self):
        redis_wayfinder = linux_wayfinder(application="redis", seed=35)
        redis_wayfinder.specialize(iterations=35)
        pretrained = transfer_model(redis_wayfinder.trained_model())
        # Keep the replay buffer empty but the learned weights: the paper's
        # "TL" configuration.
        transferred = linux_wayfinder(
            seed=36, algorithm_options={"model": pretrained, "warmup_iterations": 0})
        cold = linux_wayfinder(seed=36)
        warm_result = transferred.specialize(iterations=20)
        cold_result = cold.specialize(iterations=20)
        assert warm_result.crash_rate <= cold_result.crash_rate + 0.1
        assert warm_result.best_performance is not None


class TestMemoryFootprintSearch:
    def test_memory_search_reduces_footprint(self):
        wayfinder = linux_wayfinder(metric="memory", favor="compile",
                                    architecture="riscv64", seed=37)
        result = wayfinder.specialize(iterations=40)
        assert result.best_performance < result.default_objective
        reduction = 1.0 - result.best_performance / result.default_objective
        assert reduction > 0.02


class TestCozartSynergy:
    def test_search_on_top_of_cozart_baseline(self, small_linux_model):
        debloater = CozartDebloater(small_linux_model, seed=2)
        debloated = debloater.debloat("nginx")

        application = get_application("nginx")
        bench = default_bench_tool_for("nginx")
        metric = CompositeScoreMetric()
        simulator = SystemSimulator(small_linux_model, application, bench, seed=5)

        # Score the Cozart baseline itself, then let the search improve on it.
        baseline_outcome = simulator.evaluate(debloated.baseline)
        assert not baseline_outcome.crashed
        baseline_score = metric.score(baseline_outcome.metric_value,
                                      baseline_outcome.memory_mb)

        search = DeepTuneSearch(debloated.reduced_space, seed=5,
                                favored_kinds=[ParameterKind.RUNTIME],
                                warmup_iterations=5, candidate_pool_size=48,
                                training_steps_per_iteration=10)
        session = SearchSession(WorkerPoolBackend(simulator, metric), search)
        result = session.run(iterations=30)
        assert result.best_objective is not None
        assert result.best_objective >= baseline_score


class TestUnikraftSearch:
    def test_deeptune_finds_fast_unikraft_configuration(self):
        wayfinder = Wayfinder.for_unikraft(
            seed=38, algorithm="deeptune",
            algorithm_options={"warmup_iterations": 8, "candidate_pool_size": 64,
                               "training_steps_per_iteration": 10})
        result = wayfinder.specialize(iterations=45)
        assert result.best_performance > 30000

    def test_bayesian_also_improves_but_works_on_small_space(self):
        wayfinder = Wayfinder.for_unikraft(seed=39, algorithm="bayesian",
                                           algorithm_options={"candidate_pool_size": 48})
        result = wayfinder.specialize(iterations=30)
        assert result.best_performance is not None


class TestPlatformBehaviours:
    def test_runtime_favored_search_skips_most_builds(self):
        wayfinder = linux_wayfinder(seed=40, algorithm="random")
        result = wayfinder.specialize(iterations=20)
        # All proposals differ only in runtime parameters after the first
        # build, so nearly every iteration reuses the running image.
        assert result.builds_skipped >= 10

    def test_histories_are_reproducible_for_fixed_seed(self):
        first = linux_wayfinder(seed=41, algorithm="random").specialize(iterations=10)
        second = linux_wayfinder(seed=41, algorithm="random").specialize(iterations=10)
        assert [r.objective for r in first.history] == \
            [r.objective for r in second.history]
        assert [r.crashed for r in first.history] == [r.crashed for r in second.history]
