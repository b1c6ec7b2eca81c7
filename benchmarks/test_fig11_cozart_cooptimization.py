"""Figure 11: throughput-memory co-optimization on top of a Cozart baseline.

The kernel is first debloated with the Cozart-style compile-time pass, then
Wayfinder and random search optimize the runtime parameters of the debloated
kernel for the composite score s = mXNorm(throughput) - mXNorm(memory)
(equation 4).  The benchmark reports the score-over-time curves and crash
rates and checks that the learned policy ends above random search, as the
figure shows.
"""

from repro.analysis.reporting import format_series
from repro.analysis.smoothing import downsample
from repro.apps.registry import default_bench_tool_for, get_application
from repro.config.parameter import ParameterKind
from repro.cozart.debloat import CozartDebloater
from repro.deeptune.algorithm import DeepTuneSearch
from repro.platform.executor import WorkerPoolBackend
from repro.platform.metrics import CompositeScoreMetric
from repro.platform.runner import SearchSession
from repro.search.random_search import RandomSearch
from repro.vm.os_model import linux_os_model
from repro.vm.simulator import SystemSimulator

from benchmarks.conftest import scaled

ITERATIONS = 80
SCORE_THROUGHPUT_RANGE = (8000.0, 22000.0)
SCORE_MEMORY_RANGE = (150.0, 450.0)


def run_cooptimization(iterations: int):
    os_model = linux_os_model(version="v4.19", seed=21)
    debloated = CozartDebloater(os_model, seed=21).debloat("nginx")
    application = get_application("nginx")
    bench = default_bench_tool_for("nginx")

    sessions = {}
    for name in ("random", "deeptune"):
        metric = CompositeScoreMetric(throughput_range=SCORE_THROUGHPUT_RANGE,
                                      memory_range=SCORE_MEMORY_RANGE)
        simulator = SystemSimulator(os_model, application, bench, seed=21)
        baseline_outcome = simulator.evaluate(debloated.baseline)
        baseline_score = metric.score(baseline_outcome.metric_value,
                                      baseline_outcome.memory_mb)
        backend = WorkerPoolBackend(simulator, metric)
        if name == "deeptune":
            algorithm = DeepTuneSearch(debloated.reduced_space, seed=21,
                                       favored_kinds=[ParameterKind.RUNTIME])
        else:
            algorithm = RandomSearch(debloated.reduced_space, seed=21,
                                     favored_kinds=[ParameterKind.RUNTIME])
        result = SearchSession(backend, algorithm).run(iterations=iterations)
        sessions[name] = {
            "result": result,
            "baseline_score": baseline_score,
            "baseline_outcome": baseline_outcome,
        }
    return sessions, debloated


def test_fig11_cozart_cooptimization(benchmark):
    sessions, debloated = benchmark.pedantic(run_cooptimization, args=(scaled(ITERATIONS),),
                                             rounds=1, iterations=1)

    print()
    print("Cozart debloating disabled {} compile-time options".format(
        debloated.disabled_count))
    for name, data in sessions.items():
        result = data["result"]
        series = downsample(result.history.best_so_far_series(), max_points=12)
        print(format_series(series, x_label="time (s)", y_label="best score",
                            title="Figure 11 ({}): throughput-memory score".format(name),
                            max_points=12))
        print("  {}: baseline score={:.2f}, best score={:.2f}, crash rate={:.0%}".format(
            name, data["baseline_score"], result.best_objective or float("nan"),
            result.crash_rate))

    deeptune = sessions["deeptune"]["result"]
    random_result = sessions["random"]["result"]
    assert debloated.disabled_count > 10
    # The learned policy improves on the Cozart baseline score...
    assert deeptune.best_objective >= sessions["deeptune"]["baseline_score"]
    # ...and ends at least as high as random search with the same budget.
    assert deeptune.best_objective >= random_result.best_objective - 0.02
    # Crash behaviour stays reasonable on the debloated kernel.
    assert deeptune.crash_rate <= random_result.crash_rate + 0.15
