"""Table 4: top-5 configurations of the throughput-memory co-optimization.

Runs the Figure 11 pipeline (Cozart debloating + runtime co-optimization) and
reports the five best-scoring configurations — score, memory, throughput —
next to the Cozart baseline, recomputing the score over the full result set
so the ranking is consistent (the paper's min-max normalization is over the
whole experiment).

Shape check: the top entries beat the Cozart baseline on the combined score,
and at least one of them improves throughput without using more memory than
the baseline plus a small margin.
"""

from repro.analysis.reporting import format_table
from repro.apps.registry import default_bench_tool_for, get_application
from repro.config.parameter import ParameterKind
from repro.cozart.debloat import CozartDebloater
from repro.deeptune.algorithm import DeepTuneSearch
from repro.platform.executor import WorkerPoolBackend
from repro.platform.metrics import CompositeScoreMetric
from repro.platform.runner import SearchSession
from repro.vm.os_model import linux_os_model
from repro.vm.simulator import SystemSimulator

from benchmarks.conftest import scaled

ITERATIONS = 80


def run_and_rank(iterations: int):
    os_model = linux_os_model(version="v4.19", seed=23)
    debloated = CozartDebloater(os_model, seed=23).debloat("nginx")
    application = get_application("nginx")
    bench = default_bench_tool_for("nginx")
    metric = CompositeScoreMetric(throughput_range=(8000.0, 22000.0),
                                  memory_range=(150.0, 450.0))
    simulator = SystemSimulator(os_model, application, bench, seed=23)
    baseline_outcome = simulator.evaluate(debloated.baseline)
    assert not baseline_outcome.crashed, "the Cozart baseline must boot and run"
    metric.score(baseline_outcome.metric_value, baseline_outcome.memory_mb)

    backend = WorkerPoolBackend(simulator, metric)
    algorithm = DeepTuneSearch(debloated.reduced_space, seed=23,
                               favored_kinds=[ParameterKind.RUNTIME])
    result = SearchSession(backend, algorithm).run(iterations=iterations)

    successes = result.history.successful_records()
    # Recompute the score over the full result set with a fresh normalizer so
    # the ranking reflects global min-max normalization (paper eq. 4).
    final_metric = CompositeScoreMetric()
    points = [(r.metric_value, r.memory_mb) for r in successes]
    points.append((baseline_outcome.metric_value, baseline_outcome.memory_mb))
    for throughput, memory in points:
        final_metric._update_range(throughput, memory)
    scored = [
        (final_metric.score(r.metric_value, r.memory_mb), r.memory_mb, r.metric_value)
        for r in successes
    ]
    scored.sort(key=lambda item: item[0], reverse=True)
    baseline_score = final_metric.score(baseline_outcome.metric_value,
                                        baseline_outcome.memory_mb)
    return scored[:5], (baseline_score, baseline_outcome.memory_mb,
                        baseline_outcome.metric_value)


def test_table4_top5_cooptimized_configurations(benchmark):
    top5, baseline = benchmark.pedantic(run_and_rank, args=(scaled(ITERATIONS),),
                                        rounds=1, iterations=1)

    rows = [(rank + 1, "{:.2f}".format(score), "{:.1f}".format(memory),
             "{:.0f}".format(throughput))
            for rank, (score, memory, throughput) in enumerate(top5)]
    rows.append(("Cozart", "{:.2f}".format(baseline[0]), "{:.1f}".format(baseline[1]),
                 "{:.0f}".format(baseline[2])))
    print()
    print(format_table(("Rank", "Score", "Memory (MB)", "Throughput (req/s)"), rows,
                       title="Table 4: top-5 throughput-memory configurations "
                             "on top of Cozart"))

    assert len(top5) == 5
    baseline_score = baseline[0]
    # Every top-5 entry scores at least as well as the Cozart baseline.
    assert all(score >= baseline_score for score, _, _ in top5)
    # At least one of the top entries delivers more throughput than the
    # baseline without exceeding its memory footprint by more than a few MB.
    assert any(throughput > baseline[2] and memory <= baseline[1] + 20.0
               for _, memory, throughput in top5)
