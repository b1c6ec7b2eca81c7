#!/usr/bin/env python3
"""Co-optimize throughput and memory on top of a Cozart-debloated kernel (§4.4).

The pipeline of the paper's Figure 11 / Table 4: first apply Cozart-style
compile-time debloating (drop every kernel feature the Nginx workload never
exercises), then let Wayfinder optimize the runtime parameters of the
debloated kernel for the composite score s = mXNorm(throughput) -
mXNorm(memory).

Usage:
    python examples/cozart_cooptimization.py [iterations]
"""

import sys

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


def main() -> None:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 60

    os_model = linux_os_model(seed=9)
    debloated = CozartDebloater(os_model, seed=9).debloat("nginx")
    print("Cozart disabled {} compile-time options, kept {}".format(
        debloated.disabled_count, len(debloated.kept_options)))

    application = get_application("nginx")
    bench = default_bench_tool_for("nginx")
    # Fixed normalization ranges keep the throughput and memory terms of the
    # score comparable over the whole run (the paper normalizes over the full
    # result set when ranking Table 4).
    metric = CompositeScoreMetric(throughput_range=(8000.0, 22000.0),
                                  memory_range=(150.0, 450.0))
    simulator = SystemSimulator(os_model, application, bench, seed=9)

    baseline = simulator.evaluate(debloated.baseline)
    default = simulator.evaluate(os_model.default_configuration())
    print("Default kernel: {:.0f} req/s, {:.1f} MB".format(
        default.metric_value, default.memory_mb))
    print("Cozart baseline: {:.0f} req/s, {:.1f} MB".format(
        baseline.metric_value, baseline.memory_mb))
    metric.score(baseline.metric_value, baseline.memory_mb)

    backend = WorkerPoolBackend(simulator, metric)
    search = DeepTuneSearch(debloated.reduced_space, seed=9,
                            favored_kinds=[ParameterKind.RUNTIME])
    result = SearchSession(backend, search).run(iterations=iterations)

    top = sorted(result.history.successful_records(),
                 key=lambda record: record.objective, reverse=True)[:5]
    rows = [(rank + 1, "{:.2f}".format(record.objective),
             "{:.1f}".format(record.memory_mb), "{:.0f}".format(record.metric_value))
            for rank, record in enumerate(top)]
    rows.append(("Cozart", "-", "{:.1f}".format(baseline.memory_mb),
                 "{:.0f}".format(baseline.metric_value)))
    print(format_table(("rank", "score", "memory (MB)", "throughput (req/s)"), rows,
                       title="Top configurations on top of the Cozart baseline"))


if __name__ == "__main__":
    main()
