#!/usr/bin/env python3
"""Infer the runtime configuration space automatically and write a job file.

This example exercises the §3.4 pipeline: boot a (simulated) VM, list the
writable files under /proc/sys and /sys, infer each parameter's type and valid
range by scaling its default value up and down, and write the resulting space
to a YAML job file that the platform can execute.  A job file is the
declarative :class:`ExperimentSpec` every front-end shares (its ``job:``
block) plus the probed parameters; the example loads it back and runs a
short random-search session from its spec.

Usage:
    python examples/probe_and_jobfile.py [output.yaml]
"""

import sys

from repro import Wayfinder
from repro.analysis.reporting import format_table
from repro.config.jobfile import JobFile, dump_job_file, load_job_file
from repro.config.space import ConfigSpace
from repro.core.spec import ExperimentSpec
from repro.sysctl.probe import SpaceProber
from repro.sysctl.procfs import ProcFS


def main() -> None:
    output = sys.argv[1] if len(sys.argv) > 1 else "probed-job.yaml"

    # Step 1: probe the runtime parameter tree of a freshly booted kernel.
    procfs = ProcFS(extra_generic=20)
    prober = SpaceProber(scale_factor=10, scale_rounds=4)
    probed = prober.probe(procfs)
    print("Probed {} writable runtime parameters".format(len(probed)))
    rows = [(p.path, p.inferred_type, str(p.default), str(p.minimum), str(p.maximum))
            for p in probed[:10]]
    print(format_table(("path", "type", "default", "min", "max"), rows,
                       title="First probed parameters"))

    # Step 2: turn the probe results into a job file.
    space = ConfigSpace([record.to_parameter() for record in probed],
                        name="probed-runtime-space")
    spec = ExperimentSpec(name="nginx-probed", application="nginx",
                          metric="throughput", algorithm="random",
                          favor="runtime", iterations=30, seed=3)
    dump_job_file(JobFile(spec, space), output)
    print("\nWrote job file to {}".format(output))

    # Step 3: load the job file back and run a short session from its spec.
    # The platform searches the OS model's space directly; the job file
    # documents the probed runtime subset for reproducibility.
    loaded = load_job_file(output)
    assert loaded.spec == spec
    wayfinder = Wayfinder.from_spec(loaded.spec)
    probed_names = set(loaded.space.parameter_names())
    overlap = [name for name in probed_names if name in wayfinder.space]
    print("\n{} of the probed parameters exist in the experiment space".format(len(overlap)))

    result = wayfinder.specialize()   # budget and algorithm come from the job
    print("Short random session: best {:.0f} req/s after {} iterations "
          "({:.0%} crash rate)".format(
              result.best_performance, result.iterations, result.crash_rate))


if __name__ == "__main__":
    main()
