#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the Wayfinder reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deeptune-seq --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no wrapper
installed; ``--trace 1`` prints the per-layer metrics from a separate
traced run.  The program is imported from ``src/`` next to this directory
and driven only through its public entry points; the workload seed is
expanded into the program's own seeds here.  The last line of standard
output is the result object; the line before it holds the machine and the
per-session details.  See ``perfbench/README.md`` for the workloads, the
metric definitions and which layer should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

# One BLAS thread: the measurement host has two cores and a workload may
# keep one program thread busy next to the HTTP threads, so BLAS must not
# add more.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("deeptune-seq", "deeptune-fleet", "campaign-service")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """Put this checkout's ``src/`` on the path and import the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program sources at {}".format(SRC))
    sys.path.insert(1, SRC)  # after this directory, which holds the modules
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported repro from {}, not {}".format(
            repro.__file__, SRC))


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["unit"]
                for entry in json.load(handle)[kind]}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from common import machine

    if args.workload == "campaign-service":
        import campaign_service as workload
    else:
        import deeptune_loop as workload

    declared = _declared("per_layer" if args.trace else "end_to_end")
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work)
    try:
        outcome = workload.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass  # another run still uses it
    metrics = outcome["metrics"]
    if set(metrics) != set(declared):
        raise SystemExit("perfbench: measured {} but BENCHMARK.json declares "
                         "{}".format(sorted(metrics), sorted(declared)))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "machine": machine(), "detail": outcome["detail"]}))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
