"""Command-line interface to the Wayfinder reproduction.

The original Wayfinder ships ``wfctl``, a CLI that creates jobs from YAML job
files and starts exploration runs.  This module provides the equivalent for
the reproduction:

.. code-block:: console

    $ python -m repro.cli census --version v6.0
    $ python -m repro.cli probe --output probed-job.yaml
    $ python -m repro.cli run --application nginx --metric throughput \
          --algorithm deeptune --iterations 100 --results results/
    $ python -m repro.cli run --application redis --algorithm deeptune \
          --workers 4 --batch-size 4 --iterations 200
    $ python -m repro.cli run --job job.yaml
    $ python -m repro.cli run --application nginx --iterations 200 \
          --results results/ --checkpoint-every 5
    $ python -m repro.cli run --resume linux-nginx-deeptune --results results/
    $ python -m repro.cli run --application sqlite --algorithm deeptune \
          --warm-start campaign-out/ --iterations 100
    $ python -m repro.cli compare --application nginx --iterations 60
    $ python -m repro.cli compare --application nginx --favor none \
          --time-budget-s 7200 --workers 4 --batch-size 4
    $ python -m repro.cli campaign run --spec campaign.yaml \
          --results campaign-out/ --procs 4
    $ python -m repro.cli campaign run --results campaign-out/ --resume --procs 4
    $ python -m repro.cli campaign report --results campaign-out/

The flags a user gives become a dict of
:class:`~repro.core.spec.ExperimentSpec` fields; ``run --job`` lays them over
the job file's ``job:`` block, and :meth:`ExperimentSpec.from_dict` validates
the result — the same path job files, campaign grid points and the tuning
service's payloads take, so every surface fails with the same messages
(printed to stderr with exit code 2).  ``--workers N`` evaluates trials on N
simulated system-under-test machines in parallel (batches of
``--batch-size`` proposals per search round), which compresses the virtual
time-to-best.  With ``--results`` and ``--checkpoint-every`` the run
periodically persists a resumable checkpoint; ``--resume NAME`` continues an
interrupted run from it, reproducing the uninterrupted run trial for trial.

``campaign run`` scales the same machinery to paper-style grids: a YAML
campaign spec expands into applications x algorithms x seeds (x favor)
experiments executed by ``--procs`` pull-based workers that claim work
from the campaign manifest under leases (``--lease-s``) and retry failures
with backoff (``--max-attempts``); ``campaign run --resume`` continues a
killed campaign (completed experiments skipped by manifest, in-flight ones
resumed bit-exactly, with a possibly different ``--procs``) and
``campaign report`` renders the cross-experiment tables and figure series.
The ``--chaos-*`` flags inject deterministic faults — worker kills, torn
checkpoint writes, startup failures — to verify all of the above.

Every subcommand prints plain-text tables (no plotting dependencies) and can
persist histories through :class:`repro.platform.results.ResultsStore`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.config.jobfile import JobFile, dump_job_file, load_job_file
from repro.config.space import ConfigSpace
from repro.core.spec import FAVOR_PRESETS, ExperimentSpec
from repro.core.wayfinder import Wayfinder
from repro.kconfig.linux import linux_census
from repro.platform.executor import EXECUTION_MODES
from repro.platform.lifecycle import SessionObserver
from repro.platform.results import ResultsStore
from repro.search.registry import available_algorithms
from repro.sysctl.probe import SpaceProber
from repro.sysctl.procfs import ProcFS


#: spec fields ``run`` sets when neither flags nor a job file do.
_RUN_DEFAULTS: Dict[str, Any] = {"iterations": 100}

#: the --favor choices: every preset, plus "none" for explicitly unfavored.
_FAVOR_CHOICES = sorted(name for name in FAVOR_PRESETS if name) + ["none"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a number") from None
    if not value > 0:  # rejects 0, negatives, and nan
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def _rate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a number") from None
    if not 0.0 <= value <= 1.0:  # rejects nan too
        raise argparse.ArgumentTypeError("must be in [0, 1]")
    return value


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "run", help="run a specialization search for an application/metric")
    parser.add_argument("--job", help="YAML/JSON job file to execute")
    # Every flag that sets a spec field stores into the field's own name and
    # defaults to None: only flags the user gave override the job file (or
    # the spec's defaults), see _flag_fields.
    parser.add_argument("--application",
                        help="application to specialize for (default: nginx, "
                             "or the job file's value)")
    parser.add_argument("--metric",
                        help="throughput | latency | memory | score | auto "
                             "(default: auto, or the job file's value)")
    parser.add_argument("--algorithm", choices=available_algorithms(),
                        help="search algorithm (default: deeptune, or the "
                             "job file's value)")
    parser.add_argument("--os", dest="os_name", choices=("linux", "unikraft"),
                        help="target OS (default: linux, or the job file's "
                             "value)")
    parser.add_argument("--favor", choices=_FAVOR_CHOICES,
                        help="parameter kinds to concentrate the search on "
                             "(default: runtime on linux, none on unikraft)")
    parser.add_argument("--iterations", type=_positive_int,
                        help="trial budget (default: {}, or the job file's "
                             "value)".format(_RUN_DEFAULTS["iterations"]))
    parser.add_argument("--time-budget-s", type=_positive_float,
                        help="virtual-time budget in simulated seconds")
    parser.add_argument("--plateau", dest="plateau_trials", type=_positive_int,
                        help="stop after this many trials without a new incumbent")
    parser.add_argument("--seed", type=_non_negative_int,
                        help="random seed (default: 0, or the job file's value)")
    parser.add_argument("--workers", type=_positive_int,
                        help="simulated SUT machines evaluating in parallel "
                             "(default: 1, or the job file's value)")
    parser.add_argument("--batch-size", type=_positive_int,
                        help="configurations proposed per search round "
                             "(default: 1, or the job file's value)")
    parser.add_argument("--execution", choices=EXECUTION_MODES,
                        help="scheduling policy: batch forms a barrier per "
                             "search round, async hands each worker its next "
                             "proposal the moment it finishes a trial "
                             "(default: batch, or the job file's value)")
    parser.add_argument("--warm-start", metavar="ZOO",
                        help="warm-start DeepTune from a surrogate zoo: a "
                             "zoo/ directory, or a campaign results "
                             "directory containing one. The nearest donor "
                             "by parameter-importance similarity seeds the "
                             "model; falls back to cold start when no "
                             "compatible donor exists")
    parser.add_argument("--warm-start-min-similarity", type=_rate, default=None,
                        help="minimum donor similarity in [0, 1]; donors "
                             "below it are ignored (default: 0.2)")
    parser.add_argument("--results", help="directory to store the exploration history")
    parser.add_argument("--name", help="name of the experiment and its stored "
                                       "history (default: derived)")
    parser.add_argument("--checkpoint-every", type=_positive_int, default=None,
                        help="persist a resumable checkpoint every N batches "
                             "(requires --results)")
    parser.add_argument("--resume", metavar="NAME",
                        help="continue from a stored checkpoint (a name inside "
                             "--results, or a checkpoint file path); the stored "
                             "spec supplies the experiment settings and budget "
                             "flags extend it")


def _add_probe_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "probe", help="infer the runtime configuration space of a booted kernel (§3.4)")
    parser.add_argument("--output", default="probed-job.yaml",
                        help="job file to write (YAML or JSON)")
    parser.add_argument("--application", default="nginx")
    parser.add_argument("--scale-factor", type=_positive_int, default=10)
    parser.add_argument("--extra-generic", type=_non_negative_int, default=40,
                        help="number of synthetic long-tail sysctls in the probe VM")


def _add_census_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "census", help="print the configuration-space census (Table 1)")
    parser.add_argument("--version", default="v6.0", choices=("v6.0", "v4.19"))


def _add_campaign_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "campaign",
        help="run and report grids of experiments (paper-scale campaigns)")
    campaign_subparsers = parser.add_subparsers(dest="campaign_command",
                                                required=True)

    run_parser = campaign_subparsers.add_parser(
        "run", help="execute a campaign grid on a pool of OS processes")
    run_parser.add_argument("--spec", help="campaign YAML/JSON file "
                                           "(omit with --resume: the stored "
                                           "manifest supplies it)")
    run_parser.add_argument("--results", required=True,
                            help="campaign directory (manifest, checkpoints, "
                                 "per-experiment histories)")
    run_parser.add_argument("--procs", type=_positive_int, default=1,
                            help="worker processes running experiments "
                                 "concurrently (default: 1)")
    run_parser.add_argument("--checkpoint-every", type=_positive_int,
                            default=None,
                            help="per-experiment checkpoint cadence in "
                                 "batches (default: 1, or the stored "
                                 "campaign's cadence on resume)")
    run_parser.add_argument("--resume", action="store_true",
                            help="continue an interrupted campaign: completed "
                                 "experiments are skipped by manifest, "
                                 "checkpointed ones resume bit-exactly")
    run_parser.add_argument("--max-experiments", type=_positive_int,
                            default=None,
                            help="run at most N experiments this invocation "
                                 "(the manifest keeps the rest pending)")
    run_parser.add_argument("--lease-s", type=_positive_float, default=None,
                            help="experiment lease duration in seconds; a "
                                 "worker that stops heartbeating for this "
                                 "long is presumed dead and its experiment "
                                 "is reclaimed (default: 30)")
    run_parser.add_argument("--max-attempts", type=_positive_int, default=None,
                            help="failed-experiment retries before "
                                 "quarantine to failed-permanent (default: 3)")
    run_parser.add_argument("--chaos-seed", type=_non_negative_int,
                            default=None,
                            help="seed for deterministic fault injection "
                                 "(overrides the spec's chaos block)")
    run_parser.add_argument("--chaos-kill-rate", type=_rate, default=None,
                            help="probability of killing a worker at each "
                                 "completion event (checkpoint saved or "
                                 "experiment finished)")
    run_parser.add_argument("--chaos-torn-write-rate", type=_rate,
                            default=None,
                            help="probability a checkpoint write is torn "
                                 "(truncated on disk) before the worker dies")
    run_parser.add_argument("--chaos-startup-failure-rate", type=_rate,
                            default=None,
                            help="probability an experiment start raises a "
                                 "transient (retryable) failure")

    report_parser = campaign_subparsers.add_parser(
        "report", help="render the cross-experiment tables and figure series "
                       "(aggregates stream off the columnar trial store, no "
                       "payload parsing)")
    report_parser.add_argument("--results", required=True,
                               help="campaign directory to aggregate")
    report_parser.add_argument("--max-points", type=_positive_int, default=12,
                               help="points per rendered figure series "
                                    "(must be a positive integer)")
    report_parser.add_argument("--json", action="store_true",
                               help="emit the machine-readable report "
                                    "document (identical bytes to the "
                                    "tuning service's /report endpoint)")


def _add_serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="run the tuning service: an HTTP/JSON API over the "
                      "campaign fabric")
    parser.add_argument("--results", required=True,
                        help="results root; every job is a campaign "
                             "directory <root>/<tenant>/<seq> and restart "
                             "recovery rescans it")
    parser.add_argument("--host", default="127.0.0.1",
                        help="address to bind (default: 127.0.0.1)")
    parser.add_argument("--port", type=_non_negative_int, default=8080,
                        help="port to bind; 0 picks a free port "
                             "(default: 8080)")
    parser.add_argument("--workers", type=_positive_int, default=2,
                        help="job worker pool size — jobs running "
                             "concurrently, not per-job parallelism "
                             "(default: 2)")
    parser.add_argument("--checkpoint-every", type=_positive_int, default=1,
                        help="per-experiment checkpoint cadence in batches "
                             "for submitted jobs (default: 1)")
    parser.add_argument("--lease-s", type=_positive_float, default=None,
                        help="experiment lease duration in seconds "
                             "(default: 30)")
    parser.add_argument("--max-attempts", type=_positive_int, default=None,
                        help="failed-experiment retries before quarantine "
                             "(default: 3)")


def _add_compare_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "compare", help="compare search algorithms on one application")
    parser.add_argument("--application")
    parser.add_argument("--os", dest="os_name", choices=("linux", "unikraft"))
    parser.add_argument("--algorithms", nargs="+",
                        default=["random", "bayesian", "deeptune"])
    parser.add_argument("--favor", choices=_FAVOR_CHOICES,
                        help="parameter kinds to concentrate the search on "
                             "(default: runtime on linux, none on unikraft)")
    parser.add_argument("--iterations", type=_positive_int, default=60)
    parser.add_argument("--time-budget-s", type=_positive_float)
    parser.add_argument("--seed", type=_non_negative_int)
    parser.add_argument("--workers", type=_positive_int,
                        help="simulated SUT machines evaluating in parallel")
    parser.add_argument("--batch-size", type=_positive_int,
                        help="configurations proposed per search round")
    parser.add_argument("--execution", choices=EXECUTION_MODES,
                        help="scheduling policy for every compared algorithm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wayfinder-repro",
        description="Wayfinder (EuroSys'26) reproduction command-line interface")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    _add_probe_parser(subparsers)
    _add_census_parser(subparsers)
    _add_compare_parser(subparsers)
    _add_campaign_parser(subparsers)
    _add_serve_parser(subparsers)
    return parser


def _flag_fields(args: argparse.Namespace) -> Dict[str, Any]:
    """The spec fields set by the flags the user actually gave.

    ``--warm-start ZOO`` and ``--warm-start-min-similarity`` together form
    the ``warm_start`` block.
    """
    fields = {field: getattr(args, field) for field in ExperimentSpec.FIELDS
              if getattr(args, field, None) is not None}
    similarity = getattr(args, "warm_start_min_similarity", None)
    if "warm_start" in fields:
        fields["warm_start"] = {"zoo": fields["warm_start"]}
        if similarity is not None:
            fields["warm_start"]["min_similarity"] = similarity
    elif similarity is not None:
        raise SystemExit("--warm-start-min-similarity requires --warm-start")
    return fields


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The experiment spec a ``run`` invocation describes: the flags the user
    gave, laid over the job file's spec (or the run defaults)."""
    fields = (load_job_file(args.job).spec.to_dict() if args.job
              else dict(_RUN_DEFAULTS))
    fields.update(_flag_fields(args))
    return ExperimentSpec.from_dict(fields)


class _ProgressObserver(SessionObserver):
    """Renders the session lifecycle as live CLI progress lines."""

    def on_batch_start(self, session, batch_index, planned):
        history = session.history
        best = history.best_objective()
        print("[batch {:>3}] trials={:<4d} best={} crash={:>4.0%} "
              "virtual={:.2f}h".format(
                  batch_index, len(history),
                  "-" if best is None else "{:.2f}".format(best),
                  history.crash_rate(),
                  session.backend.now_s / 3600.0))

    def on_dispatch(self, session, configuration, worker):
        history = session.history
        best = history.best_objective()
        print("[dispatch] worker {} trials={:<4d} best={} in-flight={} "
              "virtual={:.2f}h".format(
                  worker, len(history),
                  "-" if best is None else "{:.2f}".format(best),
                  session.backend.in_flight,
                  session.backend.now_s / 3600.0))

    def on_new_incumbent(self, session, record):
        print("  new incumbent: {:.2f} (trial #{}, worker {})".format(
            record.objective, record.index, record.worker))

    def on_checkpoint(self, session, path):
        print("  checkpoint saved to {}".format(path))


def _command_run(args: argparse.Namespace) -> int:
    store = ResultsStore(args.results) if args.results else None
    if args.resume:
        if os.path.exists(args.resume):
            checkpoint_path = args.resume
        elif store is not None:
            # a damaged checkpoint falls back to its .prev backup, as in
            # campaigns
            checkpoint_path = store.latest_valid_checkpoint(args.resume)
            if checkpoint_path is None:
                print("--resume: no checkpoint named {} loads from {}".format(
                    args.resume, args.results), file=sys.stderr)
                return 2
        else:
            print("--resume needs a checkpoint file path or --results to "
                  "locate the named checkpoint", file=sys.stderr)
            return 2
        # the checkpoint's spec defines the experiment: budget flags extend
        # it, any other spec flag would contradict the restored state.
        fields = _flag_fields(args)
        fields.pop("name", None)
        budget = {field: fields.pop(field) for field in
                  ("iterations", "time_budget_s", "plateau_trials")
                  if field in fields}
        if fields:
            print("--resume: {} cannot be changed on a resumed run (the "
                  "checkpointed state depends on it)".format(
                      ", ".join(sorted(fields))), file=sys.stderr)
            return 2
        try:
            wayfinder = Wayfinder.resume(checkpoint_path)
        except (OSError, ValueError) as error:
            print("--resume: {}".format(error), file=sys.stderr)
            return 2
        if budget:
            wayfinder.spec = wayfinder.spec.with_overrides(**budget)
        spec = wayfinder.spec
        print("Resuming {} from {} ({} trials done)...".format(
            spec.name, checkpoint_path, len(wayfinder.build_session().session.history)))
        # keep storing under the name the run was checkpointed as
        checkpoint_file = os.path.basename(checkpoint_path)
        resumed_name = checkpoint_file[:-len(ResultsStore.CHECKPOINT_SUFFIX)] \
            if checkpoint_file.endswith(ResultsStore.CHECKPOINT_SUFFIX) else spec.name
        name = args.name or resumed_name
    else:
        try:
            spec = _spec_from_args(args)
            if (spec.iterations is None and spec.time_budget_s is None
                    and spec.plateau_trials is None):
                raise ValueError("{} sets no budget; give --iterations, "
                                 "--time-budget-s or --plateau".format(args.job))
            wayfinder = Wayfinder.from_spec(spec)
        except (OSError, ValueError) as error:
            print(str(error), file=sys.stderr)
            return 2
        name = spec.name

    wayfinder.add_observer(_ProgressObserver())
    if args.checkpoint_every:
        if store is None:
            print("--checkpoint-every requires --results", file=sys.stderr)
            return 2
        wayfinder.enable_checkpointing(store, name=name, every=args.checkpoint_every)
    elif args.resume and store is not None:
        # keep the resumed run checkpointing at the default cadence so it
        # stays interruptible.
        wayfinder.enable_checkpointing(store, name=name)

    print("Searching {} parameters with {} for {} ({}, {} worker{}, {} "
          "execution)...".format(
              len(wayfinder.space), spec.algorithm, spec.application,
              wayfinder.metric.name, spec.workers,
              "" if spec.workers == 1 else "s", spec.execution))
    result = wayfinder.specialize()

    rows = [
        ("iterations", result.iterations),
        ("default objective", "{:.2f}".format(result.default_objective or float("nan"))),
        ("best objective", "{:.2f}".format(result.best_performance or float("nan"))),
        ("improvement", "{:.2f}x".format(result.improvement_factor or float("nan"))),
        ("crash rate", "{:.0%}".format(result.crash_rate)),
        ("virtual time (h)", "{:.1f}".format(result.total_time_s / 3600.0)),
        ("stopped by", result.stop_reason or "-"),
    ]
    print(format_table(("quantity", "value"), rows, title="Search result"))

    if store is not None:
        summary = result.summary()
        path = store.save_history(name, result.history, metadata={
            "application": spec.application, "metric": wayfinder.metric.name,
            "algorithm": spec.algorithm, "seed": spec.seed,
            "workers": spec.workers, "batch_size": spec.batch_size,
            "execution": spec.execution,
            "worker_utilization": summary["worker_utilization"],
            "favor": summary["favor"], "time_budget_s": summary["time_budget_s"],
            "stop_reason": summary["stop_reason"],
        })
        print("History stored at {}".format(path))
    return 0


def _command_probe(args: argparse.Namespace) -> int:
    procfs = ProcFS(extra_generic=args.extra_generic)
    prober = SpaceProber(scale_factor=args.scale_factor)
    probed = prober.probe(procfs)
    space = ConfigSpace([record.to_parameter() for record in probed],
                        name="probed-runtime-space")
    spec = ExperimentSpec.from_dict(dict(
        _RUN_DEFAULTS, name="probed-job", application=args.application,
        metric="throughput"))
    dump_job_file(JobFile(spec, space), args.output)
    print("Probed {} runtime parameters; job file written to {}".format(
        len(probed), args.output))
    by_type = {}
    for record in probed:
        by_type[record.inferred_type] = by_type.get(record.inferred_type, 0) + 1
    print(format_table(("inferred type", "count"), sorted(by_type.items()),
                       title="Probed parameter types"))
    return 0


def _command_census(args: argparse.Namespace) -> int:
    census = linux_census(args.version)
    print(format_table(("option class", "count"), sorted(census.items()),
                       title="Linux {} configuration-space census".format(args.version)))
    return 0


def _command_campaign_run(args: argparse.Namespace) -> int:
    from repro.config.jobfile import load_campaign_file
    from repro.platform.campaign_runner import (DEFAULT_LEASE_S, MANIFEST_NAME,
                                                CampaignRunner)
    from repro.platform.faults import RetryPolicy

    # --chaos-* flags patch over the spec's chaos block for this invocation
    chaos_flags = {"seed": args.chaos_seed,
                   "kill_rate": args.chaos_kill_rate,
                   "torn_write_rate": args.chaos_torn_write_rate,
                   "startup_failure_rate": args.chaos_startup_failure_rate}
    chaos = {key: value for key, value in chaos_flags.items()
             if value is not None} or None
    retry = (None if args.max_attempts is None
             else RetryPolicy(max_attempts=args.max_attempts))
    lease_s = DEFAULT_LEASE_S if args.lease_s is None else args.lease_s
    try:
        campaign = load_campaign_file(args.spec) if args.spec else None
    except (OSError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2

    manifest_present = os.path.exists(os.path.join(args.results, MANIFEST_NAME))
    if args.resume and manifest_present:
        # the stored manifest owns the campaign and, unless overridden on
        # the command line, the checkpoint cadence
        runner = CampaignRunner.open(args.results, procs=args.procs,
                                     checkpoint_every=args.checkpoint_every,
                                     lease_s=lease_s, retry=retry, chaos=chaos)
        if campaign is not None and campaign != runner.campaign:
            print("--spec does not match the campaign stored in {}; resume "
                  "without --spec or use a fresh directory".format(
                      args.results), file=sys.stderr)
            return 2
    elif campaign is not None:
        runner = CampaignRunner(
            campaign, args.results, procs=args.procs,
            checkpoint_every=(1 if args.checkpoint_every is None
                              else args.checkpoint_every),
            lease_s=lease_s, retry=retry, chaos=chaos)
    else:
        print("campaign run needs --spec (or --resume with an existing "
              "campaign directory)", file=sys.stderr)
        return 2

    def progress(outcome, done, total):
        if outcome["status"] == "complete":
            summary = outcome["summary"]
            print("[{}/{}] {}: best={} trials={} ({})".format(
                done, total, outcome["name"],
                "-" if summary["best_objective"] is None
                else "{:.2f}".format(summary["best_objective"]),
                summary["trials"], summary["stop_reason"] or "-"))
        elif outcome["status"] == "failed-permanent":
            print("[{}/{}] {}: QUARANTINED".format(done, total,
                                                   outcome["name"]))
        else:
            print("[{}/{}] {}: FAILED (will retry)".format(
                done, total, outcome["name"]))

    print("Campaign {!r}: {} experiments on {} process{}{}...".format(
        runner.campaign.name, len(runner.campaign), args.procs,
        "" if args.procs == 1 else "es",
        " (resuming)" if args.resume else ""))
    try:
        result = runner.run(resume=args.resume,
                            max_experiments=args.max_experiments,
                            progress=progress)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    quarantined = result.quarantined
    print("Campaign state: {} complete, {} failed{}, {} pending "
          "(manifest in {})".format(
              len(result.completed), len(result.failed),
              " ({} quarantined)".format(len(quarantined)) if quarantined
              else "", len(result.pending), args.results))
    for entry in result.failed:
        error = (entry.get("error") or "").strip().splitlines()
        print("  {} {} after {} attempt{}: {}".format(
            entry["name"], entry["status"], entry.get("attempts", 0),
            "" if entry.get("attempts", 0) == 1 else "s",
            error[-1] if error else "?"), file=sys.stderr)
    return 0 if not result.failed else 1


def _command_campaign_report(args: argparse.Namespace) -> int:
    from repro.analysis.campaign_report import (campaign_report_document,
                                                render_campaign_report)

    if not os.path.isdir(args.results):
        print("no campaign directory at {}".format(args.results),
              file=sys.stderr)
        return 2
    try:
        if args.json:
            # serialized exactly like the service's /report endpoint so the
            # two outputs byte-diff clean (CI pins this)
            document = campaign_report_document(args.results)
            sys.stdout.write(
                json.dumps(document, indent=2, sort_keys=True) + "\n")
        else:
            print(render_campaign_report(args.results,
                                         max_points=args.max_points))
    except (OSError, ValueError) as error:
        print("cannot report on {}: {}".format(args.results, error),
              file=sys.stderr)
        return 2
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.platform.faults import RetryPolicy
    from repro.service.server import TuningServer, TuningService

    retry = (None if args.max_attempts is None
             else RetryPolicy(max_attempts=args.max_attempts))
    service = TuningService(
        args.results, workers=args.workers,
        checkpoint_every=args.checkpoint_every,
        lease_s=30.0 if args.lease_s is None else args.lease_s,
        retry=retry)
    server = TuningServer(service, host=args.host, port=args.port)
    if service._recovered:
        print("recovered {} unfinished job{}: {}".format(
            len(service._recovered),
            "" if len(service._recovered) == 1 else "s",
            ", ".join(service._recovered)), flush=True)
    # the exact line clients (and the CI smoke) wait for before connecting
    print("listening on {}".format(server.url), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "run":
        return _command_campaign_run(args)
    return _command_campaign_report(args)


def _command_compare(args: argparse.Namespace) -> int:
    fields = _flag_fields(args)
    try:
        specs = [ExperimentSpec.from_dict(dict(fields, algorithm=algorithm))
                 for algorithm in args.algorithms]
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    rows = []
    for spec in specs:
        result = Wayfinder.from_spec(spec).specialize()
        rows.append((spec.algorithm,
                     "{:.2f}".format(result.best_performance or float("nan")),
                     "{:.2f}x".format(result.improvement_factor or float("nan")),
                     "{:.0%}".format(result.crash_rate),
                     "{:.0f}".format((result.time_to_best_s or 0.0) / 60.0)))
    print(format_table(
        ("algorithm", "best objective", "improvement", "crash rate", "time to best (min)"),
        rows, title="{} on {}: algorithm comparison".format(specs[0].application,
                                                            specs[0].os_name)))
    return 0


_COMMANDS = {
    "run": _command_run,
    "probe": _command_probe,
    "census": _command_census,
    "compare": _command_compare,
    "campaign": _command_campaign,
    "serve": _command_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
