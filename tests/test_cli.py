"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.config.jobfile import JobFile, dump_job_file
from repro.core.spec import ExperimentSpec
from repro.core.wayfinder import Wayfinder


def write_job(path, space, **fields):
    """Write a job file whose spec sets *fields* (name "job", seed 1)."""
    spec = ExperimentSpec.from_dict(dict({"name": "job", "seed": 1}, **fields))
    dump_job_file(JobFile(spec, space), path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        # spec flags parse as None so an explicit flag can be told apart
        # from the default when a job file provides the setting; the
        # effective defaults are the spec's (plus run's 100 iterations).
        for dest in ("application", "metric", "algorithm", "os_name", "favor",
                     "iterations", "seed", "workers", "batch_size",
                     "execution", "plateau_trials", "warm_start"):
            assert getattr(args, dest) is None, dest
        from repro.cli import _spec_from_args

        spec = _spec_from_args(args)
        assert spec.application == "nginx"
        assert spec.algorithm == "deeptune"
        assert spec.iterations == 100
        assert spec.seed == 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "magic"])

    def test_run_accepts_workers_and_batch_size(self):
        args = build_parser().parse_args(
            ["run", "--workers", "4", "--batch-size", "8"])
        assert args.workers == 4
        assert args.batch_size == 8

    def test_compare_accepts_budget_and_favor(self):
        args = build_parser().parse_args(
            ["compare", "--favor", "none", "--time-budget-s", "3600",
             "--workers", "2", "--batch-size", "2"])
        assert args.favor == "none"
        assert args.time_budget_s == 3600.0
        assert args.workers == 2

    def test_compare_rejects_unknown_favor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--favor", "everything"])

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workers", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--batch-size", "0"])

    def test_iterations_must_be_positive(self):
        # zero/negative budgets used to slip through a plain type=int
        for command in ("run", "compare"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--iterations", "0"])
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--iterations", "-5"])
        assert build_parser().parse_args(["run", "--iterations", "1"]).iterations == 1

    def test_plateau_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--plateau", "0"])
        assert build_parser().parse_args(
            ["run", "--plateau", "7"]).plateau_trials == 7

    def test_time_budget_must_be_a_positive_float(self):
        # zero/negative/non-numeric budgets used to slip through a plain
        # type=float (and --time-budget-s -5 was accepted verbatim)
        for command in ("run", "compare"):
            for bad in ("0", "-5", "nan", "never"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, "--time-budget-s", bad])
        args = build_parser().parse_args(["run", "--time-budget-s", "3600.5"])
        assert args.time_budget_s == 3600.5

    def test_seed_must_be_a_non_negative_int(self):
        for command in ("run", "compare"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--seed", "-1"])
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--seed", "1.5"])
        assert build_parser().parse_args(["run", "--seed", "0"]).seed == 0
        assert build_parser().parse_args(["compare", "--seed", "11"]).seed == 11

    def test_execution_mode_choices(self):
        args = build_parser().parse_args(["run", "--execution", "async"])
        assert args.execution == "async"
        # run leaves the default unset so a job file's value can win
        assert build_parser().parse_args(["run"]).execution is None
        assert build_parser().parse_args(["compare"]).execution is None
        for command in ("run", "compare"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--execution", "eager"])
        from repro.cli import _spec_from_args

        spec = _spec_from_args(build_parser().parse_args(
            ["run", "--execution", "async"]))
        assert spec.execution == "async"
        assert _spec_from_args(build_parser().parse_args(["run"])).execution == "batch"

    def test_favor_forwarded_per_os(self):
        from repro.cli import _spec_from_args
        from repro.config.parameter import ParameterKind

        def favored(*argv):
            args = build_parser().parse_args(["run", "--algorithm", "random"]
                                             + list(argv))
            return Wayfinder.from_spec(_spec_from_args(args)).favored_kinds

        # explicit favor is honoured on unikraft too (was silently dropped)
        assert favored("--os", "unikraft", "--favor", "boot") == [
            ParameterKind.BOOT_TIME]
        # unspecified favor keeps the per-OS historical defaults
        assert favored("--os", "unikraft") is None
        assert favored() == [ParameterKind.RUNTIME]
        # "none" means explicitly unfavored on both
        assert favored("--favor", "none") is None
        assert favored("--os", "unikraft", "--favor", "none") is None


class TestCensus:
    def test_census_prints_table(self, capsys):
        assert main(["census", "--version", "v6.0"]) == 0
        output = capsys.readouterr().out
        assert "13328" in output
        assert "7585" in output


class TestProbe:
    def test_probe_writes_job_file(self, tmp_path, capsys):
        output = str(tmp_path / "job.yaml")
        assert main(["probe", "--output", output, "--extra-generic", "5"]) == 0
        assert os.path.exists(output)
        text = capsys.readouterr().out
        assert "job file written" in text
        from repro.config.jobfile import load_job_file
        job = load_job_file(output)
        assert len(job.space) > 50


class TestRun:
    def test_run_random_and_store_results(self, tmp_path, capsys):
        results_dir = str(tmp_path / "results")
        code = main([
            "run", "--application", "nginx", "--algorithm", "random",
            "--iterations", "6", "--seed", "3", "--results", results_dir,
            "--name", "smoke",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Search result" in output
        stored = os.path.join(results_dir, "smoke.json")
        assert os.path.exists(stored)
        with open(stored) as handle:
            document = json.load(handle)
        assert document["summary"]["trials"] == 6
        assert document["metadata"]["algorithm"] == "random"

    def test_run_from_job_file(self, tmp_path, capsys, small_space):
        job_path = write_job(str(tmp_path / "job.yaml"), small_space,
                             metric="throughput", iterations=5)
        code = main(["run", "--job", job_path, "--algorithm", "random"])
        assert code == 0
        assert "Search result" in capsys.readouterr().out

    def test_run_with_workers_and_batch(self, tmp_path, capsys):
        results_dir = str(tmp_path / "results")
        code = main([
            "run", "--application", "nginx", "--algorithm", "random",
            "--iterations", "8", "--seed", "3", "--workers", "4",
            "--batch-size", "4", "--results", results_dir, "--name", "fleet",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "4 workers" in output
        with open(os.path.join(results_dir, "fleet.json")) as handle:
            document = json.load(handle)
        assert document["summary"]["trials"] == 8

    def test_run_async_execution(self, tmp_path, capsys):
        results_dir = str(tmp_path / "results")
        code = main([
            "run", "--application", "nginx", "--algorithm", "random",
            "--iterations", "8", "--seed", "3", "--workers", "4",
            "--execution", "async", "--results", results_dir,
            "--name", "async-fleet",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "async execution" in output
        assert "[dispatch]" in output
        with open(os.path.join(results_dir, "async-fleet.json")) as handle:
            document = json.load(handle)
        assert document["summary"]["trials"] == 8
        assert document["metadata"]["execution"] == "async"
        utilization = document["metadata"]["worker_utilization"]
        assert len(utilization) == 4
        assert all(0.0 < value <= 1.0 for value in utilization)

    def test_job_file_algorithm_and_budget_honoured(self, tmp_path, small_space):
        from repro.cli import _spec_from_args

        job_path = write_job(str(tmp_path / "job.yaml"), small_space,
                             metric="throughput", iterations=6,
                             algorithm="random", plateau_trials=4)
        # without explicit flags the job file's settings win ...
        spec = _spec_from_args(build_parser().parse_args(["run", "--job", job_path]))
        assert spec.algorithm == "random"
        assert spec.iterations == 6
        assert spec.plateau_trials == 4
        # ... and explicit flags override them
        spec = _spec_from_args(build_parser().parse_args(
            ["run", "--job", job_path, "--algorithm", "grid",
             "--iterations", "9", "--plateau", "7"]))
        assert spec.algorithm == "grid"
        assert spec.iterations == 9
        assert spec.plateau_trials == 7

    def test_job_file_workers_used_and_overridable(self, tmp_path, capsys, small_space):
        job_path = write_job(str(tmp_path / "job.yaml"), small_space,
                             metric="throughput", iterations=6, workers=2,
                             batch_size=2)
        assert main(["run", "--job", job_path, "--algorithm", "random"]) == 0
        assert "2 workers" in capsys.readouterr().out
        assert main(["run", "--job", job_path, "--algorithm", "random",
                     "--workers", "3"]) == 0
        assert "3 workers" in capsys.readouterr().out

    def test_explicit_flags_override_the_job_file(self, tmp_path, small_space):
        # every spec flag the user gives wins over the job file, including
        # the ones whose spec field has a non-None default
        from repro.cli import _spec_from_args

        from tests.conftest import SMALL_SPACE_OPTIONS

        job_path = write_job(str(tmp_path / "job.yaml"), small_space,
                             favor="runtime", metric="throughput",
                             iterations=3, algorithm="random",
                             space_options=SMALL_SPACE_OPTIONS)
        results_dir = str(tmp_path / "results")
        assert main(["run", "--job", job_path, "--favor", "boot",
                     "--seed", "9", "--metric", "latency",
                     "--application", "redis", "--results", results_dir]) == 0
        with open(os.path.join(results_dir, "job.json")) as handle:
            metadata = json.load(handle)["metadata"]
        assert (metadata["favor"], metadata["seed"]) == ("boot", 9)
        assert (metadata["application"], metadata["metric"]) == ("redis",
                                                                 "latency")
        spec = _spec_from_args(build_parser().parse_args(
            ["run", "--job", job_path, "--os", "unikraft", "--favor", "none"]))
        assert (spec.os_name, spec.favor) == ("unikraft", None)

    def test_unusable_job_file_exits_cleanly(self, tmp_path, capsys, small_space):
        missing = str(tmp_path / "missing.yaml")
        assert main(["run", "--job", missing]) == 2
        assert missing in capsys.readouterr().err
        # a job with no budget would otherwise fail once the session starts
        job_path = write_job(str(tmp_path / "job.yaml"), small_space)
        assert main(["run", "--job", job_path]) == 2
        assert "sets no budget" in capsys.readouterr().err


class TestProgressOutput:
    def test_run_prints_lifecycle_progress(self, capsys):
        assert main(["run", "--application", "nginx", "--algorithm", "random",
                     "--iterations", "5", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        # the progress lines come from the session observer API
        assert "[batch" in output
        assert "new incumbent" in output
        assert "stopped by" in output


class TestCheckpointResumeCli:
    def test_run_checkpoint_then_resume(self, tmp_path, capsys):
        results_dir = str(tmp_path / "results")
        assert main([
            "run", "--application", "nginx", "--algorithm", "random",
            "--iterations", "5", "--seed", "3", "--results", results_dir,
            "--name", "ck", "--checkpoint-every", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "checkpoint saved to" in output
        checkpoint = os.path.join(results_dir, "ck.checkpoint.json")
        assert os.path.exists(checkpoint)

        # resuming the finished run is a no-op that still reports the result
        assert main(["run", "--resume", "ck", "--results", results_dir]) == 0
        output = capsys.readouterr().out
        assert "Resuming" in output
        assert "Search result" in output

        # a checkpoint file path works without --results
        assert main(["run", "--resume", checkpoint]) == 0
        assert "Resuming" in capsys.readouterr().out

    def test_resume_extends_budget_and_guards_state_flags(self, tmp_path, capsys):
        results_dir = str(tmp_path / "results")
        assert main([
            "run", "--application", "nginx", "--algorithm", "random",
            "--iterations", "4", "--seed", "3", "--results", results_dir,
            "--name", "ck", "--checkpoint-every", "1",
        ]) == 0
        capsys.readouterr()
        # explicit budget flags extend the resumed run past the stored budget
        assert main(["run", "--resume", "ck", "--results", results_dir,
                     "--iterations", "7"]) == 0
        output = capsys.readouterr().out
        assert "iterations         7" in output
        # flags the restored state depends on are rejected, not ignored
        assert main(["run", "--resume", "ck", "--results", results_dir,
                     "--workers", "2"]) == 2
        assert "cannot be changed" in capsys.readouterr().err
        assert main(["run", "--resume", "ck", "--results", results_dir,
                     "--execution", "async"]) == 2
        assert "cannot be changed" in capsys.readouterr().err
        assert main(["run", "--resume", "ck", "--results", results_dir,
                     "--seed", "4", "--favor", "boot"]) == 2
        assert "favor, seed cannot be changed" in capsys.readouterr().err

    def test_resume_requires_locatable_checkpoint(self, tmp_path, capsys):
        assert main(["run", "--resume", "nope"]) == 2
        assert "--resume" in capsys.readouterr().err
        # a named checkpoint missing from the results directory exits
        # cleanly too, instead of dying with a traceback
        assert main(["run", "--resume", "nope",
                     "--results", str(tmp_path)]) == 2
        assert "no checkpoint" in capsys.readouterr().err

    def test_damaged_checkpoint_resumes_from_prev_by_name(self, tmp_path,
                                                         capsys):
        results_dir = str(tmp_path / "results")
        assert main([
            "run", "--application", "nginx", "--algorithm", "random",
            "--iterations", "4", "--seed", "3", "--results", results_dir,
            "--name", "ck", "--checkpoint-every", "1",
        ]) == 0
        capsys.readouterr()
        state_path = os.path.join(results_dir, "ck.checkpoint.state.npz")
        with open(state_path, "r+b") as handle:
            handle.seek(100)
            byte = handle.read(1)[0]
            handle.seek(100)
            handle.write(bytes([byte ^ 0x10]))
        damaged = os.path.join(results_dir, "ck.checkpoint.json")
        # an explicit damaged path is refused in one line, not a traceback
        assert main(["run", "--resume", damaged]) == 2
        error = capsys.readouterr().err
        assert error.startswith("--resume: ") and error.count("\n") == 1
        # by name, the damaged checkpoint is set aside and .prev resumed
        assert main(["run", "--resume", "ck", "--results", results_dir]) == 0
        output = capsys.readouterr().out
        assert "(3 trials done)" in output
        assert "iterations         4" in output
        assert os.path.exists(damaged + ".corrupt")

    def test_checkpoint_requires_results(self, capsys):
        assert main(["run", "--iterations", "2", "--checkpoint-every", "1"]) == 2
        assert "--results" in capsys.readouterr().err


class TestCampaignCLI:
    def _write_campaign(self, tmp_path, name="cli-grid"):
        from repro.config.jobfile import dump_campaign_file
        from repro.core.campaign import CampaignSpec

        from tests.conftest import SMALL_SPACE_OPTIONS

        campaign = CampaignSpec(
            name=name, applications=["nginx"], algorithms=["random", "grid"],
            seeds=[2], base={"metric": "auto", "iterations": 4,
                             "space_options": SMALL_SPACE_OPTIONS})
        path = str(tmp_path / (name + ".yaml"))
        dump_campaign_file(campaign, path)
        return campaign, path

    def test_parser_accepts_run_and_report(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--spec", "c.yaml", "--results", "out",
             "--procs", "2", "--resume", "--max-experiments", "3"])
        assert args.campaign_command == "run"
        assert args.procs == 2 and args.resume and args.max_experiments == 3
        args = build_parser().parse_args(
            ["campaign", "report", "--results", "out", "--max-points", "5"])
        assert args.campaign_command == "report"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "--procs", "0",
                                       "--results", "out"])

    def test_campaign_run_counts_must_be_positive_ints(self):
        # zero/negative/fractional counts used to be rejected only for
        # --procs; all three count flags share the _positive_int validator
        for flag in ("--procs", "--checkpoint-every", "--max-experiments",
                     "--max-attempts"):
            for bad in ("0", "-2", "1.5", "many"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(
                        ["campaign", "run", "--results", "out", flag, bad])
        args = build_parser().parse_args(
            ["campaign", "run", "--results", "out", "--procs", "3",
             "--checkpoint-every", "2", "--max-experiments", "1"])
        assert (args.procs, args.checkpoint_every, args.max_experiments) == \
            (3, 2, 1)

    def test_campaign_chaos_flags(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--results", "out", "--chaos-seed", "7",
             "--chaos-kill-rate", "0.5", "--chaos-torn-write-rate", "0.25",
             "--chaos-startup-failure-rate", "1.0", "--lease-s", "0.5"])
        assert args.chaos_seed == 7
        assert args.chaos_kill_rate == 0.5
        assert args.chaos_torn_write_rate == 0.25
        assert args.chaos_startup_failure_rate == 1.0
        assert args.lease_s == 0.5
        # rates are [0, 1] floats, the seed a non-negative int, the lease
        # a positive float
        for flag in ("--chaos-kill-rate", "--chaos-torn-write-rate",
                     "--chaos-startup-failure-rate"):
            for bad in ("-0.1", "1.5", "nan", "often"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(
                        ["campaign", "run", "--results", "out", flag, bad])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "--results", "out",
                                       "--chaos-seed", "-1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "--results", "out",
                                       "--lease-s", "0"])

    def test_malformed_campaign_file_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("campaign:\n  name: bad\n  base:\n    iterations: true\n")
        for resume in ([], ["--resume"]):
            assert main(["campaign", "run", "--spec", str(path), "--results",
                         str(tmp_path / "out")] + resume) == 2
            assert capsys.readouterr().err == (
                "spec field 'iterations' must be an integer (got bool True)\n")

    def test_campaign_chaos_run_matches_clean_run(self, tmp_path, capsys):
        """The headline invariant, driven through the CLI flags."""
        _, spec_path = self._write_campaign(tmp_path)
        clean_dir = str(tmp_path / "clean")
        chaos_dir = str(tmp_path / "chaos")
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", clean_dir]) == 0
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", chaos_dir, "--chaos-seed", "9",
                     "--chaos-kill-rate", "0.3", "--lease-s", "0.2"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--results", clean_dir]) == 0
        clean_report = capsys.readouterr().out
        assert main(["campaign", "report", "--results", chaos_dir]) == 0
        assert capsys.readouterr().out == clean_report

    def test_campaign_quarantine_surfaces_in_output(self, tmp_path, capsys):
        _, spec_path = self._write_campaign(tmp_path)
        results_dir = str(tmp_path / "out")
        # every startup fails: both experiments exhaust their retries
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", results_dir, "--max-attempts", "2",
                     "--chaos-seed", "0",
                     "--chaos-startup-failure-rate", "1.0"]) == 1
        captured = capsys.readouterr()
        assert "0 complete, 2 failed (2 quarantined), 0 pending" in captured.out
        assert "QUARANTINED" in captured.out
        assert "failed-permanent after 2 attempts" in captured.err
        assert main(["campaign", "report", "--results", results_dir]) == 0
        report = capsys.readouterr().out
        assert "Failed experiments (failed-permanent = quarantined)" in report
        assert "failed-permanent" in report

    def test_campaign_run_then_report(self, tmp_path, capsys):
        campaign, spec_path = self._write_campaign(tmp_path)
        results_dir = str(tmp_path / "out")
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", results_dir, "--procs", "2"]) == 0
        output = capsys.readouterr().out
        assert "2 experiments" in output
        assert "2 complete, 0 failed, 0 pending" in output
        for spec in campaign.expand():
            assert os.path.exists(os.path.join(results_dir,
                                               spec.name + ".json"))

        assert main(["campaign", "report", "--results", results_dir]) == 0
        report = capsys.readouterr().out
        assert "mean best objective per application" in report
        assert "per-iteration cost (random)" in report

    def test_campaign_resume_via_cli(self, tmp_path, capsys):
        _, spec_path = self._write_campaign(tmp_path)
        results_dir = str(tmp_path / "out")
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", results_dir, "--max-experiments", "1"]) == 0
        assert "1 complete, 0 failed, 1 pending" in capsys.readouterr().out
        # the manifest supplies the campaign: no --spec needed on resume
        assert main(["campaign", "run", "--results", results_dir,
                     "--resume"]) == 0
        assert "2 complete, 0 failed, 0 pending" in capsys.readouterr().out

    def test_campaign_resume_keeps_or_overrides_stored_cadence(self, tmp_path,
                                                               capsys):
        from repro.platform.campaign_runner import load_manifest

        _, spec_path = self._write_campaign(tmp_path)
        results_dir = str(tmp_path / "out")
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", results_dir, "--checkpoint-every", "3",
                     "--max-experiments", "1"]) == 0
        # resuming without the flag keeps the stored cadence...
        assert main(["campaign", "run", "--results", results_dir, "--resume",
                     "--max-experiments", "1"]) == 0
        assert load_manifest(results_dir)["checkpoint_every"] == 3
        # ...and an explicit flag overrides it (even with --spec repeated)
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", results_dir, "--resume",
                     "--checkpoint-every", "2"]) == 0
        assert load_manifest(results_dir)["checkpoint_every"] == 2

    def test_campaign_resume_rejects_mismatched_spec(self, tmp_path, capsys):
        _, spec_path = self._write_campaign(tmp_path)
        results_dir = str(tmp_path / "out")
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", results_dir, "--max-experiments", "1"]) == 0
        _, other_path = self._write_campaign(tmp_path, name="other-grid")
        capsys.readouterr()
        assert main(["campaign", "run", "--spec", other_path,
                     "--results", results_dir, "--resume"]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_campaign_run_requires_spec_or_manifest(self, tmp_path, capsys):
        results_dir = str(tmp_path / "missing")
        assert main(["campaign", "run", "--results", results_dir]) == 2
        assert "--spec" in capsys.readouterr().err
        assert main(["campaign", "run", "--results", results_dir,
                     "--resume"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_campaign_run_refuses_to_clobber(self, tmp_path, capsys):
        _, spec_path = self._write_campaign(tmp_path)
        results_dir = str(tmp_path / "out")
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", results_dir, "--max-experiments", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", results_dir]) == 2
        assert "resume" in capsys.readouterr().err

    def test_campaign_report_needs_a_campaign_directory(self, tmp_path, capsys):
        assert main(["campaign", "report", "--results",
                     str(tmp_path / "nope")]) == 2
        assert "no campaign directory" in capsys.readouterr().err
        # a directory without a manifest is reported, not a traceback
        assert main(["campaign", "report", "--results", str(tmp_path)]) == 2
        assert "cannot report" in capsys.readouterr().err

    def test_campaign_report_json_is_the_document(self, tmp_path, capsys):
        from repro.analysis.campaign_report import campaign_report_document

        _, spec_path = self._write_campaign(tmp_path)
        results_dir = str(tmp_path / "out")
        assert main(["campaign", "run", "--spec", spec_path,
                     "--results", results_dir]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--results", results_dir,
                     "--json"]) == 0
        output = capsys.readouterr().out
        document = json.loads(output)
        assert document == campaign_report_document(results_dir)
        # canonical serialization: the exact bytes the service's /report
        # endpoint emits, so the two can be diffed in CI
        assert output == json.dumps(document, indent=2, sort_keys=True) + "\n"


class TestFlagValidation:
    """Count/duration flags all route through the shared validators."""

    def test_probe_counts_validated(self):
        # --scale-factor/--extra-generic used to be plain type=int
        for bad in ("0", "-3", "1.5", "lots"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["probe", "--scale-factor", bad])
        for bad in ("-1", "1.5", "lots"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["probe", "--extra-generic", bad])
        args = build_parser().parse_args(
            ["probe", "--scale-factor", "3", "--extra-generic", "0"])
        assert args.scale_factor == 3 and args.extra_generic == 0

    def test_run_checkpoint_cadence_validated(self):
        for bad in ("0", "-1", "1.5", "often"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "--checkpoint-every", bad])
        args = build_parser().parse_args(["run", "--checkpoint-every", "4"])
        assert args.checkpoint_every == 4

    def test_campaign_run_checkpoint_and_lease_validated(self):
        for bad in ("0", "-1", "1.5", "often"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["campaign", "run", "--results", "out",
                     "--checkpoint-every", bad])
        for bad in ("0", "-0.5", "nan", "soon"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["campaign", "run", "--results", "out", "--lease-s", bad])
        args = build_parser().parse_args(
            ["campaign", "run", "--results", "out", "--checkpoint-every",
             "2", "--lease-s", "0.25"])
        assert args.checkpoint_every == 2 and args.lease_s == 0.25

    def test_report_max_points_validated(self):
        for bad in ("0", "-2", "2.5", "some"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["campaign", "report", "--results", "out",
                     "--max-points", bad])
        args = build_parser().parse_args(
            ["campaign", "report", "--results", "out", "--max-points", "5"])
        assert args.max_points == 5 and args.json is False
        assert build_parser().parse_args(
            ["campaign", "report", "--results", "out", "--json"]).json


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--results", "root"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8080
        assert args.workers == 2 and args.checkpoint_every == 1
        assert args.lease_s is None and args.max_attempts is None

    def test_serve_requires_results(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_flags_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--results", "r",
                                       "--port", "-1"])
        for flag in ("--workers", "--checkpoint-every", "--max-attempts"):
            for bad in ("0", "-2", "1.5"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(["serve", "--results", "r",
                                               flag, bad])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--results", "r",
                                       "--lease-s", "0"])
        # port 0 is the ephemeral-port request, so it is valid
        args = build_parser().parse_args(
            ["serve", "--results", "r", "--port", "0", "--workers", "4",
             "--lease-s", "2.5"])
        assert args.port == 0 and args.workers == 4 and args.lease_s == 2.5


class TestCompare:
    def test_compare_two_algorithms(self, capsys):
        code = main(["compare", "--application", "nginx", "--algorithms", "random",
                     "grid", "--iterations", "5", "--seed", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "algorithm comparison" in output
        assert "random" in output and "grid" in output

    def test_compare_honours_favor_and_time_budget(self, capsys):
        code = main(["compare", "--application", "nginx", "--algorithms", "random",
                     "--favor", "none", "--iterations", "50",
                     "--time-budget-s", "2000", "--seed", "2"])
        assert code == 0
        assert "algorithm comparison" in capsys.readouterr().out

    def test_compare_with_worker_fleet(self, capsys):
        code = main(["compare", "--application", "nginx", "--algorithms", "random",
                     "grid", "--iterations", "6", "--seed", "2",
                     "--workers", "2", "--batch-size", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "random" in output and "grid" in output
