"""Tests for the declarative ExperimentSpec and its front-end builders.

Every front-end — CLI flags, job files, the Wayfinder keyword constructors —
must resolve equivalent inputs to the *same* spec object, and the spec must
survive a serialization round-trip, because checkpoints embed it verbatim.
"""

import pytest

from repro.config.jobfile import JobFile, dump_yaml, load_job_file
from repro.config.parameter import ParameterKind
from repro.core.spec import UNSPECIFIED, ExperimentSpec, default_favor
from repro.core.wayfinder import Wayfinder
from repro.cli import _spec_from_args, build_parser

from tests.conftest import SMALL_SPACE_OPTIONS


class TestValidation:
    def test_defaults_resolve(self):
        spec = ExperimentSpec()
        assert spec.os_name == "linux"
        assert spec.favor == "runtime"
        assert spec.favored_kinds == [ParameterKind.RUNTIME]
        assert spec.name == "linux-nginx-deeptune"

    def test_unikraft_normalization(self):
        spec = ExperimentSpec(os_name="unikraft", application="nginx", metric="auto")
        assert spec.application == "unikraft-nginx"
        assert spec.metric == "throughput"
        assert spec.favor is None

    @pytest.mark.parametrize("kwargs", [
        {"os_name": "plan9"},
        {"metric": "happiness"},
        {"algorithm": "magic"},
        {"favor": "everything"},
        {"iterations": 0},
        {"time_budget_s": -1.0},
        {"plateau_trials": 0},
        {"workers": 0},
        {"batch_size": 0},
    ])
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentSpec(**kwargs)

    def test_unknown_application_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^unknown application 'nosuchapp'; available: .*nginx"):
            ExperimentSpec(application="nosuchapp")

    def test_explicit_none_favor_differs_from_unspecified(self):
        assert ExperimentSpec(favor=None).favor is None
        assert ExperimentSpec(favor=UNSPECIFIED).favor == "runtime"
        assert default_favor("unikraft") is None

    def test_unserializable_options_rejected_at_to_dict(self):
        spec = ExperimentSpec(algorithm_options={"model": object()})
        with pytest.raises(ValueError):
            spec.to_dict()


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = ExperimentSpec(application="redis", metric="throughput",
                              algorithm="bayesian", favor="runtime+boot",
                              seed=3, iterations=50, time_budget_s=3600.0,
                              plateau_trials=20, workers=4, batch_size=4,
                              frozen={"kernel.randomize_va_space": 2},
                              algorithm_options={"initial_random": 3},
                              space_options=SMALL_SPACE_OPTIONS)
        rebuilt = ExperimentSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    def test_tuples_normalize_to_lists(self):
        spec = ExperimentSpec(algorithm_options={"hidden_dims": (24, 12)})
        assert spec.algorithm_options["hidden_dims"] == [24, 12]
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"surprise": 1})

    def test_with_overrides_revalidates(self):
        spec = ExperimentSpec(iterations=10)
        assert spec.with_overrides(workers=4).workers == 4
        assert spec.with_overrides(workers=4).iterations == 10
        with pytest.raises(ValueError):
            spec.with_overrides(workers=0)
        with pytest.raises(ValueError):
            spec.with_overrides(surprise=1)


class TestFrontEndEquivalence:
    """CLI, JobFile, and Wayfinder must build identical specs for equal inputs."""

    def _cli_spec(self, *argv):
        args = build_parser().parse_args(["run"] + list(argv))
        return _spec_from_args(args)

    def test_cli_matches_wayfinder_constructor(self):
        cli = self._cli_spec("--application", "redis", "--metric", "throughput",
                             "--algorithm", "random", "--favor", "runtime",
                             "--seed", "5", "--iterations", "40",
                             "--workers", "2", "--batch-size", "2")
        api = Wayfinder.for_linux(application="redis", metric="throughput",
                                  algorithm="random", favor="runtime", seed=5,
                                  iterations=40, workers=2, batch_size=2).spec
        assert cli == api

    def test_cli_matches_jobfile(self, tmp_path):
        path = tmp_path / "job.yaml"
        path.write_text(dump_yaml({"job": {
            "name": "linux-redis-random", "application": "redis",
            "metric": "throughput", "algorithm": "random", "favor": "runtime",
            "seed": 5, "iterations": 40, "workers": 2, "batch_size": 2},
            "parameters": []}))
        cli = self._cli_spec("--application", "redis", "--metric", "throughput",
                             "--algorithm", "random", "--favor", "runtime",
                             "--seed", "5", "--iterations", "40",
                             "--workers", "2", "--batch-size", "2")
        assert load_job_file(str(path)).spec == cli
        assert self._cli_spec("--job", str(path)) == cli

    def test_unikraft_defaults_agree(self):
        cli = self._cli_spec("--os", "unikraft", "--algorithm", "random",
                             "--iterations", "10", "--seed", "3")
        api = Wayfinder.for_unikraft(algorithm="random", seed=3,
                                     iterations=10).spec
        assert cli == api
        assert cli.favor is None

    def test_none_is_the_one_spelling_of_unfavored(self, tmp_path):
        from repro.core.campaign import CampaignSpec

        unfavored = ExperimentSpec.from_dict({"favor": None})
        assert unfavored.favor is None
        assert ExperimentSpec.from_dict({"favor": "none"}) == unfavored
        assert ExperimentSpec(favor="none") == unfavored
        assert self._cli_spec("--favor", "none",
                              "--iterations", "100") == ExperimentSpec(
                                  favor=None, iterations=100)
        path = tmp_path / "job.yaml"
        path.write_text("job:\n  favor: none\nparameters: []\n")
        assert load_job_file(str(path)).spec == unfavored
        campaign = CampaignSpec(name="c", favors=["none"])
        assert campaign.expand()[0].favor is None
        assert campaign.favors == [None]

    def test_jobfile_round_trips_algorithm_and_plateau(self, tmp_path, small_space):
        from repro.config.jobfile import dump_job_file

        job = JobFile(ExperimentSpec(algorithm="bayesian", plateau_trials=15),
                      small_space)
        path = str(tmp_path / "job.yaml")
        dump_job_file(job, path)
        loaded = load_job_file(path)
        assert loaded.spec.algorithm == "bayesian"
        assert loaded.spec.plateau_trials == 15

    def test_wayfinder_consumes_only_the_spec(self):
        spec = ExperimentSpec(application="nginx", metric="throughput",
                              algorithm="random", seed=21,
                              space_options=SMALL_SPACE_OPTIONS,
                              frozen={"kernel.randomize_va_space": 2})
        wayfinder = Wayfinder.from_spec(spec)
        assert wayfinder.spec is spec
        assert wayfinder.algorithm.name == "random"
        assert wayfinder.space.frozen_parameters["kernel.randomize_va_space"] == 2
        assert wayfinder.workers == spec.workers
        session = wayfinder.build_session()
        assert session.spec is spec
        assert session.session.batch_size == spec.batch_size
