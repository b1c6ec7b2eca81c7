"""The surrogate model zoo and transfer-learning warm start.

Acceptance bar of the warm-start feature: publishing and adopting zoo
entries is deterministic and crash-safe, every degraded zoo state
(missing, empty, corrupted, incompatible) falls back to a cold start
rather than failing the run, and a warm-started session stays bit-exact
under checkpoint/resume — same trials, same provenance — because warm
start only changes the model's starting weights, never the RNG streams.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.similarity import select_donor
from repro.config.encoding import ConfigEncoder
from repro.core.spec import ExperimentSpec
from repro.core.wayfinder import Wayfinder
from repro.deeptune.importance import parameter_importance
from repro.deeptune.model import DeepTuneModel
from repro.deeptune.transfer import (
    ZOO_DIR_NAME,
    ZOO_INDEX_NAME,
    ZooError,
    load_zoo_index,
    load_zoo_model,
    publish_zoo_entry,
    space_fingerprint,
    zoo_directory,
    zoo_entry_id,
)
from repro.platform.lifecycle import CallbackObserver
from repro.platform.results import ResultsStore
from repro.vm.os_model import linux_os_model

from tests.conftest import SMALL_SPACE_OPTIONS, archive_checkpoint

#: keeps the model-guided phases cheap but active (mirrors
#: tests/test_checkpoint_resume.py).
DEEPTUNE_OPTIONS = {"warmup_iterations": 3, "candidate_pool_size": 32,
                    "training_steps_per_iteration": 4, "hidden_dims": [24, 12],
                    "n_centroids": 8}

#: space seed shared by donors and targets — fingerprint compatibility
#: requires the same space (version, seed, architecture, space_options).
SEED = 7


def _spec(application, warm_start=None, seed=SEED, **overrides):
    fields = dict(application=application, metric="throughput",
                  algorithm="deeptune", favor="runtime", seed=seed,
                  iterations=8, space_options=SMALL_SPACE_OPTIONS,
                  algorithm_options=DEEPTUNE_OPTIONS, warm_start=warm_start)
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _trained_model(encoder, seed=3, observations=12):
    """A small trained DeepTune model over *encoder*'s space."""
    model = DeepTuneModel(input_dim=encoder.width, hidden_dims=(24, 12),
                          n_centroids=8, seed=seed)
    rng = np.random.default_rng(seed)
    for index in range(observations):
        vector = rng.random(encoder.width)
        crashed = index % 5 == 0
        model.add_observation(vector, None if crashed else 100.0 + index,
                              crashed)
    model.fit_incremental(steps=10)
    return model


def _importance(encoder, seed=3):
    rng = np.random.default_rng(seed)
    features = rng.random((16, encoder.width))
    targets = rng.random(16) * 100.0
    return parameter_importance(encoder, features, targets)


@pytest.fixture
def small_encoder(small_linux_model):
    return ConfigEncoder(small_linux_model.space)


class TestZooStore:
    def test_publish_and_load_round_trip(self, tmp_path, small_encoder):
        zoo = str(tmp_path / "zoo")
        model = _trained_model(small_encoder)
        entry = publish_zoo_entry(zoo, "nginx", small_encoder, model,
                                  _importance(small_encoder),
                                  metadata={"experiment": "exp-a"})
        assert entry is not None
        assert entry["application"] == "nginx"
        assert entry["fingerprint"] == space_fingerprint(small_encoder)
        assert entry["observations"] == model.observation_count

        index = load_zoo_index(zoo)
        assert set(index) == {entry["id"]}
        restored = load_zoo_model(zoo, index[entry["id"]])
        probe = np.random.default_rng(0).random((4, small_encoder.width))
        assert np.allclose(restored.predict(probe).performance,
                           model.predict(probe).performance)

    def test_zoo_directory_accepts_campaign_parent(self, tmp_path,
                                                   small_encoder):
        campaign_dir = str(tmp_path)
        zoo = os.path.join(campaign_dir, ZOO_DIR_NAME)
        publish_zoo_entry(zoo, "nginx", small_encoder,
                          _trained_model(small_encoder),
                          _importance(small_encoder))
        assert zoo_directory(campaign_dir) == zoo
        assert zoo_directory(zoo) == zoo

    def test_merge_rule_prefers_more_observations(self, tmp_path,
                                                  small_encoder):
        zoo = str(tmp_path / "zoo")
        big = _trained_model(small_encoder, observations=12)
        small = _trained_model(small_encoder, seed=5, observations=4)
        first = publish_zoo_entry(zoo, "nginx", small_encoder, big,
                                  _importance(small_encoder),
                                  metadata={"experiment": "big"})
        # fewer observations: the existing entry wins, publish is a no-op
        assert publish_zoo_entry(zoo, "nginx", small_encoder, small,
                                 _importance(small_encoder),
                                 metadata={"experiment": "small"}) is None
        index = load_zoo_index(zoo)
        assert index[first["id"]]["experiment"] == "big"

    def test_unobserved_model_is_not_published(self, tmp_path, small_encoder):
        zoo = str(tmp_path / "zoo")
        empty = DeepTuneModel(input_dim=small_encoder.width)
        assert publish_zoo_entry(zoo, "nginx", small_encoder, empty,
                                 _importance(small_encoder)) is None
        assert load_zoo_index(zoo) == {}

    def test_corrupt_index_reads_as_empty(self, tmp_path):
        zoo = tmp_path / "zoo"
        zoo.mkdir()
        (zoo / ZOO_INDEX_NAME).write_text("{not json")
        assert load_zoo_index(str(zoo)) == {}

    def test_non_object_index_reads_as_empty(self, tmp_path):
        zoo = tmp_path / "zoo"
        zoo.mkdir()
        (zoo / ZOO_INDEX_NAME).write_text("[1]")
        assert load_zoo_index(str(zoo)) == {}

    def test_torn_model_file_raises_zoo_error(self, tmp_path, small_encoder):
        zoo = str(tmp_path / "zoo")
        entry = publish_zoo_entry(zoo, "nginx", small_encoder,
                                  _trained_model(small_encoder),
                                  _importance(small_encoder))
        model_path = os.path.join(zoo, entry["model_file"])
        with open(model_path, "rb") as handle:
            payload = handle.read()
        with open(model_path, "wb") as handle:
            handle.write(payload[:len(payload) // 2])  # torn write
        with pytest.raises(ZooError):
            load_zoo_model(zoo, entry)


class TestDonorSelection:
    def _entry(self, application, importance, fingerprint="f00",
               observations=10, entry_id=None):
        return {"id": entry_id or zoo_entry_id(application, fingerprint),
                "application": application, "fingerprint": fingerprint,
                "observations": observations, "importance": importance}

    def test_picks_most_similar_compatible_donor(self):
        target = {"a": 1.0, "b": 0.0, "c": 0.5}
        entries = [
            self._entry("redis", {"a": 0.9, "b": 0.1, "c": 0.5}),
            self._entry("npb", {"a": 0.0, "b": 1.0, "c": 0.0}),
            self._entry("sqlite", target, fingerprint="other"),  # wrong space
            self._entry("nginx", target),  # the target itself
        ]
        selection = select_donor(entries, "nginx", "f00", target)
        assert selection is not None
        entry, score = selection
        assert entry["application"] == "redis"
        assert score > 0.9

    def test_threshold_and_explicit_donor(self):
        target = {"a": 1.0, "b": 0.0}
        entries = [self._entry("redis", {"a": 0.0, "b": 1.0}),
                   self._entry("npb", {"a": 0.8, "b": 0.2})]
        # orthogonal donor filtered by the similarity floor
        assert select_donor(entries, "nginx", "f00", target,
                            min_similarity=0.99) is None
        forced = select_donor(entries, "nginx", "f00", target, donor="redis")
        assert forced is None  # redis scores 0 < default floor
        entry, _ = select_donor(entries, "nginx", "f00", target, donor="npb")
        assert entry["application"] == "npb"


class TestWarmStartResolution:
    def _populate(self, zoo, applications=("nginx", "redis")):
        """Publish trained donors for *applications* over the shared space."""
        for application in applications:
            wayfinder = Wayfinder.from_spec(_spec(application))
            result = wayfinder.specialize()
            encoder = wayfinder.algorithm.encoder
            features, objectives, _ = result.history.training_arrays(encoder)
            entry = publish_zoo_entry(
                zoo, application, encoder, wayfinder.algorithm.model,
                parameter_importance(encoder, features, objectives),
                metadata={"experiment": "donor-" + application})
            assert entry is not None

    def test_adopts_donor_and_records_provenance(self, tmp_path):
        zoo = str(tmp_path / "zoo")
        self._populate(zoo)
        # no explicit warmup_iterations: adoption defaults it to 0 (the
        # paper's TL configuration — model-guided from iteration 0)
        options = {key: value for key, value in DEEPTUNE_OPTIONS.items()
                   if key != "warmup_iterations"}
        wayfinder = Wayfinder.from_spec(_spec(
            "sqlite", warm_start={"zoo": zoo, "min_similarity": 0.0},
            algorithm_options=options))
        assert wayfinder.warm_start is not None
        assert wayfinder.warm_start["donor"] in ("nginx", "redis")
        assert 0.0 <= wayfinder.warm_start["similarity"] <= 1.0
        assert wayfinder.warm_start["observations"] > 0
        assert wayfinder.algorithm.warmup_iterations == 0
        assert wayfinder.algorithm.provenance == wayfinder.warm_start
        result = wayfinder.specialize()
        assert result.best_performance is not None

    def test_missing_and_empty_zoo_cold_start(self, tmp_path):
        missing = Wayfinder.from_spec(_spec(
            "sqlite", warm_start={"zoo": str(tmp_path / "nowhere")}))
        assert missing.warm_start is None
        empty = tmp_path / "zoo"
        empty.mkdir()
        assert Wayfinder.from_spec(_spec(
            "sqlite", warm_start={"zoo": str(empty)})).warm_start is None

    def test_incompatible_space_cold_start(self, tmp_path):
        """Donors trained on a different space never transfer."""
        zoo = str(tmp_path / "zoo")
        other = linux_os_model(version="v4.19", seed=SEED, extra_compile=10,
                               extra_runtime=6, extra_boot=2)
        encoder = ConfigEncoder(other.space)
        publish_zoo_entry(zoo, "nginx", encoder, _trained_model(encoder),
                          _importance(encoder))
        wayfinder = Wayfinder.from_spec(_spec(
            "sqlite", warm_start={"zoo": zoo, "min_similarity": 0.0}))
        assert wayfinder.warm_start is None
        assert wayfinder.algorithm.warmup_iterations == \
            DEEPTUNE_OPTIONS["warmup_iterations"]

    def test_corrupted_entry_cold_start(self, tmp_path, small_encoder):
        """A torn donor model file degrades to cold start, not a crash."""
        zoo = str(tmp_path / "zoo")
        self._populate(zoo, applications=("nginx",))
        for entry in load_zoo_index(zoo).values():
            with open(os.path.join(zoo, entry["model_file"]), "wb") as handle:
                handle.write(b"torn")
        wayfinder = Wayfinder.from_spec(_spec(
            "sqlite", warm_start={"zoo": zoo, "min_similarity": 0.0}))
        assert wayfinder.warm_start is None

    def test_similarity_floor_cold_start(self, tmp_path):
        zoo = str(tmp_path / "zoo")
        self._populate(zoo, applications=("nginx",))
        wayfinder = Wayfinder.from_spec(_spec(
            "sqlite", warm_start={"zoo": zoo, "min_similarity": 1.0}))
        assert wayfinder.warm_start is None

    def test_warm_start_ignored_for_other_algorithms(self, tmp_path):
        zoo = str(tmp_path / "zoo")
        self._populate(zoo, applications=("nginx",))
        wayfinder = Wayfinder.from_spec(_spec(
            "sqlite", warm_start={"zoo": zoo, "min_similarity": 0.0},
            algorithm="random", algorithm_options={}))
        assert wayfinder.warm_start is None


class TestWarmStartResume:
    def test_checkpoint_resume_is_bit_exact(self, tmp_path):
        """A warm-started run resumed mid-way reproduces the full run."""
        zoo = str(tmp_path / "zoo")
        TestWarmStartResolution()._populate(zoo, applications=("nginx",))
        spec = _spec("sqlite", warm_start={"zoo": zoo, "min_similarity": 0.0},
                     name="warm-ckpt")

        def trial_tuple(record):
            return (record.index, record.configuration, record.objective,
                    record.crashed, record.duration_s, record.started_at_s,
                    record.worker)

        store = ResultsStore(str(tmp_path / "results"))
        wayfinder = Wayfinder.from_spec(spec)
        assert wayfinder.warm_start is not None
        wayfinder.enable_checkpointing(store, name=spec.name, every=1)
        archived = []

        def archive(session, path):
            copy = archive_checkpoint(store, spec.name, path,
                                      len(session.history))
            archived.append((len(session.history), copy))

        wayfinder.add_observer(CallbackObserver(on_checkpoint=archive))
        reference = [trial_tuple(r)
                     for r in wayfinder.specialize().history]

        resume_points = [e for e in archived if 0 < e[0] < len(reference)]
        assert resume_points
        for _, path in resume_points:
            resumed = Wayfinder.resume(path)
            # provenance rides the checkpointed algorithm state
            assert resumed.algorithm.provenance == wayfinder.warm_start
            result = resumed.specialize()
            assert [trial_tuple(r) for r in result.history] == reference

    def test_warm_start_does_not_change_proposal_stream_seeding(self,
                                                                tmp_path):
        """Warm start changes model weights only: the random warmup stream
        (forced via explicit warmup_iterations) is untouched, so the first
        warmup trials match the cold run exactly."""
        zoo = str(tmp_path / "zoo")
        TestWarmStartResolution()._populate(zoo, applications=("nginx",))
        options = dict(DEEPTUNE_OPTIONS)  # keeps warmup_iterations=3
        cold = Wayfinder.from_spec(_spec("sqlite", algorithm_options=options))
        warm = Wayfinder.from_spec(_spec(
            "sqlite", warm_start={"zoo": zoo, "min_similarity": 0.0},
            algorithm_options=options))
        assert warm.warm_start is not None
        warmup = DEEPTUNE_OPTIONS["warmup_iterations"]
        cold_history = cold.specialize().history
        warm_history = warm.specialize().history
        assert ([r.configuration for r in cold_history][:warmup]
                == [r.configuration for r in warm_history][:warmup])


class TestCampaignZoo:
    def _campaign(self, name, applications, base_extra=None):
        from repro.core.campaign import CampaignSpec

        base = {"metric": "auto", "iterations": 6, "favor": "runtime",
                "space_options": SMALL_SPACE_OPTIONS,
                "algorithm_options": DEEPTUNE_OPTIONS}
        base.update(base_extra or {})
        return CampaignSpec(name=name, applications=list(applications),
                            algorithms=["deeptune"], seeds=[SEED], base=base)

    def test_campaign_populates_zoo_and_warm_starts(self, tmp_path):
        from repro.analysis.campaign_report import (campaign_report_document,
                                                    render_campaign_report)
        from repro.platform.campaign_runner import CampaignRunner

        donor_dir = str(tmp_path / "donors")
        result = CampaignRunner(self._campaign("donors", ["nginx", "redis"]),
                                donor_dir, procs=1).run()
        assert result.ok
        zoo = os.path.join(donor_dir, ZOO_DIR_NAME)
        index = load_zoo_index(zoo)
        assert {entry["application"] for entry in index.values()} \
            == {"nginx", "redis"}
        # a cold campaign's text report carries no warm-start table
        assert "Warm-started" not in render_campaign_report(donor_dir)

        target_dir = str(tmp_path / "targets")
        warm = CampaignRunner(
            self._campaign("targets", ["sqlite"], base_extra={
                "warm_start": {"zoo": donor_dir, "min_similarity": 0.0}}),
            target_dir, procs=1).run()
        assert warm.ok
        (entry,) = warm.completed
        provenance = entry["summary"]["warm_start"]
        assert provenance["donor"] in ("nginx", "redis")
        document = campaign_report_document(target_dir)
        assert document["warm_start"]["rows"] == [[
            entry["name"], provenance["donor"], provenance["similarity"],
            provenance["observations"]]]
        assert "Warm-started" in render_campaign_report(target_dir)
        # the target campaign published its own entry into its own zoo
        own = load_zoo_index(os.path.join(target_dir, ZOO_DIR_NAME))
        assert {e["application"] for e in own.values()} == {"sqlite"}


class TestSpecSurface:
    def test_validation(self):
        with pytest.raises(ValueError, match="warm_start"):
            ExperimentSpec(application="nginx", warm_start="zoo/")
        with pytest.raises(ValueError, match="'zoo'"):
            ExperimentSpec(application="nginx", warm_start={})
        with pytest.raises(ValueError, match="min_similarity"):
            ExperimentSpec(application="nginx",
                           warm_start={"zoo": "z", "min_similarity": 2.0})
        with pytest.raises(ValueError):
            ExperimentSpec(application="nginx",
                           warm_start={"zoo": "z", "bogus": 1})

    def test_round_trip_and_old_documents(self):
        spec = _spec("nginx", warm_start={"zoo": "campaign/",
                                          "min_similarity": 0.4})
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        document = {key: value for key, value in spec.to_dict().items()
                    if key != "warm_start"}
        assert ExperimentSpec.from_dict(document).warm_start is None

    def test_jobfile_round_trip(self, tmp_path, small_space):
        from repro.config.jobfile import JobFile, dump_job_file, load_job_file

        job = JobFile(ExperimentSpec(name="warm", application="sqlite",
                                     warm_start={"zoo": "campaign/"}),
                      small_space)
        path = str(tmp_path / "job.json")
        dump_job_file(job, path)
        assert load_job_file(path).spec.warm_start == {"zoo": "campaign/"}

    def test_cli_flags(self):
        from repro.cli import _spec_from_args, build_parser

        args = build_parser().parse_args(
            ["run", "--application", "sqlite", "--warm-start", "campaign/",
             "--warm-start-min-similarity", "0.4"])
        spec = _spec_from_args(args)
        assert spec.warm_start == {"zoo": "campaign/", "min_similarity": 0.4}
        args = build_parser().parse_args(["run"])
        assert _spec_from_args(args).warm_start is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--warm-start-min-similarity", "1.5",
                 "--warm-start", "z"])

    def test_min_similarity_flag_requires_warm_start(self):
        from repro.cli import _spec_from_args, build_parser

        args = build_parser().parse_args(
            ["run", "--warm-start-min-similarity", "0.4"])
        with pytest.raises(SystemExit):
            _spec_from_args(args)
