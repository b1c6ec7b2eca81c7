"""Tests for the JSON results store and session resumption."""

import json
import os

import pytest

from repro.config.parameter import ParameterKind
from repro.platform.metrics import LatencyMetric
from repro.platform.results import (
    ResultsStore,
    cleanup_stale_tmp_files,
    load_checkpoint_file,
    load_history_document,
    open_history_view,
    record_from_dict,
    record_to_dict,
)

from tests.conftest import SMALL_SPACE_OPTIONS, make_pool
from tests.test_platform import make_record


class TestRecordSerialization:
    def test_roundtrip(self, small_space):
        record = make_record(small_space.default_configuration(), index=3,
                             objective=123.4)
        data = record_to_dict(record)
        restored = record_from_dict(data, small_space)
        assert restored.index == 3
        assert restored.objective == 123.4
        assert restored.configuration == record.configuration
        assert restored.crashed is False

    def test_crashed_record_roundtrip(self, small_space):
        record = make_record(small_space.default_configuration(), index=1, crashed=True)
        restored = record_from_dict(record_to_dict(record), small_space)
        assert restored.crashed
        assert restored.objective is None

    def test_worker_attribution_roundtrip(self, small_space):
        record = make_record(small_space.default_configuration(), index=2,
                             objective=5.0)
        record.worker = 3
        restored = record_from_dict(record_to_dict(record), small_space)
        assert restored.worker == 3
        # histories saved before the worker field existed load as worker 0
        legacy = record_to_dict(record)
        del legacy["worker"]
        assert record_from_dict(legacy, small_space).worker == 0


class TestResultsStore:
    def make_history(self, small_linux_model, iterations=8):
        from repro.search.random_search import RandomSearch
        from repro.platform.runner import SearchSession

        algorithm = RandomSearch(small_linux_model.space, seed=2,
                                 favored_kinds=[ParameterKind.RUNTIME])
        return SearchSession(make_pool(small_linux_model, "nginx"),
                             algorithm).run(iterations=iterations).history

    def test_save_list_load(self, tmp_path, small_linux_model):
        history = self.make_history(small_linux_model)
        store = ResultsStore(str(tmp_path))
        path = store.save_history("nginx-random", history,
                                  metadata={"application": "nginx"})
        assert os.path.exists(path)
        assert store.list_histories() == ["nginx-random"]

        loaded = store.load_history("nginx-random", small_linux_model.space)
        assert len(loaded) == len(history)
        assert loaded.best_objective() == pytest.approx(history.best_objective())
        assert [r.crashed for r in loaded] == [r.crashed for r in history]

        metadata = store.load_metadata("nginx-random")
        assert metadata["metadata"]["application"] == "nginx"
        assert metadata["summary"]["trials"] == len(history)

    def test_non_object_metadata_is_a_value_error(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        with open(store.history_path("run"), "w") as handle:
            handle.write("[1]")
        with pytest.raises(ValueError, match="not a JSON object"):
            store.load_metadata("run")

    def test_load_with_explicit_metric(self, tmp_path, small_linux_model):
        history = self.make_history(small_linux_model)
        store = ResultsStore(str(tmp_path))
        store.save_history("run", history)
        loaded = store.load_history("run", small_linux_model.space,
                                    metric=LatencyMetric())
        assert loaded.metric.direction == "minimize"

    def test_export_csv(self, tmp_path, small_linux_model):
        history = self.make_history(small_linux_model)
        store = ResultsStore(str(tmp_path))
        store.save_history("run", history)
        csv_path = str(tmp_path / "run.csv")
        store.export_csv("run", csv_path, parameters=["net.core.somaxconn"])
        with open(csv_path) as handle:
            lines = handle.read().splitlines()
        assert len(lines) == len(history) + 1
        assert "net.core.somaxconn" in lines[0]

    @pytest.mark.parametrize("version", [1, 2, 3, 6, 99])
    def test_unsupported_version_rejected(self, version, tmp_path,
                                          small_linux_model):
        # format 4 (checkpoint format 7) is the only one read: the inline
        # records of version 1, the raw sidecars of version 2 and the
        # manifest-carried block index of history version 3 and checkpoint
        # version 6 are rejected like an unknown version
        store = ResultsStore(str(tmp_path))
        history = self.make_history(small_linux_model, iterations=2)
        path = store.save_history("run", history)
        _set_format_version(path, version)
        with pytest.raises(ValueError, match="unsupported results format"):
            store.load_history("run", small_linux_model.space)
        with pytest.raises(ValueError, match="unsupported results format"):
            open_history_view(path)
        TestCrashSafety()._checkpointed_store(tmp_path)
        checkpoint = store.checkpoint_path("crash")
        _set_format_version(checkpoint, version)
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            load_checkpoint_file(checkpoint)

    def test_every_reader_resolves_sidecar_names_alike(self, tmp_path):
        # a manifest whose sidecar names carry a directory part: every
        # reader takes the basename next to the manifest, so all three
        # return the same rows rather than one of them failing to open
        TestCrashSafety()._checkpointed_store(tmp_path, iterations=5)
        path = ResultsStore(str(tmp_path)).checkpoint_path("crash")
        with open(path) as handle:
            document = json.load(handle)
        for key in ("trial_columns", "trial_payloads"):
            document[key] = "elsewhere/" + document[key]
        with open(path, "w") as handle:
            json.dump(document, handle)
        viewed = open_history_view(path).record_dicts()
        assert len(viewed) == 5
        assert load_history_document(path)["records"] == viewed
        assert load_checkpoint_file(path)["records"] == viewed


def _set_format_version(path, version):
    """Rewrite the ``format_version`` of the JSON document at *path*."""
    with open(path) as handle:
        document = json.load(handle)
    document["format_version"] = version
    with open(path, "w") as handle:
        handle.write(json.dumps(document, indent=2) + "\n")


class TestCrashSafety:
    """Atomic writes, orphaned-staging cleanup, and corruption fallback."""

    def _checkpointed_store(self, tmp_path, name="crash", iterations=4):
        from repro.core.spec import ExperimentSpec
        from repro.core.wayfinder import Wayfinder

        spec = ExperimentSpec(
            application="nginx", metric="throughput", algorithm="random",
            seed=2, iterations=iterations, space_options=SMALL_SPACE_OPTIONS,
            name=name)
        store = ResultsStore(str(tmp_path))
        wayfinder = Wayfinder.from_spec(spec)
        wayfinder.enable_checkpointing(store, name=name, every=1)
        wayfinder.specialize()
        return store

    def test_history_write_leaves_no_staging_file(self, tmp_path,
                                                  small_linux_model):
        store = ResultsStore(str(tmp_path))
        history = TestResultsStore().make_history(small_linux_model,
                                                  iterations=2)
        store.save_history("run", history)
        leftovers = [entry for entry in os.listdir(str(tmp_path))
                     if entry.endswith(".tmp")]
        assert leftovers == []

    def test_stale_tmp_files_cleaned_on_open(self, tmp_path):
        # a crashed writer's staging file (dead pid) and a legacy .tmp
        # without a pid are swept; a live writer's staging is left alone
        dead = str(tmp_path / "run.json.999999.tmp")
        legacy = str(tmp_path / "run.json.tmp")
        live = str(tmp_path / "run.json.{}.tmp".format(os.getpid()))
        for path in (dead, legacy, live):
            with open(path, "w") as handle:
                handle.write("{")
        removed = cleanup_stale_tmp_files(str(tmp_path))
        assert sorted(removed) == ["run.json.999999.tmp", "run.json.tmp"]
        assert not os.path.exists(dead) and not os.path.exists(legacy)
        assert os.path.exists(live)
        os.remove(live)
        # opening a store performs the same sweep
        with open(dead, "w") as handle:
            handle.write("{")
        ResultsStore(str(tmp_path))
        assert not os.path.exists(dead)

    def test_checkpoint_keeps_rolling_backup(self, tmp_path):
        store = self._checkpointed_store(tmp_path)
        assert os.path.exists(store.checkpoint_path("crash"))
        # several checkpoints were saved (every=1), so the previous one
        # survives as the rolling backup — and is itself loadable
        backup = store.checkpoint_backup_path("crash")
        assert os.path.exists(backup)
        assert load_checkpoint_file(backup)["kind"] == "checkpoint"

    def test_truncated_checkpoint_falls_back_to_backup(self, tmp_path):
        store = self._checkpointed_store(tmp_path)
        path = store.checkpoint_path("crash")
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[:len(text) // 2])  # torn write
        recovered = store.latest_valid_checkpoint("crash")
        assert recovered == path
        # the backup was promoted in place of the torn file, which was set
        # aside for forensics rather than silently deleted
        assert load_checkpoint_file(recovered)["kind"] == "checkpoint"
        corrupt = os.path.join(str(tmp_path),
                               "crash" + store.CHECKPOINT_CORRUPT_SUFFIX)
        assert os.path.exists(corrupt)
        assert not os.path.exists(store.checkpoint_backup_path("crash"))

    def test_all_checkpoints_corrupt_means_fresh_start(self, tmp_path):
        store = self._checkpointed_store(tmp_path)
        for path in (store.checkpoint_path("crash"),
                     store.checkpoint_backup_path("crash")):
            with open(path, "w") as handle:
                handle.write("{\"kind\": \"checkpo")
        assert store.latest_valid_checkpoint("crash") is None

    def test_legacy_checkpoints_are_set_aside(self, tmp_path):
        store = self._checkpointed_store(tmp_path)
        for path in (store.checkpoint_path("crash"),
                     store.checkpoint_backup_path("crash")):
            _set_format_version(path, 2)
        assert store.latest_valid_checkpoint("crash") is None
        assert os.path.exists(os.path.join(
            str(tmp_path), "crash" + store.CHECKPOINT_CORRUPT_SUFFIX))
        assert not os.path.exists(store.checkpoint_path("crash"))
        assert not os.path.exists(store.checkpoint_backup_path("crash"))

    def test_no_checkpoint_is_not_an_error(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        assert store.latest_valid_checkpoint("never-ran") is None

    def test_backup_and_corrupt_files_hidden_from_listings(self, tmp_path):
        store = self._checkpointed_store(tmp_path)
        path = store.checkpoint_path("crash")
        with open(path, "w") as handle:
            handle.write("torn")
        store.latest_valid_checkpoint("crash")  # creates the .corrupt file
        assert store.list_checkpoints() == ["crash"]
        # neither the rolling backup nor the set-aside corrupt file leaks
        # into the history listing (no history was ever saved here)
        assert store.list_histories() == []


class TestSessionSummary:
    """SessionResult.summary() must fully describe the run's budget shape."""

    def _session(self, small_linux_model, favor=None):
        from repro.search.random_search import RandomSearch
        from repro.platform.runner import SearchSession

        algorithm = RandomSearch(small_linux_model.space, seed=2,
                                 favored_kinds=[ParameterKind.RUNTIME])
        return SearchSession(make_pool(small_linux_model, "nginx"),
                             algorithm, favor=favor)

    def test_summary_records_time_budget_and_favor(self, small_linux_model):
        result = self._session(small_linux_model, favor="runtime").run(
            time_budget_s=1500.0)
        summary = result.summary()
        assert summary["time_budget_s"] == 1500.0
        assert summary["favor"] == "runtime"
        assert summary["stop_reason"] == "time-budget"

    def test_summary_null_fields_for_iteration_runs(self, small_linux_model):
        summary = self._session(small_linux_model).run(iterations=3).summary()
        assert summary["time_budget_s"] is None
        assert summary["favor"] is None
        assert summary["stop_reason"] == "iterations"

    def test_stored_metadata_describes_the_run(self, tmp_path, small_linux_model):
        result = self._session(small_linux_model, favor="runtime").run(iterations=4)
        store = ResultsStore(str(tmp_path))
        store.save_history("run", result.history, metadata=result.summary())
        metadata = store.load_metadata("run")["metadata"]
        assert metadata["favor"] == "runtime"
        assert metadata["time_budget_s"] is None
        assert metadata["workers"] == 1


class TestCheckpointResumePath:
    """The checkpoint path replaced the removed observation-replay helper.

    ``resume_session`` (replay stored observations into a fresh algorithm)
    could not restore RNG streams, worker clocks, or skip-build state; these
    tests pin its checkpoint-based replacement: the stored checkpoint fully
    restores the algorithm's observation state and the continued run stays
    on the original trajectory.
    """

    def _spec(self):
        from repro.core.spec import ExperimentSpec

        return ExperimentSpec(
            application="nginx", metric="throughput", algorithm="bayesian",
            seed=4, iterations=6, space_options=SMALL_SPACE_OPTIONS,
            algorithm_options={"initial_random": 2, "candidate_pool_size": 8},
            name="store-resume")

    def test_resume_session_helper_is_gone(self):
        import repro.platform.results as results

        assert not hasattr(results, "resume_session")

    def test_checkpoint_restores_algorithm_observations(self, tmp_path):
        from repro.core.wayfinder import Wayfinder

        wayfinder = Wayfinder.from_spec(self._spec())
        store = ResultsStore(str(tmp_path))
        wayfinder.enable_checkpointing(store, name="store-resume")
        wayfinder.specialize()
        resumed = Wayfinder.resume(store.checkpoint_path("store-resume"))
        # the restored algorithm carries every stored observation, where the
        # replay helper only ever reached the non-crashed subset of records
        assert len(resumed.algorithm._X) == 6
        history = resumed.build_session().session.history
        assert resumed.algorithm.propose(history) is not None

    def test_extended_budget_continues_the_trajectory(self, tmp_path):
        from repro.core.wayfinder import Wayfinder

        wayfinder = Wayfinder.from_spec(self._spec())
        store = ResultsStore(str(tmp_path))
        wayfinder.enable_checkpointing(store, name="store-resume")
        first = wayfinder.specialize()
        prefix = [(r.index, r.configuration, r.objective)
                  for r in first.history]
        extended = Wayfinder.resume(
            store.checkpoint_path("store-resume")).specialize(iterations=9)
        assert extended.iterations == 9
        assert [(r.index, r.configuration, r.objective)
                for r in extended.history][:6] == prefix
