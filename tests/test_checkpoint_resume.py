"""Checkpoint → resume determinism and the session lifecycle engine.

The hard acceptance bar of the checkpoint feature: a run checkpointed at
trial k and resumed must reproduce the uninterrupted run *trial for trial* —
same proposals, same RNG consumption, same timestamps, same incumbent
trajectory — for every registered algorithm and any worker/batch shape.  The
tests run each algorithm once with every-batch checkpointing (archiving each
checkpoint file as it is written), then resume from several interruption
points and assert record-level equality against the uninterrupted history.
"""

from __future__ import annotations


import pytest

from repro.core.spec import ExperimentSpec
from repro.core.wayfinder import Wayfinder
from repro.platform.lifecycle import (
    CallbackObserver,
    IncumbentPlateau,
    IterationBudget,
    SessionObserver,
    TimeBudget,
)
from repro.platform.results import ResultsStore, load_checkpoint_file

from tests.conftest import (
    SMALL_SPACE_OPTIONS,
    archive_checkpoint,
    assert_stores_equal,
    learned_stores,
)

#: per-algorithm options keeping the model-guided phases cheap but active
#: (mirrors tests/test_batch_execution.py).
ALGO_OPTIONS = {
    "random": {},
    "grid": {},
    "bayesian": {"initial_random": 3, "candidate_pool_size": 16},
    "unicorn": {"candidate_pool_size": 8, "top_k": 4},
    "deeptune": {"warmup_iterations": 3, "candidate_pool_size": 32,
                 "training_steps_per_iteration": 4, "hidden_dims": [24, 12],
                 "n_centroids": 8},
}


def _spec(algorithm: str, workers: int, iterations: int) -> ExperimentSpec:
    return ExperimentSpec(
        application="nginx", metric="throughput", algorithm=algorithm,
        favor="runtime", seed=7, iterations=iterations, workers=workers,
        batch_size=workers, space_options=SMALL_SPACE_OPTIONS,
        algorithm_options=ALGO_OPTIONS[algorithm],
        name="ckpt-{}-w{}".format(algorithm, workers))


def _trial_tuple(record):
    return (record.index, record.configuration, record.objective,
            record.crashed, record.duration_s, record.started_at_s,
            record.build_skipped, record.worker)


def _full_run_with_checkpoints(spec, tmp_path):
    """Run to completion, archiving the checkpoint written at every batch.

    Returns (history tuples, [(trials_done, archived_path), ...]).
    """
    wayfinder = Wayfinder.from_spec(spec)
    store = ResultsStore(str(tmp_path))
    wayfinder.enable_checkpointing(store, name=spec.name, every=1)
    archived = []

    def archive(session, path):
        copy = archive_checkpoint(store, spec.name, path, len(session.history))
        archived.append((len(session.history), copy))

    wayfinder.add_observer(CallbackObserver(on_checkpoint=archive))
    result = wayfinder.specialize()
    return [_trial_tuple(r) for r in result.history], archived


class TestResumeDeterminism:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_resume_reproduces_uninterrupted_run(self, name, workers, tmp_path):
        iterations = 5 if name == "unicorn" else 9
        spec = _spec(name, workers, iterations)
        reference, archived = _full_run_with_checkpoints(spec, tmp_path)
        assert len(reference) == iterations

        # every interior batch boundary is a valid interruption point
        resume_points = [entry for entry in archived if 0 < entry[0] < iterations]
        assert resume_points, "expected mid-run checkpoints to test against"
        for trials_done, path in resume_points:
            resumed = Wayfinder.resume(path)
            session_history = resumed.build_session().session.history
            assert len(session_history) == trials_done
            result = resumed.specialize()
            assert [_trial_tuple(r) for r in result.history] == reference

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_resume_rebuilds_the_observation_stores(self, name, workers,
                                                    tmp_path):
        """Every interior checkpoint resumes to an algorithm whose rebuilt
        observation stores, and whose exported state, equal the
        uninterrupted run's at that point, array for array.  At 4 workers
        the observation order differs from the history order."""
        from repro import statecodec

        spec = _spec(name, workers, 5 if name == "unicorn" else 9)
        wayfinder = Wayfinder.from_spec(spec)
        store = ResultsStore(str(tmp_path))
        wayfinder.enable_checkpointing(store, name=spec.name, every=1)
        snapshots = []

        def snapshot(session, path):
            trials = len(session.history)
            snapshots.append((
                trials,
                archive_checkpoint(store, spec.name, path, trials),
                learned_stores(session.algorithm),
                statecodec.dumps(session.algorithm.export_state())))

        wayfinder.add_observer(CallbackObserver(on_checkpoint=snapshot))
        wayfinder.specialize()
        interior = [entry for entry in snapshots
                    if 0 < entry[0] < spec.iterations]
        assert interior
        reordered = False
        for trials, path, stores, state in interior:
            algorithm = Wayfinder.resume(path).build_session().session.algorithm
            assert_stores_equal(learned_stores(algorithm), stores)
            assert statecodec.dumps(algorithm.export_state()) == state
            if "observed" in stores:
                assert len(stores["observed"]) == trials
                reordered |= (stores["observed"].tolist()
                              != list(range(trials)))
        if workers == 4 and name in ("bayesian", "deeptune"):
            assert reordered  # a batch completed out of submission order

    def test_deeptune_state_does_not_grow_with_the_history(self, tmp_path):
        """Between 50 and 200 trials DeepTune's checkpointed state grows by
        less than 16 bytes per trial: only the observation order grows.

        The algorithm's part of the state file is measured.  The backend's
        part holds each worker's last running configuration, which comes
        and goes with crashes (~5 KB on this space) whatever the history's
        length."""
        from repro import statecodec

        spec = _spec("deeptune", 1, 200)
        wayfinder = Wayfinder.from_spec(spec)
        store = ResultsStore(str(tmp_path))
        wayfinder.enable_checkpointing(store, name=spec.name, every=50)
        sizes = {}

        def measure(session, path):
            state = load_checkpoint_file(path)["state_tree"]
            sizes[len(session.history)] = len(
                statecodec.dumps(state["algorithm"]))

        wayfinder.add_observer(CallbackObserver(on_checkpoint=measure))
        wayfinder.specialize()
        assert sorted(sizes) == [50, 100, 150, 200]
        assert (sizes[200] - sizes[50]) / 150 < 16, sizes

    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_same_seed_checkpoints_are_byte_identical(self, name, tmp_path):
        """A checkpoint holds no wall-clock and no uninitialized memory."""
        spec = _spec(name, 1, 5 if name == "unicorn" else 15)
        runs = []
        for run in ("a", "b"):
            wayfinder = Wayfinder.from_spec(spec)
            store = ResultsStore(str(tmp_path / run))
            wayfinder.enable_checkpointing(store, name=spec.name, every=1)
            wayfinder.specialize()
            runs.append(store)
        paths = [(store.checkpoint_path(spec.name),
                  store.checkpoint_backup_path(spec.name))
                 + store.checkpoint_trial_paths(spec.name) for store in runs]
        for first, second in zip(*paths):
            with open(first, "rb") as handle_a, open(second, "rb") as handle_b:
                assert handle_a.read() == handle_b.read(), first

    @pytest.mark.parametrize("name", sorted(ALGO_OPTIONS))
    def test_checkpoint_state_names_no_repro_class(self, name, tmp_path):
        """The state file loads with ``allow_pickle=False`` into builtins
        and NumPy arrays only: no class of this package, no object array."""
        import io
        import json

        import numpy as np

        spec = _spec(name, 1, 6)
        wayfinder = Wayfinder.from_spec(spec)
        store = ResultsStore(str(tmp_path))
        wayfinder.enable_checkpointing(store, name=spec.name, every=1)
        wayfinder.specialize()
        with open(store.checkpoint_trial_paths(spec.name)[2], "rb") as handle:
            data = handle.read()
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        tree = json.loads(arrays.pop("tree").tobytes())
        leaves = []

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            else:
                leaves.append(node)

        walk(tree)
        assert {type(leaf) for leaf in leaves} <= {str, int, float, bool,
                                                   type(None)}
        assert all(not array.dtype.hasobject for array in arrays.values())
        state = load_checkpoint_file(store.checkpoint_path(spec.name))[
            "state_tree"]
        if name == "deeptune":
            # six trials with three warmup ones: the candidate pool has
            # drawn, and its generator state is plain builtins
            pool_rng = state["algorithm"]["pool_rng"]
            assert pool_rng["bit_generator"] == "PCG64"
            assert isinstance(pool_rng["state"]["state"], int)
        if name in ("bayesian", "deeptune", "unicorn"):
            # the observation order is the one array a learning algorithm
            # keeps of its history
            observed = state["algorithm"]["observed"]
            assert observed.dtype == np.int64
            assert sorted(observed.tolist()) == list(range(6))

    def test_resumed_prefix_matches_stored_records(self, tmp_path):
        spec = _spec("random", 4, 9)
        reference, archived = _full_run_with_checkpoints(spec, tmp_path)
        trials_done, path = [entry for entry in archived if 0 < entry[0] < 9][-1]
        resumed = Wayfinder.resume(path)
        prefix = [_trial_tuple(r)
                  for r in resumed.build_session().session.history]
        assert prefix == reference[:trials_done]

    def test_resume_from_finished_checkpoint_is_a_noop_run(self, tmp_path):
        spec = _spec("random", 1, 6)
        reference, archived = _full_run_with_checkpoints(spec, tmp_path)
        final = archived[-1]
        assert final[0] == 6
        result = Wayfinder.resume(final[1]).specialize()
        assert [_trial_tuple(r) for r in result.history] == reference

    def test_resume_can_extend_the_budget(self, tmp_path):
        spec = _spec("random", 1, 6)
        reference, archived = _full_run_with_checkpoints(spec, tmp_path)
        result = Wayfinder.resume(archived[-1][1]).specialize(iterations=10)
        assert result.iterations == 10
        assert [_trial_tuple(r) for r in result.history][:6] == reference


class TestCheckpointStore:
    def test_checkpoint_document_shape(self, tmp_path):
        import json
        import os

        spec = _spec("random", 2, 5)
        _, archived = _full_run_with_checkpoints(spec, tmp_path)
        document = load_checkpoint_file(archived[-1][1])
        assert document["kind"] == "checkpoint"
        assert document["spec"] == spec.to_dict()
        assert len(document["records"]) == 5
        assert document["summary"]["trials"] == 5
        assert isinstance(document["state"], str)
        # the on-disk manifest holds only metadata + a row count: records
        # live in the columnar sidecars and are attached by the loader
        with open(archived[-1][1]) as handle:
            on_disk = json.load(handle)
        assert "records" not in on_disk
        assert on_disk["trials"] == 5
        for sidecar in (on_disk["trial_columns"], on_disk["trial_payloads"]):
            assert os.path.exists(os.path.join(str(tmp_path), sidecar))

    def test_store_lists_checkpoints_separately(self, tmp_path):
        spec = _spec("random", 1, 4)
        wayfinder = Wayfinder.from_spec(spec)
        store = ResultsStore(str(tmp_path))
        wayfinder.enable_checkpointing(store, name="run")
        result = wayfinder.specialize()
        store.save_history("run", result.history)
        assert store.list_checkpoints() == ["run"]
        assert store.list_histories() == ["run"]
        assert store.load_checkpoint("run")["kind"] == "checkpoint"

    def test_checkpoint_cadence_restored_on_resume(self, tmp_path):
        spec = _spec("random", 1, 8)
        wayfinder = Wayfinder.from_spec(spec)
        store = ResultsStore(str(tmp_path))
        wayfinder.enable_checkpointing(store, name="run", every=3)
        wayfinder.specialize()
        resumed = Wayfinder.resume(store.checkpoint_path("run"))
        session = resumed.build_session().session
        assert session.checkpoint_every == 3
        # re-enabling without an explicit cadence keeps the original rhythm
        resumed.enable_checkpointing(store, name="run")
        assert session.checkpoint_every == 3
        resumed.enable_checkpointing(store, name="run", every=5)
        assert session.checkpoint_every == 5

    def test_non_checkpoint_rejected(self, tmp_path, small_linux_model):
        from repro.platform.metrics import ThroughputMetric
        from repro.platform.history import ExplorationHistory

        store = ResultsStore(str(tmp_path))
        path = store.save_history("h", ExplorationHistory(ThroughputMetric()))
        with pytest.raises(ValueError):
            load_checkpoint_file(path)

    def test_custom_hardware_refuses_checkpointing(self, tmp_path):
        from repro.vm.machine import HardwareSpec

        board = HardwareSpec(name="bespoke", cores=2, frequency_ghz=1.0, ram_gb=4)
        wayfinder = Wayfinder.for_linux(application="nginx", algorithm="random",
                                        hardware=board,
                                        space_options=SMALL_SPACE_OPTIONS)
        with pytest.raises(ValueError, match="custom hardware"):
            wayfinder.enable_checkpointing(str(tmp_path))
        # the spec's architecture field remains the supported path
        riscv = Wayfinder.from_spec(_spec("random", 1, 4).with_overrides(
            architecture="riscv64"))
        riscv.enable_checkpointing(str(tmp_path), name="riscv")
        riscv.specialize()
        resumed = Wayfinder.resume(ResultsStore(str(tmp_path)).checkpoint_path("riscv"))
        assert resumed.hardware.architecture == "riscv64"

    def _refuses_rewritten_version(self, tmp_path, version):
        import json

        spec = _spec("deeptune", 1, 5)
        _, archived = _full_run_with_checkpoints(spec, tmp_path)
        path = archived[-2][1]
        Wayfinder.resume(path).build_session()  # the untouched checkpoint resumes
        with open(path) as handle:
            document = json.load(handle)
        document["format_version"] = version
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ValueError, match="format version: {}".format(version)):
            Wayfinder.resume(path)

    def test_stale_deeptune_model_layout_is_refused(self, tmp_path):
        """Format 3 pickled the DeepTune model object itself; such a
        checkpoint is refused rather than read."""
        self._refuses_rewritten_version(tmp_path, 3)

    def test_checkpoint_without_pool_generator_is_refused(self, tmp_path):
        """Format 4 predates DeepTune's candidate-pool generator: its state
        has no ``pool_rng`` and its pools came from another algorithm, so
        the version check refuses it before the state is read."""
        self._refuses_rewritten_version(tmp_path, 4)

    def test_pickled_state_checkpoint_is_refused(self, tmp_path):
        """Format 5 embedded its state in the manifest as pickled base64;
        no reader for it is kept."""
        self._refuses_rewritten_version(tmp_path, 5)

    def test_history_copying_state_checkpoint_is_refused(self, tmp_path):
        """Format 7 held the learning algorithms' replay rows, moments and
        best lists in the state; no reader for it is kept."""
        self._refuses_rewritten_version(tmp_path, 7)

    def test_observed_positions_must_index_the_stored_trials(self, tmp_path):
        """A state that observed more trials than the checkpoint stores
        cannot rebuild its observations, and is refused."""
        from repro.platform.results import restore_search_session

        spec = _spec("bayesian", 1, 5)
        _, archived = _full_run_with_checkpoints(spec, tmp_path)
        document = load_checkpoint_file(archived[-1][1])
        document["records"] = document["records"][:3]
        session = Wayfinder.from_spec(spec).build_session().session
        with pytest.raises(ValueError, match="observed positions"):
            restore_search_session(document, session)

    def test_restore_requires_fresh_session(self, tmp_path):
        spec = _spec("random", 1, 4)
        _, archived = _full_run_with_checkpoints(spec, tmp_path)
        resumed = Wayfinder.resume(archived[-1][1])
        from repro.platform.results import restore_search_session

        with pytest.raises(ValueError):
            restore_search_session(load_checkpoint_file(archived[-1][1]),
                                   resumed.build_session().session)


class TestLifecycleObservers:
    def _run(self, observer, iterations=6, **spec_kwargs):
        spec = _spec("random", 1, iterations)
        for key, value in spec_kwargs.items():
            spec = spec.with_overrides(**{key: value})
        wayfinder = Wayfinder.from_spec(spec)
        wayfinder.add_observer(observer)
        return wayfinder.specialize()

    def test_callbacks_fire_in_order(self):
        events = []
        observer = CallbackObserver(
            on_batch_start=lambda s, i, k: events.append(("batch", i, k)),
            on_trial=lambda s, r: events.append(("trial", r.index)),
            on_new_incumbent=lambda s, r: events.append(("incumbent", r.index)),
        )
        result = self._run(observer, iterations=6)
        batches = [e for e in events if e[0] == "batch"]
        trials = [e for e in events if e[0] == "trial"]
        incumbents = [e for e in events if e[0] == "incumbent"]
        assert batches[0] == ("batch", 0, 1)  # the default-configuration trial
        assert [index for _, index in trials] == list(range(6))
        # the incumbent trajectory matches the history's best-so-far series
        assert incumbents[0][1] == 0  # default config is the first incumbent
        assert incumbents[-1][1] == result.history.best_record().index

    def test_observers_see_batched_sessions(self):
        planned = []
        observer = CallbackObserver(
            on_batch_start=lambda s, i, k: planned.append(k))
        spec = _spec("random", 4, 9)
        wayfinder = Wayfinder.from_spec(spec)
        wayfinder.add_observer(observer)
        wayfinder.specialize()
        assert planned == [1, 4, 4]  # default alone, then full batches


class TestStopConditions:
    def _wayfinder(self, **overrides):
        spec = _spec("random", 1, 40)
        spec = spec.with_overrides(**overrides)
        return Wayfinder.from_spec(spec)

    def test_iteration_budget_reports_stop_reason(self):
        result = self._wayfinder(iterations=5).specialize()
        assert result.iterations == 5
        assert result.stop_reason == "iterations"

    def test_time_budget_reports_stop_reason(self):
        result = self._wayfinder(iterations=None,
                                 time_budget_s=2000.0).specialize()
        assert result.total_time_s >= 2000.0
        assert result.stop_reason == "time-budget"
        assert result.summary()["time_budget_s"] == 2000.0

    def test_incumbent_plateau_stops_early(self):
        result = self._wayfinder(iterations=40, plateau_trials=3).specialize()
        best_index = result.history.best_record().index
        assert result.stop_reason in ("incumbent-plateau", "iterations")
        if result.stop_reason == "incumbent-plateau":
            assert result.iterations - 1 - best_index >= 3
            assert result.iterations < 40

    def test_explicit_conditions_compose(self):
        wayfinder = self._wayfinder(iterations=None)
        result = wayfinder.specialize(
            stop=[IterationBudget(4), TimeBudget(1e9), IncumbentPlateau(100)])
        assert result.iterations == 4

    def test_condition_validation(self):
        with pytest.raises(ValueError):
            IterationBudget(0)
        with pytest.raises(ValueError):
            TimeBudget(0.0)
        with pytest.raises(ValueError):
            IncumbentPlateau(0)

    def test_describe(self):
        assert IterationBudget(5).describe() == {"condition": "iterations",
                                                 "iterations": 5}
        assert TimeBudget(10.0).describe()["seconds"] == 10.0
        assert IncumbentPlateau(3).describe()["patience"] == 3
        assert isinstance(SessionObserver(), SessionObserver)
