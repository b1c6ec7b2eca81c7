"""Checkpoint integrity: the state codec, manifest fields, crash points of
one save, and corrupted state files.

A checkpoint is a JSON manifest, the columnar trial sidecars and a state
file (:mod:`repro.statecodec`) in one of two slots.  Whatever happens to
those files, :meth:`ResultsStore.latest_valid_checkpoint` returns the old
checkpoint, the new one, or ``None``, :meth:`Wayfinder.resume` raises
nothing but ``ValueError``, and no run continues from altered state.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import statecodec
from repro.core.spec import ExperimentSpec
from repro.core.wayfinder import Wayfinder
from repro.platform import trialstore
from repro.platform.history import TrialRecord
from repro.platform.lifecycle import CallbackObserver
from repro.platform.results import (
    ResultsStore,
    SessionCheckpointer,
    load_checkpoint_file,
)
from repro.vm.failures import FailureStage

from tests.conftest import SMALL_SPACE_OPTIONS

NAME = "integrity"


def _spec(algorithm: str = "random", iterations: int = 6) -> ExperimentSpec:
    options = {"deeptune": {"warmup_iterations": 3, "candidate_pool_size": 16,
                            "training_steps_per_iteration": 2,
                            "hidden_dims": [12, 6], "n_centroids": 4}}
    return ExperimentSpec(
        application="nginx", metric="throughput", algorithm=algorithm,
        seed=11, iterations=iterations, space_options=SMALL_SPACE_OPTIONS,
        algorithm_options=options.get(algorithm, {}), name=NAME)


def _trajectory(history):
    return [(r.index, r.configuration, r.objective, r.crashed, r.duration_s,
             r.started_at_s, r.worker) for r in history]


def _checkpointed_run(spec, directory):
    """Run *spec* with a checkpoint per batch; returns (trajectory, store)."""
    store = ResultsStore(directory)
    wayfinder = Wayfinder.from_spec(spec)
    wayfinder.enable_checkpointing(store, name=NAME, every=1)
    history = wayfinder.specialize().history
    return _trajectory(history), store


def _identity(path):
    """(trials, state sha256) of the checkpoint manifest at *path*."""
    with open(path) as handle:
        document = json.load(handle)
    return document["trials"], document["state_sha256"]


class TestStateCodec:
    def test_round_trip_is_exact_and_byte_stable(self):
        tree = {"weights": {"w": np.arange(6.0).reshape(2, 3).T,
                            "mask": np.array([True, False])},
                "moments": [np.float64(0.1), float("inf"), None],
                "rng": random.Random(3).getstate(),
                "big": 2 ** 100, "name": "x", "steps": (1, 2)}
        data = statecodec.dumps(tree)
        assert statecodec.dumps(tree) == data
        back = statecodec.loads(data)
        assert np.array_equal(back["weights"]["w"], tree["weights"]["w"])
        assert back["weights"]["mask"].dtype == np.bool_
        assert back["moments"] == [0.1, float("inf"), None]
        assert back["big"] == 2 ** 100 and back["steps"] == [1, 2]
        version, internal, gauss_next = back["rng"]
        assert (version, tuple(internal), gauss_next) \
            == random.Random(3).getstate()

    @pytest.mark.parametrize("leaf", [np.int64(3), {1, 2},
                                      np.array([object()], dtype=object)])
    def test_refuses_leaves_it_cannot_restore(self, leaf):
        with pytest.raises(TypeError):
            statecodec.dumps({"leaf": leaf})

    @pytest.mark.parametrize("data", [b"", b"PK\x03\x04junk", b"\x93NUMPY",
                                      b"not an archive at all"])
    def test_garbage_is_a_value_error(self, data):
        with pytest.raises(ValueError):
            statecodec.loads(data)


class TestManifestFields:
    """Every malformed trial-row field is a ``ValueError`` and falls back."""

    @pytest.mark.parametrize("key, value", [
        ("trials", None), ("trials", 2.5), ("trials", -1), ("trials", True),
        ("trial_columns", None), ("trial_payloads", ".."),
        ("format_version", None), ("format_version", 6), ("kind", "history"),
        ("state", None), ("state_bytes", "12"), ("state_sha256", 0),
    ])
    def test_bad_field_falls_back_to_prev(self, tmp_path, key, value):
        _, store = _checkpointed_run(_spec(), str(tmp_path))
        path = store.checkpoint_path(NAME)
        with open(path) as handle:
            document = json.load(handle)
        if value is None:
            del document[key]
        else:
            document[key] = value
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ValueError):
            load_checkpoint_file(path)
        with pytest.raises(ValueError):
            Wayfinder.resume(path)
        assert store.latest_valid_checkpoint(NAME) == path
        assert load_checkpoint_file(path)["trials"] == 5

    def test_manifest_size_does_not_grow_with_history(self, tmp_path):
        spec = _spec(iterations=1)
        store = ResultsStore(str(tmp_path))
        wayfinder = Wayfinder.from_spec(spec)
        checkpointer = wayfinder.enable_checkpointing(store, name=NAME)
        session = wayfinder.build_session().session
        space = session.backend.space
        rng = random.Random(5)
        manifests = {}
        for count in (100, 10 ** 4):
            for index in range(len(session.history), count):
                session.history.add(TrialRecord(
                    index=index,
                    configuration=space.sample_configuration(rng),
                    objective=rng.uniform(1e3, 1e5), crashed=False,
                    failure_stage=FailureStage.NONE, failure_reason="",
                    metric_value=rng.uniform(1e3, 1e5), memory_mb=None,
                    duration_s=rng.uniform(10, 600),
                    started_at_s=index * 600.0))
            with open(checkpointer.save()) as handle:
                manifests[count] = handle.read()
        small, large = (json.loads(manifests[count])
                        for count in (100, 10 ** 4))
        assert abs(len(manifests[10 ** 4]) - len(manifests[100])) <= 64
        varying = {"trials", "summary", "state_sha256", "state_bytes"}
        assert small.keys() == large.keys()
        assert {key: small[key] for key in small.keys() - varying} \
            == {key: large[key] for key in large.keys() - varying}
        assert small["summary"].keys() == large["summary"].keys()
        assert load_checkpoint_file(store.checkpoint_path(NAME))["trials"] \
            == 10 ** 4

    def test_frames_past_the_prev_prefix_do_not_fail_it(self, tmp_path):
        reference, store = _checkpointed_run(_spec(), str(tmp_path))
        payloads_path = store.checkpoint_trial_paths(NAME)[1]
        last = trialstore.scan_payload_blocks(payloads_path)[-1]
        # garbage over the frame only the current manifest references
        with open(payloads_path, "r+b") as handle:
            handle.seek(last["offset"])
            handle.write(b"JUNK")
        path = store.checkpoint_path(NAME)
        with pytest.raises(ValueError):
            load_checkpoint_file(path)
        prev = load_checkpoint_file(store.checkpoint_backup_path(NAME))
        assert prev["trials"] == 5
        assert store.latest_valid_checkpoint(NAME) == path
        resumed = Wayfinder.resume(path)
        resumed.enable_checkpointing(store, name=NAME, every=1)
        assert _trajectory(resumed.specialize().history) == reference

    def test_corrupt_first_block_starts_fresh(self, tmp_path):
        reference, store = _checkpointed_run(_spec(), str(tmp_path))
        payloads_path = store.checkpoint_trial_paths(NAME)[1]
        first = trialstore.scan_payload_blocks(payloads_path)[0]
        with open(payloads_path, "r+b") as handle:
            handle.seek(first["offset"] + trialstore.BLOCK_HEADER_SIZE + 3)
            byte = handle.read(1)[0]
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte ^ 0x04]))
        # every row depends on block 0, so neither manifest loads ...
        assert store.latest_valid_checkpoint(NAME) is None
        # ... and a fresh run over the same files rewrites them
        assert _checkpointed_run(_spec(), str(tmp_path))[0] == reference
        assert load_checkpoint_file(store.checkpoint_path(NAME))["trials"] \
            == len(reference)

    def test_json_list_manifest_falls_back_to_prev(self, tmp_path):
        _, store = _checkpointed_run(_spec(), str(tmp_path))
        path = store.checkpoint_path(NAME)
        with open(path, "w") as handle:
            json.dump([1, 2], handle)
        with pytest.raises(ValueError):
            Wayfinder.resume(path)
        assert store.latest_valid_checkpoint(NAME) == path
        assert load_checkpoint_file(path)["trials"] == 5


class _Crash(Exception):
    """A simulated process death in the middle of a save."""


class TestCrashPoints:
    """A crash after any write, fsync or rename of one save leaves the old
    checkpoint or the new one, and resuming from it stays bit-exact."""

    CRASH_TRIALS = 4  # the save after this trial is the one crashed

    def _run_with_crash(self, spec, directory, monkeypatch, step):
        """Run *spec*, dying after the *step*-th fsync/rename of the save
        at ``CRASH_TRIALS`` trials; returns how many such calls it made."""
        calls = [0]
        armed = [False]

        def counted(real):
            def call(*args, **kwargs):
                result = real(*args, **kwargs)
                if armed[0]:
                    calls[0] += 1
                    if calls[0] == step:
                        raise _Crash()
                return result
            return call

        real_save = SessionCheckpointer.save

        def save(checkpointer):
            armed[0] = len(checkpointer.session.history) == self.CRASH_TRIALS
            try:
                return real_save(checkpointer)
            finally:
                armed[0] = False

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", counted(os.fsync))
            patch.setattr(os, "replace", counted(os.replace))
            patch.setattr(SessionCheckpointer, "save", save)
            try:
                _checkpointed_run(spec, directory)
            except _Crash:
                pass
        return calls[0]

    @pytest.mark.parametrize("algorithm", ["random", "deeptune"])
    def test_every_step_of_a_save(self, tmp_path, monkeypatch, algorithm):
        spec = _spec(algorithm, iterations=7)
        store = ResultsStore(str(tmp_path / "reference"))
        wayfinder = Wayfinder.from_spec(spec)
        wayfinder.enable_checkpointing(store, name=NAME, every=1)
        snapshots = {}

        def snapshot(session, path):
            snapshots[len(session.history)] = _identity(path)

        wayfinder.add_observer(CallbackObserver(on_checkpoint=snapshot))
        reference = _trajectory(wayfinder.specialize().history)
        old, new = (snapshots[self.CRASH_TRIALS - 1],
                    snapshots[self.CRASH_TRIALS])

        steps = self._run_with_crash(spec, str(tmp_path / "count"),
                                     monkeypatch, step=0)
        # trial rows, state and manifest: each written, fsynced and renamed
        assert steps >= 8
        seen = set()
        for step in range(1, steps + 1):
            directory = str(tmp_path / "crash{}".format(step))
            self._run_with_crash(spec, directory, monkeypatch, step)
            store = ResultsStore(directory)
            recovered = store.latest_valid_checkpoint(NAME)
            assert recovered is not None, step
            identity = _identity(recovered)
            assert identity in (old, new), step
            seen.add(identity)
            resumed = Wayfinder.resume(recovered)
            assert _trajectory(resumed.specialize().history) == reference
        assert seen == {old, new}


    def test_promoted_backup_keeps_its_state_through_a_save(self, tmp_path):
        _, store = _checkpointed_run(_spec(iterations=5), str(tmp_path))
        path = store.checkpoint_path(NAME)
        with open(path, "w") as handle:
            handle.write("{")  # torn: the 4-trial backup is promoted
        assert store.latest_valid_checkpoint(NAME) == path
        resumed = Wayfinder.resume(path)
        saved = []
        resumed.add_observer(CallbackObserver(
            on_checkpoint=lambda session, path: saved.append(
                load_checkpoint_file(store.checkpoint_backup_path(NAME))[
                    "trials"])))
        resumed.enable_checkpointing(store, name=NAME, every=1)
        resumed.specialize()
        # after each save the backup is the checkpoint before it
        assert saved[0] == 4


def _damage_strategy():
    flip = st.tuples(st.just("flip"), st.integers(0, 10 ** 6),
                     st.integers(0, 7))
    truncate = st.tuples(st.just("truncate"), st.integers(0, 10 ** 6))
    splice = st.tuples(st.just("splice"), st.integers(0, 10 ** 6),
                       st.integers(1, 4096), st.integers(0, 10 ** 6))
    name = st.tuples(st.just("field"), st.just("state"),
                     st.sampled_from(["", ".", "..", "missing.npz",
                                      NAME + ".checkpoint.json",
                                      NAME + ".checkpoint.trials.bin",
                                      NAME + ".checkpoint.state.npz.prev"]))
    digest = st.tuples(st.just("field"), st.just("state_sha256"),
                       st.text("0123456789abcdef", min_size=0, max_size=64))
    length = st.tuples(st.just("field"), st.just("state_bytes"),
                       st.one_of(st.integers(-1, 10 ** 7), st.none(),
                                 st.text(max_size=3)))
    return st.one_of(flip, truncate, splice, name, digest, length)


def _apply(damage, store):
    """Damage the current state slot or the manifest's state fields."""
    path = store.checkpoint_path(NAME)
    state_path = store.checkpoint_trial_paths(NAME)[2]
    with open(state_path, "rb") as handle:
        state = bytearray(handle.read())
    kind = damage[0]
    if kind == "flip":
        state[damage[1] % len(state)] ^= 1 << damage[2]
    elif kind == "truncate":
        del state[damage[1] % len(state):]
    elif kind == "splice":
        # a run of the backup slot's bytes overwrites part of the state
        with open(state_path + ".prev", "rb") as handle:
            donor = handle.read()
        start = damage[1] % len(state)
        source = damage[3] % len(donor)
        piece = donor[source:source + damage[2]]
        state[start:start + len(piece)] = piece
    else:
        with open(path) as handle:
            document = json.load(handle)
        document[damage[1]] = damage[2]
        with open(path, "w") as handle:
            json.dump(document, handle)
        return
    with open(state_path, "wb") as handle:
        handle.write(bytes(state))


class TestCorruptState:
    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("pristine"))
        reference, store = _checkpointed_run(_spec(), directory)
        return directory, reference, {
            "current": _identity(store.checkpoint_path(NAME)),
            "prev": _identity(store.checkpoint_backup_path(NAME))}

    @settings(max_examples=60, deadline=None)
    @given(damage=_damage_strategy())
    def test_damage_never_resumes_altered_state(self, pristine, damage):
        source, reference, identities = pristine
        directory = tempfile.mkdtemp()
        try:
            shutil.copytree(source, directory, dirs_exist_ok=True)
            store = ResultsStore(directory)
            _apply(damage, store)
            path = store.checkpoint_path(NAME)
            try:
                resumed = Wayfinder.resume(path)
            except ValueError:
                pass
            else:  # the damage left the state intact (same bytes found)
                assert _identity(path)[0] == 6
                assert _trajectory(resumed.specialize().history) == reference
            recovered = store.latest_valid_checkpoint(NAME)
            assert recovered == path
            # the manifest may be damaged, so judge it by the state it loads
            document = load_checkpoint_file(recovered)
            assert (document["trials"], document["state_sha256"]) in (
                identities["current"], identities["prev"])
            resumed = Wayfinder.resume(recovered)
            assert _trajectory(resumed.specialize().history) == reference
        finally:
            shutil.rmtree(directory)
