"""Unit tests for the DeepTune model, scoring function, transfer and importance."""

import numpy as np
import pytest

from repro.config.encoding import ConfigEncoder
from repro.config.parameter import ParameterKind
from repro.deeptune.algorithm import DeepTuneSearch
from repro.deeptune.importance import (
    importance_vector,
    model_permutation_importance,
    parameter_importance,
    top_parameters,
    variance_reduction_importance,
)
from repro.deeptune.model import DeepTuneModel
from repro.deeptune.scoring import dissimilarity, exploration_score, score_candidates
from repro.deeptune.transfer import (
    _model_from_metadata,
    _model_metadata,
    transfer_model,
)

from tests.conftest import assert_stores_equal, replay_store


def make_synthetic_dataset(n=120, d=12, seed=0):
    """A learnable synthetic problem: performance driven by 2 features, crashes by 1."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    performance = 100.0 + 50.0 * X[:, 0] - 30.0 * X[:, 1] + rng.normal(0, 1.0, n)
    crashed = X[:, 2] > 0.8
    performance = np.where(crashed, np.nan, performance)
    return X, performance, crashed


class TestDeepTuneModel:
    def test_prediction_shapes(self):
        model = DeepTuneModel(input_dim=12, seed=1)
        X, y, crashed = make_synthetic_dataset()
        for row, target, crash in zip(X, y, crashed):
            model.add_observation(row, None if np.isnan(target) else target, bool(crash))
        model.fit_incremental(steps=20)
        prediction = model.predict(X[:5])
        assert len(prediction) == 5
        assert prediction.crash_probability.shape == (5,)
        assert np.all((prediction.crash_probability >= 0) & (prediction.crash_probability <= 1))
        assert np.all((prediction.uncertainty >= 0) & (prediction.uncertainty <= 1))

    def test_learns_crash_boundary(self):
        model = DeepTuneModel(input_dim=12, seed=1, learning_rate=5e-3)
        X, y, crashed = make_synthetic_dataset(n=200)
        for row, target, crash in zip(X, y, crashed):
            model.add_observation(row, None if np.isnan(target) else target, bool(crash))
        for _ in range(10):
            model.fit_incremental(steps=40)
        prediction = model.predict(X)
        predicted_crash = prediction.crash_probability > 0.5
        accuracy = float(np.mean(predicted_crash == crashed))
        assert accuracy > 0.75

    def test_learns_performance_ordering(self):
        model = DeepTuneModel(input_dim=12, seed=1, learning_rate=5e-3)
        X, y, crashed = make_synthetic_dataset(n=200)
        for row, target, crash in zip(X, y, crashed):
            model.add_observation(row, None if np.isnan(target) else target, bool(crash))
        for _ in range(10):
            model.fit_incremental(steps=40)
        ok = ~crashed
        predicted = model.predict(X[ok]).performance
        actual = y[ok]
        correlation = np.corrcoef(predicted, actual)[0, 1]
        assert correlation > 0.5

    def test_uncertainty_higher_for_outliers(self):
        model = DeepTuneModel(input_dim=8, seed=2)
        rng = np.random.default_rng(3)
        X = rng.random((80, 8)) * 0.2  # training data in a small corner
        for row in X:
            model.add_observation(row, 10.0, False)
        for _ in range(5):
            model.fit_incremental(steps=30)
        familiar = model.predict(X[:10]).uncertainty.mean()
        outliers = model.predict(np.full((10, 8), 5.0)).uncertainty.mean()
        assert outliers > familiar

    def test_incremental_cost_constant(self):
        model = DeepTuneModel(input_dim=10, seed=1)
        rng = np.random.default_rng(0)
        import time
        timings = []
        for round_index in range(3):
            for _ in range(30):
                model.add_observation(rng.random(10), float(rng.random()), False)
            started = time.perf_counter()
            model.fit_incremental(steps=10, batch_size=16)
            timings.append(time.perf_counter() - started)
        # The third round has 3x the data of the first but per-call cost stays
        # bounded (constant number of minibatch steps).
        assert timings[-1] < timings[0] * 5 + 0.05

    def test_invalid_feature_width_rejected(self):
        model = DeepTuneModel(input_dim=4)
        with pytest.raises(ValueError):
            model.add_observation(np.ones(5), 1.0, False)

    def test_feature_scaler_zscores_encoded_configurations(self, small_space, rng):
        # the encoder stops at [0, 1] columns; z-scoring them for the RBF
        # branch is the model's feature scaler's job
        encoder = ConfigEncoder(small_space)
        matrix = encoder.encode_batch(
            [small_space.sample_configuration(rng) for _ in range(64)])
        model = DeepTuneModel(input_dim=encoder.width, seed=2)
        for index, row in enumerate(matrix):
            model.add_observation(row, float(index), False)
        model.fit_incremental(steps=1)
        scaled = model.feature_scaler.transform(matrix)
        varying = matrix.std(axis=0) > 1e-12
        assert np.allclose(scaled.mean(axis=0)[varying], 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0)[varying], 1.0, atol=1e-9)
        # constant columns are centred, not divided by zero
        assert np.allclose(scaled[:, ~varying], 0.0)

    def test_state_dict_roundtrip(self):
        model = DeepTuneModel(input_dim=6, seed=4)
        X, y, crashed = make_synthetic_dataset(n=40, d=6)
        for row, target, crash in zip(X, y, crashed):
            model.add_observation(row, None if np.isnan(target) else target, bool(crash))
        model.fit_incremental(steps=10)
        clone = _model_from_metadata(_model_metadata(model))
        clone.load_state_dict(model.state_dict())
        original = model.predict(X[:5])
        restored = clone.predict(X[:5])
        assert np.allclose(original.performance, restored.performance)
        assert np.allclose(original.crash_probability, restored.crash_probability)


class TestScoring:
    def test_dissimilarity_bounds(self):
        known = np.random.default_rng(0).random((10, 5))
        candidates = np.random.default_rng(1).random((4, 5))
        values = dissimilarity(candidates, known)
        assert values.shape == (4,)
        assert np.all((values >= 0) & (values <= 1))
        assert np.all(dissimilarity(known[:2], known) < 1e-9)

    def test_dissimilarity_empty_history(self):
        assert np.all(dissimilarity(np.ones((3, 4)), np.empty((0, 4))) == 1.0)

    def test_exploration_score_alpha_validation(self):
        with pytest.raises(ValueError):
            exploration_score(np.ones((2, 3)), np.ones((2, 3)), np.ones(2), alpha=1.5)

    def test_score_prefers_predicted_good_and_unexplored(self):
        candidates = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        known = np.array([[0.0, 0.0]])
        scores = score_candidates(
            candidates=candidates,
            known=known,
            predicted_performance=np.array([10.0, 10.0, 10.0]),
            predicted_uncertainty=np.array([0.1, 0.9, 0.5]),
            predicted_crash_probability=np.zeros(3),
            maximize=True,
        )
        assert scores[1] > scores[0]

    def test_score_penalizes_predicted_crashes(self):
        candidates = np.random.default_rng(0).random((3, 4))
        scores = score_candidates(
            candidates=candidates,
            known=np.empty((0, 4)),
            predicted_performance=np.array([5.0, 5.0, 5.0]),
            predicted_uncertainty=np.full(3, 0.5),
            predicted_crash_probability=np.array([0.05, 0.95, 0.05]),
            maximize=True,
        )
        assert scores[1] < scores[0]
        assert scores[1] < scores[2]

    def test_score_respects_direction(self):
        candidates = np.random.default_rng(0).random((2, 4))
        common = dict(candidates=candidates, known=np.empty((0, 4)),
                      predicted_uncertainty=np.zeros(2),
                      predicted_crash_probability=np.zeros(2))
        maximize = score_candidates(predicted_performance=np.array([1.0, 2.0]),
                                    maximize=True, **common)
        minimize = score_candidates(predicted_performance=np.array([1.0, 2.0]),
                                    maximize=False, **common)
        assert maximize[1] > maximize[0]
        assert minimize[0] > minimize[1]


class TestDeepTuneSearch:
    def run_session(self, small_linux_model, iterations=25, model=None):
        from tests.conftest import make_pool
        from repro.platform.runner import SearchSession

        backend = make_pool(small_linux_model, "nginx", seed=8)
        search = DeepTuneSearch(
            small_linux_model.space, seed=8, favored_kinds=[ParameterKind.RUNTIME],
            warmup_iterations=6, candidate_pool_size=48,
            training_steps_per_iteration=10, model=model)
        session = SearchSession(backend, search)
        return search, session.run(iterations=iterations)

    def test_search_improves_over_default(self, small_linux_model):
        from repro.apps.nginx import NginxApplication

        search, result = self.run_session(small_linux_model, iterations=40)
        default_perf = NginxApplication().performance(
            small_linux_model.space.default_configuration())
        assert result.best_objective > default_perf
        assert search.model.observation_count == 40

    def test_rejects_mismatched_pretrained_model(self, small_linux_model):
        wrong = DeepTuneModel(input_dim=3)
        with pytest.raises(ValueError):
            DeepTuneSearch(small_linux_model.space, model=wrong)

    def test_transfer_flag(self, small_linux_model):
        encoder = ConfigEncoder(small_linux_model.space)
        pretrained = DeepTuneModel(input_dim=encoder.width, seed=1)
        fresh = DeepTuneSearch(small_linux_model.space, model=pretrained)
        assert not fresh.transferred  # no observations yet
        pretrained.add_observation(np.zeros(encoder.width), 1.0, False)
        warmed = DeepTuneSearch(small_linux_model.space, model=pretrained)
        assert warmed.transferred

    def test_transferred_search_refuses_to_checkpoint(self, small_linux_model):
        """Rows a model arrived with are in no trial row, so a resume could
        not rebuild them: such a search has no checkpoint state."""
        encoder = ConfigEncoder(small_linux_model.space)
        pretrained = DeepTuneModel(input_dim=encoder.width, seed=1)
        DeepTuneSearch(small_linux_model.space, model=pretrained).export_state()
        pretrained.add_observation(np.zeros(encoder.width), 1.0, False)
        warmed = DeepTuneSearch(small_linux_model.space, model=pretrained)
        with pytest.raises(ValueError, match="1 observations"):
            warmed.export_state()

    def test_exported_state_holds_only_what_resume_reads(self, small_linux_model):
        """No wall-clock lists, no layer caches, no gradient buffers and no
        buffer slack ride along in the checkpointed state."""
        search, _ = self.run_session(small_linux_model, iterations=12)
        state = search.export_state()
        assert set(state) == {"sampler_rng", "observed", "model",
                              "provenance", "pool_rng"}
        # one worker observes the trials in history order
        assert state["observed"].tolist() == list(range(12))
        # the pool generator's PCG64 state, as builtins
        assert set(state["pool_rng"]) == {"bit_generator", "state",
                                          "has_uint32", "uinteger"}
        assert state["pool_rng"]["bit_generator"] == "PCG64"
        assert _arrays_in(state["pool_rng"]) == []  # builtins only
        model_state = state["model"]
        # no replay row, moment or best configuration: the trial rows
        # give those back
        assert set(model_state) == {"weights", "optimizer", "rbf_optimizer",
                                    "rng"}
        assert set(model_state["weights"]) == set(search.model.state_dict())
        for key in ("optimizer", "rbf_optimizer"):
            assert set(model_state[key]) == {"step", "first_moment",
                                             "second_moment"}
        model = search.model
        assert model.observation_count == 12
        # 4 head outputs, 1 target column, rbf2's input is latent1 + phi1;
        # nothing is as long as the history
        allowed = {model.input_dim, *model.hidden_dims, model.n_centroids,
                   model.hidden_dims[0] + model.n_centroids, 4, 1}
        assert not allowed & {32, 192, 12}  # minibatch, pool, history
        arrays = _arrays_in(model_state)
        assert len(arrays) > 20
        for array in arrays:
            assert array.shape[0] in allowed, array.shape

    def test_pool_rows_encode_like_their_configurations(self, small_linux_model):
        """Each row of the drawn pool's matrix is bit for bit the encoding of
        the configuration the row is materialised as."""
        search, result = self.run_session(small_linux_model, iterations=12)
        codes = search._generate_candidates(result.history)
        matrix = search.encoder.encode_codes(codes)
        reference = ConfigEncoder(small_linux_model.space, cache_size=0)
        assert len(codes) > 40
        for row, vector in zip(codes, matrix):
            configuration = search.encoder.configuration(row)
            assert small_linux_model.space.is_valid(configuration)
            assert not result.history.contains_configuration(configuration)
            assert np.array_equal(vector, reference.encode(configuration))

    def test_batch_of_one_is_the_sequential_proposal(self, small_linux_model):
        """propose_batch(history, 1) picks what propose(history) picks and
        leaves both random streams where propose leaves them."""
        first, result = self.run_session(small_linux_model, iterations=12)
        second, _ = self.run_session(small_linux_model, iterations=12)
        for _ in range(3):
            assert second.propose_batch(result.history, 1) == [first.propose(result.history)]
            assert first.export_state()["pool_rng"] == second.export_state()["pool_rng"]
            assert first.sampler.rng.getstate() == second.sampler.rng.getstate()

    def test_predict_leaves_no_pool_sized_array_in_the_model(self, small_linux_model):
        """predict runs on a whole candidate pool; nothing of that size may
        stay cached in the model and ride into every checkpoint."""
        rng = np.random.default_rng(6)
        width = ConfigEncoder(small_linux_model.space).width
        assert width != 192
        model = DeepTuneModel(input_dim=width, seed=2)
        for _ in range(64):
            crashed = bool(rng.random() < 0.3)
            model.add_observation(rng.normal(size=width),
                                  None if crashed else rng.normal(), crashed)
        model.fit_incremental(steps=5)
        model.predict(rng.normal(size=(192, width)))
        for array in _arrays_in(model.export_state()):
            assert array.shape[:1] != (192,), array.shape

    def test_model_state_round_trips_into_a_fresh_model(self):
        """A fresh model that replays the observed rows and imports a
        trained model's state continues it bit for bit: same replay buffer
        and moments, same training steps, same predictions."""
        X, y, crashed = make_synthetic_dataset(n=40, d=6)
        rows = [(row, None if np.isnan(target) else target, bool(crash))
                for row, target, crash in zip(X, y, crashed)]
        model = DeepTuneModel(input_dim=6, seed=4)
        for row in rows[:30]:
            model.add_observation(*row)
            model.fit_incremental(steps=3)
        clone = DeepTuneModel(input_dim=6, seed=4)
        for row in rows[:30]:
            clone.add_observation(*row)
        clone.import_state(model.export_state())
        assert_stores_equal(replay_store(clone), replay_store(model))
        for trained in (model, clone):
            for row in rows[30:]:
                trained.add_observation(*row)
                trained.fit_incremental(steps=3)
        assert _arrays_equal(model.export_state(), clone.export_state())
        assert_stores_equal(replay_store(clone), replay_store(model))
        assert np.array_equal(model.predict(X).uncertainty,
                              clone.predict(X).uncertainty)

    def test_import_state_restores_unfitted_scalers(self):
        """A snapshot taken before any fit restores unfitted scalers,
        whatever the importing model held; its replay buffer is left to
        the caller."""
        untrained = DeepTuneModel(input_dim=6, seed=4).export_state()
        model = DeepTuneModel(input_dim=6, seed=4)
        X, _, _ = make_synthetic_dataset(n=10, d=6)
        for index, row in enumerate(X):
            model.add_observation(row, float(index), False)
        model.fit_incremental(steps=1)
        assert model.feature_scaler.is_fitted and model.target_scaler.is_fitted
        model.import_state(untrained)
        assert not model.feature_scaler.is_fitted
        assert not model.target_scaler.is_fitted
        assert model.observation_count == 10

    def test_dissimilarity_skips_pretrained_rows(self, small_linux_model,
                                                 monkeypatch):
        """The explored set scored against is this search's own trials, not
        the rows a pre-trained model arrived with."""
        import repro.deeptune.algorithm as deeptune_algorithm

        encoder = ConfigEncoder(small_linux_model.space)
        pretrained = DeepTuneModel(input_dim=encoder.width, seed=1)
        for value in (1.0, 2.0, 3.0):
            pretrained.add_observation(np.full(encoder.width, value), value, False)
        known_rows = []
        original = deeptune_algorithm.score_candidates

        def recording(**kwargs):
            known_rows.append(len(kwargs["known"]))
            return original(**kwargs)

        monkeypatch.setattr(deeptune_algorithm, "score_candidates", recording)
        self.run_session(small_linux_model, iterations=5, model=pretrained)
        # a transferred search scores from its first proposal: trial i sees
        # the i trials observed before it
        assert known_rows == [0, 1, 2, 3, 4]

    def test_single_batched_predict_per_proposal(self, small_linux_model):
        """The scoring-tier audit: each model-guided proposal makes exactly
        one batched ``DeepTuneModel.predict`` call over the candidate pool —
        never per-candidate calls."""
        from repro.platform.history import ExplorationHistory
        from repro.platform.metrics import ThroughputMetric

        search = DeepTuneSearch(
            small_linux_model.space, seed=8,
            favored_kinds=[ParameterKind.RUNTIME], warmup_iterations=1,
            candidate_pool_size=32, training_steps_per_iteration=2)
        history = ExplorationHistory(ThroughputMetric())
        rng = __import__("random").Random(4)
        for index in range(4):
            configuration = small_linux_model.space.sample_configuration(rng)
            from tests.test_platform import make_record

            record = make_record(configuration, index,
                                 objective=100.0 + index,
                                 crashed=index == 2, started=index * 150.0)
            history.add(record)
            search.observe(record)

        calls = []
        original_predict = search.model.predict

        def counting_predict(matrix):
            calls.append(np.asarray(matrix).shape[0])
            return original_predict(matrix)

        search.model.predict = counting_predict
        search.propose(history)
        assert len(calls) == 1
        assert calls[0] >= 32  # the whole pool in one batch
        calls.clear()
        search.propose_batch(history, 4)
        assert len(calls) == 1


class TestTransfer:
    def test_transfer_copies_weights_not_buffer(self):
        source = DeepTuneModel(input_dim=6, seed=3)
        X, y, crashed = make_synthetic_dataset(n=50, d=6)
        for row, target, crash in zip(X, y, crashed):
            source.add_observation(row, None if np.isnan(target) else target, bool(crash))
        source.fit_incremental(steps=20)
        target = transfer_model(source)
        assert target.observation_count == 0
        assert np.allclose(target.dense1.weights, source.dense1.weights)
        assert not target.target_scaler.is_fitted

    def test_state_dict_is_a_snapshot(self):
        model = DeepTuneModel(input_dim=5, seed=9)
        X, y, crashed = make_synthetic_dataset(n=30, d=5)
        for row, target, crash in zip(X, y, crashed):
            model.add_observation(row, None if np.isnan(target) else target, bool(crash))
        model.fit_incremental(steps=5)
        probe = np.random.default_rng(0).random((3, 5))
        before = model.predict(probe)
        state = model.state_dict()
        # training on after the snapshot leaves the snapshot untouched, so
        # loading it back restores the earlier predictions exactly
        model.fit_incremental(steps=5)
        assert not np.array_equal(model.predict(probe).performance,
                                  before.performance)
        model.load_state_dict(state)
        restored = model.predict(probe)
        assert np.array_equal(restored.performance, before.performance)
        assert np.array_equal(restored.crash_probability, before.crash_probability)


class TestImportance:
    def test_variance_reduction_finds_relevant_columns(self):
        rng = np.random.default_rng(0)
        X = rng.random((300, 6))
        y = 10.0 * X[:, 4] + rng.normal(0, 0.2, 300)
        importances = variance_reduction_importance(X, y)
        assert int(np.argmax(importances)) == 4
        assert importances[4] > 0.5
        assert np.all(importances[:4] < 0.3)

    def test_handles_nan_targets_and_constant_columns(self):
        X = np.ones((50, 3))
        y = np.full(50, np.nan)
        assert np.all(variance_reduction_importance(X, y) == 0.0)

    def test_parameter_importance_aggregates_one_hot(self, small_space, rng):
        encoder = ConfigEncoder(small_space)
        configs = [small_space.sample_configuration(rng) for _ in range(200)]
        X = encoder.encode_batch(configs)
        start, _ = encoder.slice_for("net.core.somaxconn")
        y = 100.0 * X[:, start]
        importances = parameter_importance(encoder, X, y)
        assert top_parameters(importances, 1) == ["net.core.somaxconn"]

    def test_importance_vector_ordering(self):
        vector = importance_vector({"a": 1.0, "b": 0.5}, ["b", "a", "c"])
        assert vector.tolist() == [0.5, 1.0, 0.0]

    def test_model_permutation_importance(self):
        model = DeepTuneModel(input_dim=6, seed=3, learning_rate=5e-3)
        rng = np.random.default_rng(1)
        X = rng.random((150, 6))
        y = 50.0 * X[:, 1]
        for row, target in zip(X, y):
            model.add_observation(row, float(target), False)
        for _ in range(8):
            model.fit_incremental(steps=30)
        importances = model_permutation_importance(model, X[:50], repeats=2)
        assert int(np.argmax(importances)) == 1


def _arrays_in(value):
    """Every NumPy array inside nested dicts and lists; fails on objects."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        return [a for item in value.values() for a in _arrays_in(item)]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays_in(item)]
    assert value is None or isinstance(value, (bool, int, float, str)), type(value)
    return []


def _arrays_equal(first, second):
    """Structural equality of two exported states, arrays bit for bit."""
    if isinstance(first, np.ndarray):
        return first.tobytes() == second.tobytes() and first.shape == second.shape
    if isinstance(first, dict):
        return (set(first) == set(second)
                and all(_arrays_equal(first[k], second[k]) for k in first))
    if isinstance(first, (list, tuple)):
        return (len(first) == len(second)
                and all(_arrays_equal(a, b) for a, b in zip(first, second)))
    return first == second
