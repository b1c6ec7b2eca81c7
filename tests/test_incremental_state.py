"""Tests for the incrementally maintained search-loop state.

Covers the O(1) ``ExplorationHistory`` indexes (membership hash set, cached
best record, crash counters, amortized training buffers) and the Welford
running-moment scalers behind the DeepTune replay buffer.  Each incremental
structure is checked against a brute-force recomputation from first
principles.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config.encoding import ConfigEncoder
from repro.config.parameter import BoolParameter, IntParameter, ParameterKind
from repro.config.space import ConfigSpace
from repro.deeptune.model import DeepTuneModel
from repro.nn.normalize import RunningMoments, StandardScaler
from repro.platform.history import ExplorationHistory, TrialRecord
from repro.platform.metrics import LatencyMetric, ThroughputMetric
from repro.vm.failures import FailureStage


def make_space():
    return ConfigSpace([
        BoolParameter("flag", ParameterKind.RUNTIME),
        IntParameter("level", ParameterKind.RUNTIME, default=5, minimum=0, maximum=50),
    ], name="incremental-state")


def make_record(index, configuration, objective, crashed, clock):
    return TrialRecord(
        index=index, configuration=configuration,
        objective=None if crashed else objective, crashed=crashed,
        failure_stage=FailureStage.BOOT if crashed else FailureStage.NONE,
        failure_reason="panic" if crashed else "",
        metric_value=None, memory_mb=None, duration_s=60.0, started_at_s=clock)


def brute_force_best(records, metric):
    best = None
    for record in records:
        if record.crashed or record.objective is None:
            continue
        if best is None or metric.is_improvement(record.objective, best.objective):
            best = record
    return best


class TestHistoryIncrementalIndexes:
    @pytest.mark.parametrize("metric", [ThroughputMetric(), LatencyMetric()])
    def test_membership_and_best_agree_with_brute_force(self, metric):
        space = make_space()
        rng = random.Random(99)
        history = ExplorationHistory(metric)
        records = []
        probes = [space.sample_configuration(rng) for _ in range(20)]
        clock = 0.0
        for index in range(120):
            configuration = space.sample_configuration(rng)
            crashed = rng.random() < 0.3
            record = make_record(index, configuration,
                                 objective=rng.uniform(1.0, 100.0),
                                 crashed=crashed, clock=clock)
            clock += 60.0
            history.add(record)
            records.append(record)

            # Membership: incremental hash set vs a linear scan.
            for probe in probes + [configuration]:
                expected = any(r.configuration == probe for r in records)
                assert history.contains_configuration(probe) == expected
            # Best record: cached incumbent vs full recomputation.
            expected_best = brute_force_best(records, metric)
            actual_best = history.best_record()
            if expected_best is None:
                assert actual_best is None
            else:
                assert actual_best is expected_best
            # Crash statistics.
            expected_rate = sum(1 for r in records if r.crashed) / len(records)
            assert history.crash_rate() == pytest.approx(expected_rate)

    def test_training_arrays_match_per_record_recomputation(self):
        space = make_space()
        rng = random.Random(5)
        history = ExplorationHistory(ThroughputMetric())
        encoder = ConfigEncoder(space)
        clock = 0.0
        for index in range(100):
            crashed = index % 7 == 3
            record = make_record(index, space.sample_configuration(rng),
                                 objective=float(index), crashed=crashed, clock=clock)
            clock += 60.0
            history.add(record)
        matrix, objectives, crashed = history.training_arrays(encoder)
        assert matrix.shape == (100, encoder.width)
        for row, record in enumerate(history):
            assert np.array_equal(matrix[row],
                                  encoder.encode_per_parameter(record.configuration))
            if record.crashed:
                assert np.isnan(objectives[row])
                assert crashed[row]
            else:
                assert objectives[row] == record.objective
                assert not crashed[row]
        # Returned buffers are read-only zero-copy views: mutation raises
        # instead of corrupting (or silently copying) history state.
        with pytest.raises(ValueError):
            objectives[:] = -1.0
        with pytest.raises(ValueError):
            crashed[:] = True
        # the views stay valid and correct across later appends (growth
        # reallocates the buffers rather than mutating them in place)
        history.add(make_record(100, space.sample_configuration(rng),
                                objective=1.0, crashed=False, clock=clock))
        _, objectives2, crashed2 = history.training_arrays(encoder)
        assert len(objectives2) == len(objectives) + 1
        assert np.array_equal(objectives2[:100], objectives, equal_nan=True)
        assert crashed2.sum() == sum(1 for r in history if r.crashed)

    def test_membership_honours_eq_across_value_representations(self):
        """True and 1 compare equal; the hash index must agree with == (the
        pre-fast-path linear scan matched them, so must the hash set)."""
        space = make_space()
        history = ExplorationHistory(ThroughputMetric())
        from repro.config.space import Configuration
        as_bool = Configuration(space, {"flag": True, "level": 5})
        as_int = Configuration(space, {"flag": 1, "level": 5})
        assert as_bool == as_int and hash(as_bool) == hash(as_int)
        history.add(make_record(0, as_bool, objective=1.0, crashed=False, clock=0.0))
        assert history.contains_configuration(as_int)

    def test_best_record_ignores_successful_record_without_objective(self):
        space = make_space()
        history = ExplorationHistory(ThroughputMetric())
        record = TrialRecord(
            index=0, configuration=space.default_configuration(), objective=None,
            crashed=False, failure_stage=FailureStage.NONE, failure_reason="",
            metric_value=None, memory_mb=None, duration_s=1.0, started_at_s=0.0)
        history.add(record)
        assert history.best_record() is None


class TestWelfordScaler:
    def test_running_moments_match_batch_after_500_updates(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5.0, 3.0, size=(500, 7)) * rng.random(7)
        moments = RunningMoments()
        for row in data:
            moments.update(row)
        assert moments.count == 500
        np.testing.assert_allclose(moments.mean, data.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(np.sqrt(moments.variance()), data.std(axis=0),
                                   atol=1e-10)

    def test_partial_fit_matches_full_fit_to_1e10(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0.0, 1.0, size=(500, 5))
        data[:, 2] = 4.2  # constant column exercises the unit-scale clamp
        moments = RunningMoments()
        for row in data:
            moments.update(row)
        incremental = StandardScaler().fit_from_moments(moments)
        batch = StandardScaler().fit(data)
        np.testing.assert_allclose(incremental.mean_, batch.mean_, atol=1e-10)
        np.testing.assert_allclose(incremental.std_, batch.std_, atol=1e-10)
        probe = rng.normal(size=(4, 5))
        np.testing.assert_allclose(incremental.transform(probe),
                                   batch.transform(probe), atol=1e-10)

    def test_model_scalers_match_from_scratch_fit(self):
        model = DeepTuneModel(input_dim=6, seed=2)
        rng = np.random.default_rng(3)
        X = rng.random((200, 6)) * 40.0
        targets = rng.normal(50.0, 10.0, 200)
        crashed = rng.random(200) < 0.25
        for row, target, crash in zip(X, targets, crashed):
            model.add_observation(row, None if crash else float(target), bool(crash))
        model.fit_incremental(steps=1, batch_size=8)
        np.testing.assert_allclose(model.feature_scaler.mean_, X.mean(axis=0),
                                   atol=1e-10)
        expected_std = X.std(axis=0)
        expected_std[expected_std < 1e-12] = 1.0
        np.testing.assert_allclose(model.feature_scaler.std_, expected_std,
                                   atol=1e-10)
        finite = targets[~crashed]
        np.testing.assert_allclose(model.target_scaler.mean_,
                                   [finite.mean()], atol=1e-10)

    def test_replay_buffer_grows_past_initial_capacity(self):
        model = DeepTuneModel(input_dim=3, seed=0)
        rng = np.random.default_rng(4)
        rows = rng.random((300, 3))
        for index, row in enumerate(rows):
            model.add_observation(row, float(index), False)
        assert model.observation_count == 300
        np.testing.assert_array_equal(model._feature_buffer[:300], rows)
        np.testing.assert_array_equal(model._target_buffer[:300],
                                      np.arange(300.0))
