"""Equivalence and cache-correctness tests for the vectorized encoding plan.

The compiled columnar fast path behind ``ConfigEncoder.encode_batch`` must be
*bit-identical* to the naive per-parameter path (``encode_per_parameter``)
on every application space shipped with the reproduction, and the LRU vector
cache must be invisible: cached vectors are copies, eviction never changes
results, and a seeded end-to-end DeepTune search selects the same
configuration sequence with the cache on or off.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config.encoding import ConfigEncoder
from repro.config.parameter import (
    BoolParameter,
    CategoricalParameter,
    IntParameter,
    ParameterKind,
    TristateParameter,
)
from repro.config.space import ConfigSpace, Configuration
from repro.vm.os_model import linux_os_model, unikraft_os_model


#: application -> the OS model whose space that application is tuned on.
#: nginx/redis/sqlite/npb share the Linux space; unikraft-nginx has its own.
APP_SPACES = {
    "nginx": "linux",
    "redis": "linux",
    "sqlite": "linux",
    "npb": "linux",
    "unikraft-nginx": "unikraft",
}


@pytest.fixture(scope="module")
def os_spaces():
    return {
        "linux": linux_os_model(version="v4.19", seed=3).space,
        "unikraft": unikraft_os_model(seed=3).space,
    }


def reference_matrix(encoder, configurations):
    return np.vstack([encoder.encode_per_parameter(c) for c in configurations]) \
        if configurations else np.empty((0, encoder.width))


class TestBatchEquivalence:
    @pytest.mark.parametrize("application", sorted(APP_SPACES))
    def test_encode_batch_bit_identical_per_app_space(self, application, os_spaces):
        space = os_spaces[APP_SPACES[application]]
        encoder = ConfigEncoder(space)
        rng = random.Random(hash(application) % (2 ** 31))
        configurations = [space.sample_configuration(rng) for _ in range(24)]
        configurations.append(space.default_configuration())
        expected = reference_matrix(encoder, configurations)
        actual = encoder.encode_batch(configurations)
        # Element-for-element, not approximately: the fast path must be a
        # drop-in replacement on the scoring hot path.
        assert np.array_equal(expected, actual)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_property_style_random_spaces(self, seed):
        """Randomly composed spaces of every parameter type encode identically."""
        rng = random.Random(seed)
        parameters = []
        for index in range(rng.randint(5, 40)):
            kind = rng.choice(list(ParameterKind))
            style = rng.randrange(4)
            name = "p{:03d}".format(index)
            if style == 0:
                parameters.append(BoolParameter(name, kind, default=rng.random() < 0.5))
            elif style == 1:
                parameters.append(TristateParameter(name, kind,
                                                    default=rng.choice(["n", "y", "m"])))
            elif style == 2:
                choices = ["c{}".format(i) for i in range(rng.randint(2, 6))]
                parameters.append(CategoricalParameter(name, kind, choices))
            else:
                low = rng.randint(0, 50)
                high = low + rng.randint(1, 10 ** rng.randint(1, 6))
                parameters.append(IntParameter(name, kind, default=low,
                                               minimum=low, maximum=high,
                                               log_scale=rng.random() < 0.5))
        space = ConfigSpace(parameters, name="random-space-{}".format(seed))
        encoder = ConfigEncoder(space)
        configurations = [space.sample_configuration(rng) for _ in range(16)]
        assert np.array_equal(reference_matrix(encoder, configurations),
                              encoder.encode_batch(configurations))

    def test_single_encode_matches_reference(self, os_spaces):
        space = os_spaces["unikraft"]
        encoder = ConfigEncoder(space)
        rng = random.Random(7)
        for _ in range(10):
            configuration = space.sample_configuration(rng)
            assert np.array_equal(encoder.encode(configuration),
                                  encoder.encode_per_parameter(configuration))

    def test_custom_parameter_subclass_uses_fallback(self):
        class HalfParameter(IntParameter):
            """Overrides encode: the compiled plan must not assume base-class math."""

            def encode(self, value):
                return [self.clip(value) / (2.0 * self.maximum)]

        space = ConfigSpace([
            HalfParameter("custom", ParameterKind.RUNTIME, default=2,
                          minimum=0, maximum=10),
            BoolParameter("flag", ParameterKind.RUNTIME),
        ])
        encoder = ConfigEncoder(space)
        configuration = space.coerce({"custom": 6, "flag": True})
        vector = encoder.encode_batch([configuration])[0]
        assert vector[0] == 6 / 20.0
        assert np.array_equal(vector, encoder.encode_per_parameter(configuration))

    def test_tristate_subclass_with_custom_states(self):
        class SwitchParameter(TristateParameter):
            """Inherits encode but redefines the state alphabet."""

            STATES = ("off", "on", "auto")

        space = ConfigSpace([
            SwitchParameter("mode", ParameterKind.RUNTIME, default="off"),
            BoolParameter("flag", ParameterKind.RUNTIME),
        ])
        encoder = ConfigEncoder(space)
        configuration = space.coerce({"mode": "auto", "flag": False})
        vector = encoder.encode_batch([configuration])[0]
        assert np.array_equal(vector, encoder.encode_per_parameter(configuration))
        assert vector[:3].tolist() == [0.0, 0.0, 1.0]

    def test_decode_roundtrip(self, os_spaces):
        """decode(encode(x)) is idempotent and exact for finite-domain params."""
        for space in os_spaces.values():
            encoder = ConfigEncoder(space)
            rng = random.Random(11)
            for _ in range(5):
                configuration = space.sample_configuration(rng)
                decoded = encoder.decode(encoder.encode(configuration))
                for parameter in space.parameters():
                    if parameter.is_categorical:
                        assert decoded[parameter.name] == configuration[parameter.name]
                # Lossy numeric encodings stabilise after one round trip.
                twice = encoder.decode(encoder.encode(decoded))
                assert twice == decoded


class TestVectorCache:
    def make_space(self):
        return ConfigSpace([
            BoolParameter("a", ParameterKind.RUNTIME),
            IntParameter("b", ParameterKind.RUNTIME, default=5, minimum=0,
                         maximum=100, log_scale=True),
            CategoricalParameter("c", ParameterKind.RUNTIME, ["x", "y", "z"]),
        ])

    def test_cached_vectors_are_copies(self):
        space = self.make_space()
        encoder = ConfigEncoder(space)
        configuration = space.default_configuration()
        first = encoder.encode(configuration)
        first[:] = 777.0  # mutate the returned vector
        second = encoder.encode(configuration)
        assert np.array_equal(second, encoder.encode_per_parameter(configuration))
        assert not np.array_equal(first, second)

    def test_batch_rows_are_copies(self):
        space = self.make_space()
        encoder = ConfigEncoder(space)
        configurations = [space.default_configuration()]
        matrix = encoder.encode_batch(configurations)
        matrix[:] = -123.0
        clean = encoder.encode_batch(configurations)
        assert np.array_equal(clean[0], encoder.encode_per_parameter(configurations[0]))

    def test_cache_hit_accounting_and_eviction(self):
        space = self.make_space()
        encoder = ConfigEncoder(space, cache_size=4)
        rng = random.Random(0)
        configurations = [space.sample_configuration(rng) for _ in range(10)]
        encoder.encode_batch(configurations)
        assert encoder.cache_len <= 4
        # Results stay correct under eviction pressure.
        assert np.array_equal(encoder.encode_batch(configurations),
                              reference_matrix(encoder, configurations))
        encoder.clear_cache()
        assert encoder.cache_len == 0

    def test_cache_disabled(self):
        space = self.make_space()
        encoder = ConfigEncoder(space, cache_size=0)
        configuration = space.default_configuration()
        encoder.encode(configuration)
        encoder.encode(configuration)
        assert encoder.cache_len == 0
        assert encoder.cache_hits == 0

    def test_duplicate_configurations_encoded_once(self):
        space = self.make_space()
        encoder = ConfigEncoder(space)
        configuration = space.default_configuration()
        same = Configuration(space, configuration.as_dict())
        matrix = encoder.encode_batch([configuration, same, configuration])
        assert encoder.cache_misses == 1
        assert np.array_equal(matrix[0], matrix[1])
        assert np.array_equal(matrix[0], matrix[2])


class TestSeededSearchUnchanged:
    def run_sequence(self, cache_size, trials=50):
        """A seeded 50-trial DeepTune session; returns the proposed configs."""
        from repro.deeptune.algorithm import DeepTuneSearch
        from repro.platform.history import ExplorationHistory, TrialRecord
        from repro.platform.metrics import ThroughputMetric
        from repro.vm.failures import FailureStage

        parameters = [
            IntParameter("k{:02d}".format(index), ParameterKind.RUNTIME,
                         default=32, minimum=0, maximum=1024,
                         log_scale=index % 2 == 0)
            for index in range(12)
        ]
        space = ConfigSpace(parameters, name="seeded-repro")
        search = DeepTuneSearch(space, seed=21, warmup_iterations=5,
                                candidate_pool_size=32,
                                training_steps_per_iteration=5, batch_size=16)
        search.encoder = ConfigEncoder(space, cache_size=cache_size)
        history = ExplorationHistory(ThroughputMetric())
        chosen = []
        clock = 0.0
        for index in range(trials):
            configuration = search.propose(history)
            chosen.append(configuration)
            objective = float(sum(configuration["k{:02d}".format(i)]
                                  for i in range(4)))
            record = TrialRecord(
                index=index, configuration=configuration, objective=objective,
                crashed=index % 9 == 4,
                failure_stage=FailureStage.NONE, failure_reason="",
                metric_value=None, memory_mb=None, duration_s=60.0,
                started_at_s=clock)
            clock += 60.0
            history.add(record)
            search.observe(record)
        return chosen

    def test_cache_does_not_change_selected_configurations(self):
        with_cache = self.run_sequence(cache_size=ConfigEncoder.DEFAULT_CACHE_SIZE)
        without_cache = self.run_sequence(cache_size=0)
        assert with_cache == without_cache

    def test_seeded_run_is_deterministic(self):
        first = self.run_sequence(cache_size=ConfigEncoder.DEFAULT_CACHE_SIZE)
        second = self.run_sequence(cache_size=ConfigEncoder.DEFAULT_CACHE_SIZE)
        assert first == second
