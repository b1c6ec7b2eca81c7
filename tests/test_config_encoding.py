"""Unit tests for the configuration encoder."""

import numpy as np
import pytest

from repro.config.encoding import ConfigEncoder
from repro.deeptune.scoring import dissimilarity


@pytest.fixture
def encoder(small_space):
    return ConfigEncoder(small_space)


class TestGeometry:
    def test_width_is_sum_of_parameter_widths(self, encoder, small_space):
        assert encoder.width == sum(p.encoding_width for p in small_space.parameters())

    def test_slices_are_contiguous_and_cover_width(self, encoder, small_space):
        offset = 0
        for parameter in small_space.parameters():
            start, stop = encoder.slice_for(parameter.name)
            assert start == offset
            assert stop - start == parameter.encoding_width
            offset = stop
        assert offset == encoder.width

    def test_parameter_for_column(self, encoder, small_space):
        name = small_space.parameter_names()[0]
        start, _ = encoder.slice_for(name)
        assert encoder.parameter_for_column(start).name == name
        with pytest.raises(IndexError):
            encoder.parameter_for_column(encoder.width)

    def test_column_labels_cover_width(self, encoder):
        assert len(encoder.column_labels()) == encoder.width


class TestEncodeDecode:
    def test_encode_default_within_unit_range(self, encoder, default_configuration):
        vector = encoder.encode(default_configuration)
        assert vector.shape == (encoder.width,)
        assert np.all(vector >= 0.0) and np.all(vector <= 1.0)

    def test_encode_batch_shape(self, encoder, small_space, rng):
        configs = [small_space.sample_configuration(rng) for _ in range(5)]
        matrix = encoder.encode_batch(configs)
        assert matrix.shape == (5, encoder.width)

    def test_encode_empty_batch(self, encoder):
        assert encoder.encode_batch([]).shape == (0, encoder.width)

    def test_decode_roundtrips_categoricals_and_bools(self, encoder, small_space, rng):
        config = small_space.sample_configuration(rng)
        decoded = encoder.decode(encoder.encode(config))
        for parameter in small_space.parameters():
            if parameter.is_categorical:
                assert decoded[parameter.name] == config[parameter.name]

    def test_decode_wrong_shape_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.decode(np.zeros(encoder.width + 1))


class TestDissimilarity:
    def test_unknown_history_gives_max_dissimilarity(self, encoder, default_configuration):
        vector = encoder.encode(default_configuration)
        assert dissimilarity(vector, np.empty((0, encoder.width)))[0] == 1.0

    def test_identical_point_gives_zero(self, encoder, default_configuration):
        vector = encoder.encode(default_configuration)
        assert dissimilarity(vector, vector.reshape(1, -1))[0] == pytest.approx(0.0)

    def test_dissimilarity_increases_with_distance(self, encoder, small_space, rng):
        default = small_space.default_configuration()
        near = small_space.mutate_configuration(default, rng, mutation_rate=0.02)
        far = small_space.sample_configuration(rng)
        base = encoder.encode(default).reshape(1, -1)
        assert dissimilarity(encoder.encode(near), base)[0] <= \
            dissimilarity(encoder.encode(far), base)[0] + 1e-9
