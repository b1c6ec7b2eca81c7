"""Property-based tests (hypothesis) on the core data structures and invariants."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import normalized_mae
from repro.config.constraints import (
    DependsOn,
    ForbiddenCombination,
    RangeConstraint,
    RequiresValue,
)
from repro.config.encoding import ConfigEncoder
from repro.config.jobfile import dump_yaml, load_yaml
from repro.config.parameter import (
    BoolParameter,
    CategoricalParameter,
    IntParameter,
    ParameterKind,
    TristateParameter,
)
from repro.config.space import ConfigSpace
from repro.deeptune.scoring import dissimilarity
from repro.nn.losses import chamfer_distance, softmax_cross_entropy
from repro.nn.normalize import StandardScaler
from repro.platform.metrics import CompositeScoreMetric
from repro.sysctl.procfs import ProcFS


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def int_parameters():
    return st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=10_000_000),
        st.booleans(),
    ).map(lambda t: IntParameter(
        "int_param", ParameterKind.RUNTIME,
        default=t[0] if t[0] <= t[0] + t[1] else t[0],
        minimum=min(t[0], t[0] + t[1]),
        maximum=max(t[0], t[0] + t[1]),
        log_scale=t[2],
    ))


def small_spaces(seed=0):
    parameters = [
        BoolParameter("b0", ParameterKind.COMPILE_TIME, default=True),
        BoolParameter("b1", ParameterKind.RUNTIME, default=False),
        TristateParameter("t0", ParameterKind.COMPILE_TIME, default="m"),
        IntParameter("i0", ParameterKind.RUNTIME, default=100, minimum=1, maximum=100000,
                     log_scale=True),
        IntParameter("i1", ParameterKind.BOOT_TIME, default=4, minimum=0, maximum=16),
        CategoricalParameter("c0", ParameterKind.RUNTIME, choices=("a", "b", "c")),
    ]
    return ConfigSpace(parameters, name="property-space")


PROPERTY_SPACE = small_spaces()
PROPERTY_ENCODER = ConfigEncoder(PROPERTY_SPACE)


# ---------------------------------------------------------------------------
# Parameter properties
# ---------------------------------------------------------------------------

@given(value=st.integers(min_value=-10 ** 12, max_value=10 ** 12), param=int_parameters())
def test_int_clip_always_valid(value, param):
    assert param.validate(param.clip(value))


@given(param=int_parameters(), seed=st.integers(min_value=0, max_value=10 ** 6))
def test_int_sample_within_bounds(param, seed):
    value = param.sample(random.Random(seed))
    assert param.minimum <= value <= param.maximum


@given(param=int_parameters(), value=st.integers(min_value=0, max_value=10 ** 9))
def test_int_encode_bounded_and_decode_valid(param, value):
    encoded = param.encode(param.clip(value))
    assert 0.0 <= encoded[0] <= 1.0
    assert param.validate(param.decode(encoded))


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_sampled_configurations_encode_decode_categoricals(seed):
    config = PROPERTY_SPACE.sample_configuration(random.Random(seed))
    decoded = PROPERTY_ENCODER.decode(PROPERTY_ENCODER.encode(config))
    for parameter in PROPERTY_SPACE.parameters():
        if parameter.is_categorical:
            assert decoded[parameter.name] == config[parameter.name]


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       rate=st.floats(min_value=0.0, max_value=1.0))
def test_mutation_produces_valid_values(seed, rate):
    rng = random.Random(seed)
    config = PROPERTY_SPACE.default_configuration()
    mutated = PROPERTY_SPACE.mutate_configuration(config, rng, mutation_rate=rate)
    for parameter in PROPERTY_SPACE.parameters():
        assert parameter.validate(parameter.clip(mutated[parameter.name]))


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_encoding_width_is_stable(seed):
    config = PROPERTY_SPACE.sample_configuration(random.Random(seed))
    assert PROPERTY_ENCODER.encode(config).shape == (PROPERTY_ENCODER.width,)


# ---------------------------------------------------------------------------
# Scoring / numeric properties
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10 ** 6))
def test_dissimilarity_in_unit_interval(n_candidates, n_known, seed):
    rng = np.random.default_rng(seed)
    candidates = rng.normal(size=(n_candidates, 5))
    known = rng.normal(size=(n_known, 5))
    values = dissimilarity(candidates, known)
    assert np.all(values >= 0.0) and np.all(values < 1.0)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_dissimilarity_zero_for_member_of_history(seed):
    rng = np.random.default_rng(seed)
    known = rng.normal(size=(4, 6))
    assert dissimilarity(known[:1], known)[0] == pytest.approx(0.0, abs=1e-12)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10 ** 6))
def test_softmax_cross_entropy_nonnegative(n, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, 2)) * 3
    labels = rng.integers(0, 2, size=n)
    loss, grad = softmax_cross_entropy(logits, labels)
    assert loss >= 0.0
    assert grad.shape == logits.shape


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=10 ** 6))
def test_chamfer_nonnegative_and_symmetric_under_identity(k, n, seed):
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(k, 3))
    points = rng.normal(size=(n, 3))
    loss, grad = chamfer_distance(centroids, points)
    assert loss >= 0.0
    assert grad.shape == centroids.shape


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=50))
def test_standard_scaler_inverse_roundtrip(values):
    data = np.array(values).reshape(-1, 1)
    scaler = StandardScaler()
    transformed = scaler.fit_transform(data)
    assert np.allclose(scaler.inverse_transform(transformed), data, atol=1e-6 * (1 + np.abs(data).max()))


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=2, max_size=30),
       st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=2, max_size=30))
def test_normalized_mae_nonnegative(predicted, actual):
    n = min(len(predicted), len(actual))
    assert normalized_mae(predicted[:n], actual[:n]) >= 0.0


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
                          st.floats(min_value=1.0, max_value=1e4, allow_nan=False)),
                min_size=1, max_size=40))
def test_composite_score_bounded(pairs):
    metric = CompositeScoreMetric()
    for throughput, memory in pairs:
        score = metric.score(throughput, memory)
        assert -1.0 <= score <= 1.0


# ---------------------------------------------------------------------------
# ProcFS properties
# ---------------------------------------------------------------------------

@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=60),
                          st.integers(min_value=-10 ** 7, max_value=10 ** 9)),
                min_size=1, max_size=25))
def test_procfs_writes_never_corrupt_state(writes):
    procfs = ProcFS(extra_generic=0)
    paths = procfs.list_writable()
    for path_index, value in writes:
        if procfs.crashed:
            break
        path = paths[path_index % len(paths)]
        entry = procfs.entry(path)
        accepted = procfs.write(path, value)
        if accepted and not entry.is_categorical:
            stored = int(procfs.read(path))
            assert entry.minimum is None or stored >= entry.minimum
            assert entry.maximum is None or stored <= entry.maximum


# ---------------------------------------------------------------------------
# YAML-subset properties
# ---------------------------------------------------------------------------

#: mapping keys are identifiers, as in job and campaign files (spec field
#: and parameter names); the writer does not quote keys.
YAML_KEYS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,11}", fullmatch=True)
YAML_SCALARS = (st.text() | st.integers() | st.booleans() | st.none()
                | st.floats(allow_nan=False))
YAML_TREES = st.recursive(
    YAML_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(YAML_KEYS, children, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(YAML_KEYS, YAML_TREES, max_size=5)
       | st.lists(YAML_TREES, max_size=5))
@example({"A": [": "]})  # a quoted list item holding ": " is a string
def test_yaml_round_trip(document):
    assert load_yaml(dump_yaml(document)) == document


# ---------------------------------------------------------------------------
# Constraint column masks
# ---------------------------------------------------------------------------

#: the values a configuration column may hold: bools, tristates, strings,
#: ints (0 and 1 alias False and True) and floats
CELL_VALUES = st.one_of(st.booleans(), st.sampled_from(["n", "y", "m", "x"]),
                        st.integers(min_value=-3, max_value=12),
                        st.floats(min_value=-2.0, max_value=12.0))
CONSTRAINTS = st.one_of(
    st.tuples(st.sampled_from("abc"), st.sampled_from("abc")).map(
        lambda pair: DependsOn(*pair)),
    st.tuples(st.sampled_from("abc"), st.sampled_from("abc"),
              st.lists(CELL_VALUES, min_size=1, max_size=3)).map(
        lambda t: RequiresValue(*t)),
    st.tuples(st.sampled_from("abc"), st.integers(min_value=-2, max_value=5),
              st.integers(min_value=0, max_value=6)).map(
        lambda t: RangeConstraint(t[0], min(t[1], t[2]), max(t[1], t[2]))),
    st.dictionaries(st.sampled_from("abc"), CELL_VALUES, min_size=1).map(
        ForbiddenCombination),
)


@given(constraint=CONSTRAINTS, rows=st.lists(
    st.fixed_dictionaries({name: CELL_VALUES for name in "abc"}),
    min_size=1, max_size=12))
def test_constraint_mask_equals_per_row_check(constraint, rows):
    # only the columns the constraint reads, as the candidate pool passes them
    columns = {}
    for name in set(constraint.parameter_names()):
        columns[name] = np.empty(len(rows), dtype=object)
        for index, row in enumerate(rows):
            columns[name][index] = row[name]
    mask = constraint.violation_mask(columns, len(rows))
    assert mask.dtype == bool
    assert mask.tolist() == [constraint.check(row) is not None for row in rows]
