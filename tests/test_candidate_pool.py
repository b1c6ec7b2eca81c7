"""DeepTune's candidate pool drawn as code columns.

Each compiled writer's ``draw`` must have the distribution of its
parameter's ``Parameter.sample``; a drawn pool must follow the sampler's
rules (frozen values, favoured kinds, mutation of the best configurations,
constraint repair, no repeats of the history); and every pool row must
encode exactly like the configuration it stands for.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from repro.config.constraints import DependsOn
from repro.config.encoding import ConfigEncoder
from repro.config.parameter import (
    BoolParameter,
    CategoricalParameter,
    HexParameter,
    IntParameter,
    ParameterKind,
    StringParameter,
    TristateParameter,
)
from repro.config.space import ConfigSpace
from repro.deeptune.pool import PoolSampler
from repro.platform.history import ExplorationHistory
from repro.platform.metrics import ThroughputMetric
from repro.search.base import ConfigurationSampler

from tests.test_platform import make_record

RUNTIME = ParameterKind.RUNTIME
DRAWS = 20_000


def _drawn_values(parameter, seed=0, n=DRAWS):
    encoder = ConfigEncoder(ConfigSpace([parameter]))
    codes = encoder.draw_codes(0, np.random.default_rng(seed), n)
    return encoder.column_values(0, codes).tolist()


def _sampled_values(parameter, seed=0, n=DRAWS):
    rng = random.Random(seed)
    return [parameter.sample(rng) for _ in range(n)]


def _assert_same_rate(first, second, n, label):
    """Two counts out of *n* agree within 5 two-sample binomial standard
    errors."""
    pooled = (first + second) / (2.0 * n)
    tolerance = 5.0 * math.sqrt(2.0 * pooled * (1.0 - pooled) / n) + 1e-12
    assert abs(first - second) / n <= tolerance, (label, first, second)


def _assert_same_frequencies(drawn, sampled, key=lambda value: value):
    """Every outcome's two frequencies agree within 5 two-sample binomial
    standard errors."""
    first, second = Counter(map(key, drawn)), Counter(map(key, sampled))
    for outcome in set(first) | set(second):
        _assert_same_rate(first[outcome], second[outcome], len(drawn), outcome)


PARAMETERS = {
    "bool": BoolParameter("flag", RUNTIME),
    "tristate": TristateParameter("module", RUNTIME, default="m"),
    "categorical": CategoricalParameter("qdisc", RUNTIME, ["fq", "pfifo", "codel", "red"]),
    "string": StringParameter("cmdline", RUNTIME, ["", "quiet", "debug"]),
    "int": IntParameter("backlog", RUNTIME, default=5, minimum=3, maximum=40),
    "log-int": IntParameter("buffer", RUNTIME, default=64, minimum=0, maximum=300,
                            log_scale=True),
    "log-hex": HexParameter("mask", RUNTIME, default=1, minimum=1, maximum=0xff,
                            log_scale=True),
    "hex": HexParameter("address", RUNTIME, default=0, minimum=0, maximum=0xf),
}


class TestDraws:
    @pytest.mark.parametrize("name", sorted(PARAMETERS))
    def test_draw_matches_sample(self, name):
        parameter = PARAMETERS[name]
        drawn, sampled = _drawn_values(parameter), _sampled_values(parameter)
        assert set(drawn) == set(sampled)
        assert {type(value) for value in drawn} == {type(value) for value in sampled}
        _assert_same_frequencies(drawn, sampled)

    def test_wide_int_range_matches_sample_by_decile(self):
        for log_scale in (False, True):
            parameter = IntParameter("span", RUNTIME, default=10, minimum=10,
                                     maximum=10 ** 7, log_scale=log_scale)
            drawn, sampled = _drawn_values(parameter), _sampled_values(parameter)
            assert min(drawn) >= 10 and max(drawn) <= 10 ** 7
            edges = np.quantile(sampled, np.linspace(0.1, 0.9, 9))
            _assert_same_frequencies(
                drawn, sampled, key=lambda value: int(np.searchsorted(edges, value)))

    @pytest.mark.parametrize("log_scale", [False, True])
    def test_single_value_range(self, log_scale):
        parameter = IntParameter("pinned", RUNTIME, default=7, minimum=7, maximum=7,
                                 log_scale=log_scale)
        assert set(_drawn_values(parameter, n=50)) == set(_sampled_values(parameter)) == {7}

    def test_overridden_sample_draws_through_it(self):
        class EvenParameter(IntParameter):
            def sample(self, rng):
                return 2 * rng.randint(0, 5)

        parameter = EvenParameter("even", RUNTIME, default=0, minimum=0, maximum=10)
        drawn, sampled = _drawn_values(parameter), _sampled_values(parameter)
        assert set(drawn) == set(sampled) == {0, 2, 4, 6, 8, 10}
        _assert_same_frequencies(drawn, sampled)

    def test_fallback_writer_draws_and_encodes_through_the_parameter(self):
        class HalfParameter(IntParameter):
            """Overrides encode, so the plan keeps a per-value writer."""

            def encode(self, value):
                return [self.clip(value) / (2.0 * self.maximum)]

        space = ConfigSpace([HalfParameter("half", RUNTIME, default=2, minimum=0,
                                           maximum=10),
                             BoolParameter("flag", RUNTIME)])
        encoder = ConfigEncoder(space)
        generator = np.random.default_rng(3)
        codes = np.column_stack([encoder.draw_codes(column, generator, 400)
                                 for column in range(2)])
        rows = [encoder.configuration(row) for row in codes]
        assert {row["half"] for row in rows} == set(range(11))
        assert np.array_equal(encoder.encode_codes(codes),
                              np.vstack([encoder.encode_per_parameter(row) for row in rows]))
        assert np.array_equal(encoder.code_rows(rows), codes)


def _pool_space():
    space = ConfigSpace([
        BoolParameter("net", ParameterKind.COMPILE_TIME, default=True),
        BoolParameter("inet", ParameterKind.COMPILE_TIME, default=True),
        TristateParameter("virtio", ParameterKind.COMPILE_TIME, default="y"),
        IntParameter("hz", ParameterKind.BOOT_TIME, default=250, minimum=0,
                     maximum=10 ** 6),
        CategoricalParameter("preempt", ParameterKind.BOOT_TIME, ["none", "full"]),
        BoolParameter("tcp.sack", RUNTIME, default=True),
        BoolParameter("tcp.ecn", RUNTIME, default=False),
        IntParameter("somaxconn", RUNTIME, default=128, minimum=16, maximum=65535,
                     log_scale=True),
        IntParameter("swappiness", RUNTIME, default=60, minimum=0, maximum=100),
        CategoricalParameter("qdisc", RUNTIME, ["fq", "pfifo", "codel"]),
        BoolParameter("aslr", RUNTIME, default=True),
    ], [
        DependsOn("inet", "net"),
        DependsOn("tcp.ecn", "tcp.sack"),
        DependsOn("virtio", "net"),
    ])
    space.freeze("aslr", True)
    return space


def _sampler(space, seed=3):
    return ConfigurationSampler(space, seed=seed, favored_kinds=[RUNTIME],
                                off_kind_mutation_rate=0.05)


class TestPool:
    def draw_configurations(self, space, bests=(), n_exploit=0, pools=40, size=100):
        encoder = ConfigEncoder(space)
        pool = PoolSampler(_sampler(space), encoder)
        history = ExplorationHistory(ThroughputMetric())
        generator = np.random.default_rng(1)
        codes = np.vstack([pool.draw(generator, history, size, list(bests),
                                     n_exploit, mutation_rate=0.08)
                           for _ in range(pools)])
        return encoder, codes, [encoder.configuration(row) for row in codes]

    def test_fresh_rows_follow_the_sampler_rules(self):
        space = _pool_space()
        _, _, rows = self.draw_configurations(space)
        assert all(row["aslr"] is True for row in rows)
        assert all(space.is_valid(row) for row in rows)
        # a boot-time int over a wide range is redrawn at about
        # off_kind_mutation_rate and otherwise stays at its default
        moved = sum(row["hz"] != 250 for row in rows) / len(rows)
        assert abs(moved - 0.05) <= 5 * math.sqrt(0.05 * 0.95 / len(rows))
        # favoured kinds are drawn in full
        assert len({row["somaxconn"] for row in rows}) > 500
        assert {row["qdisc"] for row in rows} == {"fq", "pfifo", "codel"}

    def test_exploit_rows_mutate_only_favoured_unfrozen_values(self):
        space = _pool_space()
        sampler = _sampler(space, seed=9)
        bests = [space.repair(sampler.sample(), sampler.rng) for _ in range(3)]
        _, _, rows = self.draw_configurations(space, bests, n_exploit=100, pools=5)
        fixed = [p.name for p in space if p.kind is not RUNTIME or p.name == "aslr"]
        for row in rows:
            assert any(all(row[name] == best[name] for name in fixed) for best in bests)
            assert space.is_valid(row)

    def test_unmutated_exploit_rows_get_one_redraw(self):
        """At mutation rate 0 every exploit row redraws exactly one
        eligible cell, like mutate_configuration."""
        space = _pool_space()
        encoder = ConfigEncoder(space)
        pool = PoolSampler(_sampler(space), encoder)
        default = space.default_configuration()
        codes = pool.draw(np.random.default_rng(2), ExplorationHistory(ThroughputMetric()),
                          400, [default], 400, mutation_rate=0.0)
        changed = [len(encoder.configuration(row).differing_parameters(default))
                   for row in codes]
        assert max(changed) == 1
        assert sum(changed) > 0.6 * len(changed)

    def test_no_favoured_kinds_draws_every_unfrozen_value(self):
        space = _pool_space()
        encoder = ConfigEncoder(space)
        pool = PoolSampler(ConfigurationSampler(space, seed=2), encoder)
        codes = pool.draw(np.random.default_rng(4), ExplorationHistory(ThroughputMetric()),
                          400, [], 0, 0.08)
        rows = [encoder.configuration(row) for row in codes]
        assert all(row["aslr"] is True for row in rows)
        assert len({row["hz"] for row in rows}) > 300

    def test_rows_encode_like_their_configurations(self):
        space = _pool_space()
        sampler = _sampler(space, seed=5)
        bests = [space.repair(sampler.sample(), sampler.rng) for _ in range(2)]
        encoder, codes, rows = self.draw_configurations(space, bests, n_exploit=40,
                                                        pools=3)
        matrix = encoder.encode_codes(codes)
        for vector, row in zip(matrix, rows):
            assert np.array_equal(vector, ConfigEncoder(space).encode(row))

    def test_history_repeats_are_dropped_unless_nothing_is_left(self):
        space = ConfigSpace([BoolParameter("a", RUNTIME), BoolParameter("b", RUNTIME)])
        encoder = ConfigEncoder(space)
        pool = PoolSampler(ConfigurationSampler(space, seed=0), encoder)
        history = ExplorationHistory(ThroughputMetric())
        generator = np.random.default_rng(0)
        every = [space.coerce({"a": a, "b": b}) for a in (False, True)
                 for b in (False, True)]
        for index, configuration in enumerate(every[:3]):
            history.add(make_record(configuration, index, objective=1.0))
        codes = pool.draw(generator, history, 64, [], 0, 0.08)
        assert {encoder.configuration(row) for row in codes} == {every[3]}
        history.add(make_record(every[3], 3, objective=1.0))
        assert len(pool.draw(generator, history, 64, [], 0, 0.08)) == 64


class TestPoolMatchesSampler:
    """The pool applies ConfigurationSampler's rules as column masks; the
    two must move each parameter at the same rate, repair included."""

    ROWS = 6000
    FAVOURED = {
        "all": None,
        "runtime": [RUNTIME],
        "runtime+compile": [RUNTIME, ParameterKind.COMPILE_TIME],
    }

    @staticmethod
    def _moved(configurations, bases, names):
        """Per parameter, how many rows differ from their base."""
        return {name: sum(row[name] != base[name]
                          for row, base in zip(configurations, bases))
                for name in names}

    @pytest.mark.parametrize("favoured", sorted(FAVOURED))
    def test_fresh_rows_move_each_parameter_like_sample(self, favoured):
        space = _pool_space()
        sampler = ConfigurationSampler(space, seed=11, off_kind_mutation_rate=0.05,
                                       favored_kinds=self.FAVOURED[favoured])
        encoder = ConfigEncoder(space)
        drawn = PoolSampler(sampler, encoder).draw(
            np.random.default_rng(12), ExplorationHistory(ThroughputMetric()),
            self.ROWS, [], 0, 0.08)
        assert len(drawn) == self.ROWS
        pooled = [encoder.configuration(row) for row in drawn]
        sampled = [sampler.sample() for _ in range(self.ROWS)]
        base = [space.default_configuration()] * self.ROWS
        names = space.parameter_names()
        first = self._moved(pooled, base, names)
        second = self._moved(sampled, base, names)
        for name in names:
            _assert_same_rate(first[name], second[name], self.ROWS, name)

    @pytest.mark.parametrize("favoured", sorted(FAVOURED))
    def test_exploit_rows_move_each_parameter_like_mutate(self, favoured):
        space = _pool_space()
        sampler = ConfigurationSampler(space, seed=13, off_kind_mutation_rate=0.05,
                                       favored_kinds=self.FAVOURED[favoured])
        encoder = ConfigEncoder(space)
        pool = PoolSampler(sampler, encoder)
        generator = np.random.default_rng(14)
        history = ExplorationHistory(ThroughputMetric())
        bests = [sampler.sample() for _ in range(3)]
        per_best = self.ROWS // len(bests)
        pooled, sampled, bases = [], [], []
        for best in bests:
            codes = pool.draw(generator, history, per_best, [best], per_best, 0.08)
            pooled.extend(encoder.configuration(row) for row in codes)
            sampled.extend(sampler.mutate(best, mutation_rate=0.08)
                           for _ in range(per_best))
            bases.extend([best] * per_best)
        names = space.parameter_names()
        first = self._moved(pooled, bases, names)
        second = self._moved(sampled, bases, names)
        for name in names:
            _assert_same_rate(first[name], second[name], len(bases), name)
        # and the number of cells a row changes has the same mean
        changed = [np.array([len(row.differing_parameters(base))
                             for row, base in zip(rows, bases)])
                   for rows in (pooled, sampled)]
        error = math.sqrt(sum(c.var() / len(c) for c in changed))
        assert abs(changed[0].mean() - changed[1].mean()) <= 5 * error
