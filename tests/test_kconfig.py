"""Unit tests for the synthetic Kconfig models (Linux, Unikraft, history)."""

import pytest

from repro.config.parameter import ParameterKind
from repro.kconfig.history import KCONFIG_OPTION_COUNTS, kconfig_growth_series, option_count
from repro.kconfig.linux import (
    LinuxSpaceBuilder,
    linux_census,
    linux_experiment_space,
)
from repro.kconfig.model import KconfigGenerator
from repro.kconfig.unikraft import unikraft_nginx_space, unikraft_parameter_split


class TestKconfigGenerator:
    def test_generates_requested_counts(self):
        generator = KconfigGenerator(seed=3)
        options, constraints = generator.generate(
            n_bool=50, n_tristate=30, n_string=5, n_hex=5, n_int=10)
        assert len(options) == 100
        by_type = {}
        for option in options:
            by_type.setdefault(option.parameter.type_name, 0)
            by_type[option.parameter.type_name] += 1
        assert by_type["bool"] == 50
        assert by_type["tristate"] == 30
        assert by_type["string"] == 5
        assert by_type["hex"] == 5
        assert by_type["int"] == 10

    def test_deterministic_for_seed(self):
        first, _ = KconfigGenerator(seed=9).generate(20, 10, 2, 2, 5)
        second, _ = KconfigGenerator(seed=9).generate(20, 10, 2, 2, 5)
        assert [o.name for o in first] == [o.name for o in second]
        assert [o.fragile for o in first] == [o.fragile for o in second]

    def test_all_options_are_compile_time(self):
        options, _ = KconfigGenerator(seed=1).generate(10, 10, 1, 1, 3)
        assert all(o.parameter.kind is ParameterKind.COMPILE_TIME for o in options)

    def test_dependencies_reference_generated_options(self):
        options, constraints = KconfigGenerator(seed=1).generate(40, 40, 1, 1, 5,
                                                                 dependency_fraction=0.5)
        names = {o.name for o in options}
        for constraint in constraints:
            assert set(constraint.parameter_names()) <= names

    def test_some_footprint_costs_assigned(self):
        options, _ = KconfigGenerator(seed=1).generate(50, 50, 1, 1, 5)
        assert any(o.footprint_cost > 0 for o in options)


class TestLinuxSpaces:
    def test_census_matches_table1(self):
        census = linux_census("v6.0")
        assert census == {
            "bool": 7585, "tristate": 10034, "string": 154, "hex": 94,
            "int": 3405, "boot": 231, "runtime": 13328,
        }

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            LinuxSpaceBuilder("v9.99")

    def test_experiment_space_contains_named_knobs(self):
        space = linux_experiment_space(seed=2, extra_compile=10, extra_runtime=5,
                                       extra_boot=2)
        for name in ("CONFIG_NET", "net.core.somaxconn", "kernel.printk",
                     "boot.mitigations", "CONFIG_HZ", "vm.stat_interval"):
            assert name in space

    def test_experiment_space_has_all_three_kinds(self):
        space = linux_experiment_space(seed=2, extra_compile=10, extra_runtime=5,
                                       extra_boot=2)
        for kind in ParameterKind:
            assert space.parameters_of_kind(kind)

    def test_experiment_space_is_huge_but_finite_or_infinite(self):
        space = linux_experiment_space(seed=2, extra_compile=10, extra_runtime=5,
                                       extra_boot=2)
        assert space.log10_cardinality() > 50

    def test_default_configuration_is_constraint_valid(self):
        space = linux_experiment_space(seed=2, extra_compile=30, extra_runtime=10,
                                       extra_boot=4)
        assert space.is_valid(space.default_configuration())

    def test_builder_metadata(self):
        builder = LinuxSpaceBuilder("v4.19", seed=2)
        builder.experiment_space(extra_compile=20, extra_runtime=5, extra_boot=2)
        assert "CONFIG_KASAN" in builder.fragile_option_names()
        costs = builder.footprint_costs()
        assert costs["CONFIG_NET"] > 0
        assert "CONFIG_NET" in builder.essential_features("nginx")
        assert "CONFIG_EXT4_FS" in builder.essential_features("sqlite")
        assert builder.filler_option_metadata()

    def test_full_space_census_shape(self):
        # The full space is large; only check the per-type counts line up with
        # the census for a cheap version entry.
        builder = LinuxSpaceBuilder("v4.19", seed=0)
        census = builder.census()
        assert census["bool"] + census["tristate"] > 10000


class TestKconfigHistory:
    def test_growth_is_monotone(self):
        series = kconfig_growth_series()
        counts = [count for _, count in series]
        assert counts == sorted(counts)

    def test_v6_has_about_20k_options(self):
        assert 20000 <= option_count("v6.0") <= 22000

    def test_all_versions_have_years(self):
        from repro.kconfig.history import RELEASE_YEARS
        assert set(RELEASE_YEARS) == set(KCONFIG_OPTION_COUNTS)

    def test_unknown_version_raises(self):
        with pytest.raises(KeyError):
            option_count("v1.0")


class TestUnikraftSpace:
    def test_parameter_count_is_33(self):
        space = unikraft_nginx_space()
        assert len(space) == 33

    def test_split_10_application_23_os(self):
        space = unikraft_nginx_space()
        os_params, app_params = unikraft_parameter_split(space)
        assert len(os_params) == 23
        assert len(app_params) == 10

    def test_search_space_size_order_of_magnitude(self):
        # The paper reports ~3.7e13 permutations for the 33-parameter space
        # (counting a coarse value grid per integer option); enumerating every
        # integer value, as the cardinality here does, gives a larger but
        # still astronomically-sized space.
        space = unikraft_nginx_space()
        assert space.log10_cardinality() >= 13

    def test_default_valid(self):
        space = unikraft_nginx_space()
        assert space.is_valid(space.default_configuration())
