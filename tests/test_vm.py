"""Unit tests for the simulated system under test (machine, failures, build, boot)."""

import random

import pytest

from repro.config.parameter import ParameterKind
from repro.vm.boot import BootSimulator
from repro.vm.build import BuildSimulator
from repro.vm.failures import FailureModel, FailureStage
from repro.vm.footprint import FootprintModel
from repro.vm.machine import PAPER_TESTBED, RISCV_EMBEDDED_BOARD, HardwareSpec

from tests.conftest import make_simulator


class TestHardwareSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            HardwareSpec("bad", cores=0, frequency_ghz=2.0, ram_gb=4)
        with pytest.raises(ValueError):
            HardwareSpec("bad", cores=2, frequency_ghz=0, ram_gb=4)
        with pytest.raises(ValueError):
            HardwareSpec("bad", cores=2, frequency_ghz=2.0, ram_gb=0)

    def test_paper_testbed_dimensions(self):
        assert PAPER_TESTBED.cores == 24
        assert PAPER_TESTBED.frequency_ghz == pytest.approx(2.7)

    def test_emulated_board_is_slower(self):
        assert RISCV_EMBEDDED_BOARD.compute_scale < PAPER_TESTBED.compute_scale

    def test_numa_restriction(self):
        machine = HardwareSpec("dual", cores=48, frequency_ghz=2.7, ram_gb=128,
                               numa_nodes=2)
        node = machine.restrict_to_numa_node()
        assert node.cores == 24
        assert node.ram_gb == 64
        assert node.numa_nodes == 1


class TestFailureModel:
    @pytest.fixture(scope="class")
    def model_and_failures(self, small_linux_model):
        return small_linux_model, FailureModel(small_linux_model, seed=3)

    def test_default_configuration_never_fails(self, model_and_failures):
        os_model, failures = model_and_failures
        default = os_model.space.default_configuration()
        record = failures.evaluate(default, "nginx")
        assert not record.failed

    def test_disabling_essential_feature_fails(self, model_and_failures):
        os_model, failures = model_and_failures
        config = os_model.space.default_configuration().with_values({"CONFIG_NET": False})
        probability = failures.crash_probability(config, "nginx")
        assert probability > 0.9
        record = failures.evaluate(config, "nginx")
        assert record.failed

    def test_sqlite_does_not_need_the_network(self, model_and_failures):
        os_model, failures = model_and_failures
        config = os_model.space.default_configuration().with_values({"CONFIG_NET": False})
        # CONFIG_NET is not an essential feature of SQLite; the only remaining
        # hazards for this change are unrelated, so the probability stays low.
        assert failures.crash_probability(config, "sqlite") < 0.5

    def test_dangerous_runtime_value_raises_probability(self, model_and_failures):
        os_model, failures = model_and_failures
        default = os_model.space.default_configuration()
        risky = default.with_values({"vm.min_free_kbytes": 4_000_000})
        assert failures.crash_probability(risky, "nginx") > \
            failures.crash_probability(default, "nginx")

    def test_failure_stage_ordering(self, model_and_failures):
        os_model, failures = model_and_failures
        config = os_model.space.default_configuration().with_values(
            {"CONFIG_KASAN": True, "CONFIG_DEBUG_KERNEL": True})
        record = failures.evaluate(config, "nginx")
        if record.failed:
            assert record.stage in (FailureStage.BUILD, FailureStage.BOOT, FailureStage.RUN)

    def test_deterministic(self, model_and_failures, rng):
        os_model, failures = model_and_failures
        config = os_model.space.sample_configuration(rng)
        first = failures.evaluate(config, "nginx")
        second = failures.evaluate(config, "nginx")
        assert first.stage == second.stage

    def test_random_runtime_crash_rate_near_one_third(self, small_linux_model):
        failures = FailureModel(small_linux_model, seed=3)
        space = small_linux_model.space
        rng = random.Random(17)
        default = space.default_configuration()
        crashed = 0
        trials = 250
        for _ in range(trials):
            config = space.mutate_configuration(default, rng, mutation_rate=1.0,
                                                 kinds=[ParameterKind.RUNTIME])
            crashed += failures.evaluate(config, "nginx").failed
        rate = crashed / trials
        assert 0.2 <= rate <= 0.5

    def test_unikraft_hazards(self, unikraft_model):
        failures = FailureModel(unikraft_model, seed=3)
        default = unikraft_model.space.default_configuration()
        assert not failures.evaluate(default, "unikraft-nginx").failed
        tiny_heap = default.with_values({"uk.heap_pages": 1024})
        assert failures.crash_probability(tiny_heap, "unikraft-nginx") > 0.5


class TestFootprintModel:
    def test_default_footprint_in_expected_band(self, small_linux_model):
        footprint = FootprintModel(small_linux_model)
        default = small_linux_model.space.default_configuration()
        assert 180.0 <= footprint.footprint_mb(default) <= 260.0

    def test_disabling_features_reduces_footprint(self, small_linux_model):
        footprint = FootprintModel(small_linux_model)
        default = small_linux_model.space.default_configuration()
        slim = default.with_values({
            "CONFIG_KALLSYMS": False, "CONFIG_FTRACE": False, "CONFIG_MODULES": False,
            "CONFIG_CGROUPS": False, "CONFIG_MEMCG": False, "CONFIG_AUDIT": False,
        })
        assert footprint.footprint_mb(slim) < footprint.footprint_mb(default)

    def test_hugepage_reservation_increases_footprint(self, small_linux_model):
        footprint = FootprintModel(small_linux_model)
        default = small_linux_model.space.default_configuration()
        hugepages = default.with_values({"vm.nr_hugepages": 64})
        assert footprint.footprint_mb(hugepages) > footprint.footprint_mb(default) + 100

    def test_image_size_positive(self, small_linux_model):
        footprint = FootprintModel(small_linux_model)
        default = small_linux_model.space.default_configuration()
        assert footprint.image_size_mb(default) > 0


class TestBuildAndBoot:
    def test_build_duration_scales_with_debug_info(self, small_linux_model):
        failures = FailureModel(small_linux_model, seed=3)
        build = BuildSimulator(small_linux_model, failures)
        default = small_linux_model.space.default_configuration()
        with_debug = default.with_values({"CONFIG_DEBUG_INFO": True})
        assert build.estimate_duration(with_debug) > build.estimate_duration(default)

    def test_successful_build_has_image(self, small_linux_model):
        failures = FailureModel(small_linux_model, seed=3)
        build = BuildSimulator(small_linux_model, failures)
        result = build.build(small_linux_model.space.default_configuration(), "nginx")
        assert result.success
        assert result.image_size_mb > 0
        assert result.duration_s > 0

    def test_boot_produces_procfs_with_runtime_values(self, small_linux_model):
        failures = FailureModel(small_linux_model, seed=3)
        boot = BootSimulator(small_linux_model, failures)
        config = small_linux_model.space.default_configuration().with_values(
            {"net.core.somaxconn": 4096})
        result = boot.boot(config, "nginx")
        assert result.success
        assert result.memory_mb > 0
        assert result.procfs is not None
        assert result.procfs.read("net.core.somaxconn") == "4096"

    def test_boot_failure_when_virtio_missing(self, small_linux_model):
        failures = FailureModel(small_linux_model, seed=3)
        boot = BootSimulator(small_linux_model, failures)
        config = small_linux_model.space.default_configuration().with_values(
            {"CONFIG_VIRTIO_PCI": False})
        result = boot.boot(config, "nginx")
        assert not result.success
        assert result.reason

    def test_unikernel_builds_faster_than_linux(self, small_linux_model, unikraft_model):
        linux_failures = FailureModel(small_linux_model, seed=3)
        uk_failures = FailureModel(unikraft_model, seed=3)
        linux_build = BuildSimulator(small_linux_model, linux_failures)
        uk_build = BuildSimulator(unikraft_model, uk_failures)
        assert uk_build.estimate_duration(unikraft_model.space.default_configuration()) < \
            linux_build.estimate_duration(small_linux_model.space.default_configuration())


class TestSystemSimulator:
    def test_default_evaluation_succeeds(self, small_linux_model):
        simulator = make_simulator(small_linux_model, "nginx")
        outcome = simulator.evaluate(small_linux_model.space.default_configuration())
        assert not outcome.crashed
        assert outcome.metric_value > 0
        assert outcome.total_duration_s > 60

    def test_reuse_image_is_much_faster(self, small_linux_model):
        simulator = make_simulator(small_linux_model, "nginx")
        default = small_linux_model.space.default_configuration()
        full = simulator.evaluate(default)
        reused = simulator.evaluate(default, reuse_image=True)
        assert reused.total_duration_s < full.total_duration_s / 2
        assert reused.build_skipped

    def test_crashed_run_reports_stage(self, small_linux_model):
        simulator = make_simulator(small_linux_model, "nginx")
        config = small_linux_model.space.default_configuration().with_values(
            {"CONFIG_NET": False, "CONFIG_INET": False, "CONFIG_VIRTIO_NET": False})
        outcome = simulator.evaluate(config)
        assert outcome.crashed
        assert outcome.failure_stage is not FailureStage.NONE
        assert outcome.metric_value is None

    def test_crash_probability_exposed(self, small_linux_model):
        simulator = make_simulator(small_linux_model, "nginx")
        default = small_linux_model.space.default_configuration()
        assert 0.0 <= simulator.crash_probability(default) < 0.2
