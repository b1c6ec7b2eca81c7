"""End-to-end simulated evaluation of one configuration.

The :class:`SystemSimulator` is the reproduction's stand-in for the paper's
QEMU/KVM testbed: given an OS model, an application and a bench tool, it runs
the full build → boot → benchmark pipeline for a configuration and reports
the measured metric, the memory footprint, whether and where the
configuration failed, and how much (simulated) wall-clock time was consumed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.config.space import Configuration
from repro.vm.boot import BootSimulator
from repro.vm.build import BuildSimulator
from repro.vm.failures import FailureModel, FailureStage
from repro.vm.machine import PAPER_TESTBED, HardwareSpec
from repro.vm.os_model import OSModel

if TYPE_CHECKING:  # imported lazily to avoid a circular import with repro.apps
    from repro.apps.base import Application, BenchmarkTool


class EvaluationOutcome:
    """Everything the platform learns from evaluating one configuration."""

    def __init__(
        self,
        configuration: Configuration,
        crashed: bool,
        failure_stage: FailureStage,
        failure_reason: str,
        metric_value: Optional[float],
        memory_mb: Optional[float],
        build_duration_s: float,
        boot_duration_s: float,
        run_duration_s: float,
        build_skipped: bool,
    ) -> None:
        self.configuration = configuration
        self.crashed = crashed
        self.failure_stage = failure_stage
        self.failure_reason = failure_reason
        self.metric_value = metric_value
        self.memory_mb = memory_mb
        self.build_duration_s = build_duration_s
        self.boot_duration_s = boot_duration_s
        self.run_duration_s = run_duration_s
        self.build_skipped = build_skipped

    @property
    def total_duration_s(self) -> float:
        return self.build_duration_s + self.boot_duration_s + self.run_duration_s

    def __repr__(self) -> str:
        if self.crashed:
            return "EvaluationOutcome(crashed at {}: {})".format(
                self.failure_stage.value, self.failure_reason
            )
        return "EvaluationOutcome(metric={:.1f}, memory={:.1f} MB, {:.0f}s)".format(
            self.metric_value, self.memory_mb, self.total_duration_s
        )


class SystemSimulator:
    """Simulates configure/build/boot/benchmark of OS images."""

    #: seconds to apply runtime sysctls when reusing an already booted image.
    RUNTIME_APPLY_S = 2.0

    def __init__(
        self,
        os_model: OSModel,
        application: Application,
        bench_tool: BenchmarkTool,
        hardware: HardwareSpec = PAPER_TESTBED,
        seed: int = 0,
    ) -> None:
        self.os_model = os_model
        self.application = application
        self.bench_tool = bench_tool
        self.hardware = hardware
        self.failure_model = FailureModel(os_model, seed=seed)
        self.build_simulator = BuildSimulator(os_model, self.failure_model, hardware)
        self.boot_simulator = BootSimulator(os_model, self.failure_model, hardware)
        self._rng = random.Random(seed ^ 0x5F5E5F)

    # -- checkpointing ------------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the measurement-noise RNG (the only mutable state).

        The failure model draws from a deterministic configuration hash and
        the build/boot simulators are stateless, so restoring the RNG stream
        makes a resumed run reproduce the remaining measurements exactly.
        """
        return {"rng": self._rng.getstate()}

    def import_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        # saved state turns tuples into lists; setstate wants them back
        version, internal, gauss_next = state["rng"]
        self._rng.setstate((version, tuple(internal), gauss_next))

    # -- helpers -----------------------------------------------------------------
    def crash_probability(self, configuration: Configuration) -> float:
        """Expose the failure model's overall crash probability (for analysis)."""
        return self.failure_model.crash_probability(configuration, self.application.name)

    # -- evaluation -----------------------------------------------------------------
    def evaluate(self, configuration: Configuration,
                 reuse_image: bool = False) -> EvaluationOutcome:
        """Run the full pipeline on *configuration*.

        With ``reuse_image=True`` the build and boot stages are skipped: the
        previously booted image is kept and only the runtime parameters are
        re-applied (the platform requests this when two consecutive
        configurations differ only in runtime parameters, §3.1).
        """
        app_name = self.application.name
        build_duration = 0.0
        boot_duration = 0.0

        if reuse_image:
            build_duration = 0.0
            boot_duration = self.RUNTIME_APPLY_S
            failure = self.failure_model.evaluate(configuration, app_name)
            # Build/boot failures cannot occur: the image is already running.
            if failure.stage in (FailureStage.BUILD, FailureStage.BOOT):
                failure_stage = FailureStage.NONE
            else:
                failure_stage = failure.stage
            memory = self.boot_simulator.footprint_model.footprint_mb(configuration)
        else:
            build = self.build_simulator.build(configuration, app_name)
            build_duration = build.duration_s
            if not build.success:
                return EvaluationOutcome(
                    configuration, True, FailureStage.BUILD, build.reason,
                    None, None, build_duration, 0.0, 0.0, build_skipped=False,
                )
            boot = self.boot_simulator.boot(configuration, app_name)
            boot_duration = boot.duration_s
            if not boot.success:
                return EvaluationOutcome(
                    configuration, True, FailureStage.BOOT, boot.reason,
                    None, None, build_duration, boot_duration, 0.0, build_skipped=False,
                )
            memory = boot.memory_mb
            failure = self.failure_model.evaluate(configuration, app_name)
            failure_stage = failure.stage if failure.stage is FailureStage.RUN else FailureStage.NONE

        if failure_stage is FailureStage.RUN:
            # The application crashed or hung: the platform detects this via a
            # timeout, so a failed run still costs benchmark time.
            run_duration = self.bench_tool.run_duration_s(self._rng) * 1.3
            reason = failure.reason if failure.stage is FailureStage.RUN else ""
            return EvaluationOutcome(
                configuration, True, FailureStage.RUN, reason,
                None, memory, build_duration, boot_duration, run_duration,
                build_skipped=reuse_image,
            )

        measurement = self.bench_tool.measure(
            self.application, configuration, self.hardware, self._rng
        )
        return EvaluationOutcome(
            configuration, False, FailureStage.NONE, "",
            measurement.value, memory, build_duration, boot_duration,
            measurement.duration_s, build_skipped=reuse_image,
        )
