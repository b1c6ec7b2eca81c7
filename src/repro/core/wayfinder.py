"""The Wayfinder facade: configure, search, and report in a few lines.

``Wayfinder`` turns a declarative :class:`~repro.core.spec.ExperimentSpec`
into a fully wired specialization run: the configuration space of the target
OS, the simulated system under test, the metric, and a search algorithm.  The
keyword-argument constructors (:meth:`Wayfinder.for_linux`,
:meth:`Wayfinder.for_unikraft`) are thin builders producing a spec, just as
the CLI and job files do through :meth:`ExperimentSpec.from_dict` — all
front-ends meet at the same spec object, so equivalent inputs construct
identical experiments:

    >>> from repro import Wayfinder
    >>> wf = Wayfinder.for_linux(application="nginx", metric="throughput", seed=7)
    >>> result = wf.specialize(iterations=40)
    >>> result.improvement_factor >= 0.9
    True

Because the spec is serializable, runs are resumable: attach checkpointing
with :meth:`Wayfinder.enable_checkpointing` and continue an interrupted
sweep with :meth:`Wayfinder.resume` — the resumed session reproduces the
uninterrupted run trial for trial.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.similarity import DEFAULT_MIN_SIMILARITY, select_donor
from repro.apps.base import Application, BenchmarkTool
from repro.apps.registry import default_bench_tool_for, get_application
from repro.config.encoding import ConfigEncoder
from repro.config.space import Configuration, ConfigSpace
from repro.core.spec import ExperimentSpec
from repro.deeptune.importance import parameter_importance
from repro.deeptune.model import DeepTuneModel
from repro.deeptune.transfer import (ZooError, load_zoo_index, load_zoo_model,
                                     space_fingerprint, transfer_model,
                                     zoo_directory, zoo_entry_id)
from repro.platform.history import ExplorationHistory
from repro.platform.lifecycle import IncumbentPlateau, SessionObserver, StopCondition
from repro.platform.metrics import (
    CompositeScoreMetric,
    LatencyMetric,
    MemoryFootprintMetric,
    Metric,
    ThroughputMetric,
    metric_for_application,
)
from repro.platform.executor import WorkerPoolBackend
from repro.platform.results import (
    ResultsStore,
    SessionCheckpointer,
    load_checkpoint_file,
    restore_search_session,
)
from repro.platform.runner import SearchSession, SessionResult
from repro.search.registry import create_algorithm
from repro.vm.machine import PAPER_TESTBED, RISCV_EMBEDDED_BOARD, HardwareSpec
from repro.vm.os_model import OSModel, linux_os_model, unikraft_os_model
from repro.vm.simulator import SystemSimulator


def _build_metric(metric: str, application: Application) -> Metric:
    if metric in ("throughput", "performance"):
        return ThroughputMetric(unit=application.unit)
    if metric == "latency":
        return LatencyMetric(unit=application.unit)
    if metric == "memory":
        return MemoryFootprintMetric()
    if metric == "score":
        return CompositeScoreMetric()
    if metric == "auto":
        return metric_for_application(application.name)
    raise ValueError("unknown metric {!r}".format(metric))


class SearchResult:
    """User-facing result of one specialization run."""

    def __init__(self, session_result: SessionResult, metric: Metric,
                 default_objective: Optional[float],
                 default_crashed: bool) -> None:
        self._session_result = session_result
        self.metric = metric
        self.default_objective = default_objective
        self.default_crashed = default_crashed

    # -- the configuration found -------------------------------------------------
    @property
    def best_configuration(self) -> Optional[Configuration]:
        return self._session_result.best_configuration

    @property
    def best_performance(self) -> Optional[float]:
        return self._session_result.best_objective

    @property
    def history(self) -> ExplorationHistory:
        return self._session_result.history

    @property
    def algorithm_name(self) -> str:
        return self._session_result.algorithm_name

    @property
    def iterations(self) -> int:
        return self._session_result.iterations

    @property
    def crash_rate(self) -> float:
        return self._session_result.crash_rate

    @property
    def time_to_best_s(self) -> Optional[float]:
        return self._session_result.time_to_best_s

    @property
    def total_time_s(self) -> float:
        return self.history.total_elapsed_s()

    @property
    def builds_skipped(self) -> int:
        return self._session_result.builds_skipped

    @property
    def stop_reason(self) -> Optional[str]:
        return self._session_result.stop_reason

    @property
    def improvement_factor(self) -> Optional[float]:
        """Best objective relative to the default configuration (>1 is better).

        For minimization metrics the ratio is inverted so that values above
        1.0 always mean "the found configuration is better than the default",
        matching the "Relative Perf." column of Table 2.
        """
        best = self.best_performance
        if best is None or self.default_objective in (None, 0.0):
            return None
        if self.metric.maximize:
            return best / self.default_objective
        return self.default_objective / best

    def summary(self) -> Dict[str, Any]:
        data = self._session_result.summary()
        data.update({
            "metric": self.metric.name,
            "default_objective": self.default_objective,
            "improvement_factor": self.improvement_factor,
        })
        return data

    def __repr__(self) -> str:
        return "SearchResult(best={!r}, improvement={!r}, crash_rate={:.2f})".format(
            self.best_performance, self.improvement_factor, self.crash_rate
        )


class SpecializationSession:
    """A fully wired specialization run: simulator, execution backend, algorithm.

    The declarative knobs (seed, worker fleet shape, batch size, skip-build)
    are read from the spec; the wired components are resolved by the owning
    :class:`Wayfinder` and passed in alongside it.
    """

    def __init__(self, spec: ExperimentSpec, os_model: OSModel,
                 application: Application, bench_tool: BenchmarkTool,
                 metric: Metric, algorithm, hardware: HardwareSpec) -> None:
        self.spec = spec
        self.os_model = os_model
        self.application = application
        self.bench_tool = bench_tool
        self.metric = metric
        self.algorithm = algorithm
        self.hardware = hardware
        self.simulator = SystemSimulator(os_model, application, bench_tool,
                                         hardware=hardware, seed=spec.seed)
        # One pool worker per SUT machine, all sharing the simulator; the
        # default workers=1 is the single-machine platform.
        self.backend = WorkerPoolBackend(self.simulator, metric,
                                         workers=spec.workers,
                                         enable_skip_build=spec.enable_skip_build)
        # The default configuration is always benchmarked first: it is the
        # incumbent every specialized configuration is compared against.
        self.session = SearchSession(algorithm=algorithm, metric=metric,
                                     evaluate_default_first=True,
                                     backend=self.backend,
                                     batch_size=spec.batch_size,
                                     favor=spec.favor,
                                     execution=spec.execution)

    def evaluate_default(self) -> Dict[str, Any]:
        """Evaluate the default configuration outside the search history."""
        simulator = SystemSimulator(self.os_model, self.application, self.bench_tool,
                                    hardware=self.hardware, seed=self.spec.seed + 9999)
        outcome = simulator.evaluate(self.os_model.default_configuration())
        return {
            "objective": self.metric.extract(outcome),
            "crashed": outcome.crashed,
            "memory_mb": outcome.memory_mb,
            "metric_value": outcome.metric_value,
        }

    def run(self, iterations: Optional[int] = None,
            time_budget_s: Optional[float] = None,
            stop: Optional[Sequence[StopCondition]] = None) -> SearchResult:
        default = self.evaluate_default()
        session_result = self.session.run(iterations=iterations,
                                          time_budget_s=time_budget_s,
                                          stop=stop)
        return SearchResult(session_result, self.metric,
                            default_objective=default["objective"],
                            default_crashed=default["crashed"])


class Wayfinder:
    """Facade turning an :class:`ExperimentSpec` into a specialization run."""

    def __init__(self, spec: ExperimentSpec,
                 hardware: Optional[HardwareSpec] = None) -> None:
        self.spec = spec
        if spec.os_name == "unikraft":
            self.os_model = unikraft_os_model(seed=spec.seed)
            default_hardware = PAPER_TESTBED
        else:
            self.os_model = linux_os_model(version=spec.os_version,
                                           seed=spec.seed,
                                           architecture=spec.architecture,
                                           **spec.space_options)
            default_hardware = (RISCV_EMBEDDED_BOARD
                                if spec.architecture == "riscv64" else PAPER_TESTBED)
        self.hardware = hardware if hardware is not None else default_hardware
        #: a hardware object the spec cannot re-derive makes the experiment
        #: non-reconstructible; checkpointing refuses rather than letting a
        #: resume silently wire different build/boot duration models.
        self._custom_hardware = self.hardware is not default_hardware
        self.application = get_application(spec.application)
        self.bench_tool = default_bench_tool_for(spec.application)
        self.metric = _build_metric(spec.metric, self.application)
        self.favored_kinds = spec.favored_kinds
        for name, value in spec.frozen.items():
            self.os_model.space.freeze(name, value)
        options = dict(spec.algorithm_options)
        if spec.algorithm in ("deeptune", "bayesian", "unicorn"):
            options.setdefault("maximize", self.metric.maximize)
        #: warm-start provenance (donor app, similarity) once a zoo donor is
        #: adopted; None for cold starts and non-DeepTune algorithms.
        self.warm_start: Optional[Dict[str, Any]] = None
        if (spec.algorithm == "deeptune" and spec.warm_start is not None
                and "model" not in options):
            resolved = self._resolve_warm_start()
            if resolved is not None:
                options["model"], self.warm_start = resolved
                # the paper's TL configuration: learned weights, empty
                # replay buffer, no random warmup — the donor model guides
                # proposals from iteration 0 (explicit algorithm_options
                # still win).
                options.setdefault("warmup_iterations", 0)
        self.algorithm = create_algorithm(
            spec.algorithm, self.os_model.space, seed=spec.seed,
            favored_kinds=self.favored_kinds, **options)
        if self.warm_start is not None:
            # ride the algorithm's export/import state so checkpoint/resume
            # reports the same donor the original run adopted.
            self.algorithm.provenance = dict(self.warm_start)
        self._session: Optional[SpecializationSession] = None

    # -- warm start --------------------------------------------------------------------
    def _resolve_warm_start(self) -> Optional[Tuple[DeepTuneModel,
                                                    Dict[str, Any]]]:
        """Resolve the spec's ``warm_start`` block to a donor model.

        Every failure path — missing/empty/corrupt zoo, no fingerprint-
        compatible entry, similarity below the threshold, unreadable donor
        model — returns ``None`` and the experiment cold-starts; warm start
        is an accelerator, never a new way for a run to fail.  Resolution
        is a deterministic function of the spec and the zoo bytes, so every
        resume and chaos replay adopts the same donor.
        """
        block = self.spec.warm_start
        zoo_dir = zoo_directory(block["zoo"])
        entries = list(load_zoo_index(zoo_dir).values())
        if not entries:
            return None
        encoder = ConfigEncoder(self.os_model.space)
        fingerprint = space_fingerprint(encoder)
        selection = select_donor(
            entries, self.spec.application, fingerprint,
            self._target_importance(encoder, entries, fingerprint),
            min_similarity=float(block.get("min_similarity",
                                           DEFAULT_MIN_SIMILARITY)),
            donor=block.get("donor"))
        if selection is None:
            return None
        entry, score = selection
        try:
            donor_model = load_zoo_model(zoo_dir, entry)
        except ZooError:
            return None
        if donor_model.input_dim != encoder.width:
            return None
        provenance = {
            "donor": entry.get("application"),
            "entry": entry.get("id"),
            "experiment": entry.get("experiment"),
            "similarity": round(float(score), 6),
            "observations": int(entry.get("observations", 0)),
        }
        return transfer_model(donor_model), provenance

    def _target_importance(self, encoder: ConfigEncoder, entries,
                           fingerprint: str) -> Dict[str, float]:
        """The target's Figure 5 reference vector for donor ranking.

        When the zoo already holds an entry for this application on this
        space, its stored importance vector is the reference.  Otherwise —
        the held-out-application case — a small seeded probe evaluates
        random configurations through the simulator (the paper's §3.3
        methodology) and scores importance on the measurements.  The probe
        uses its own sampler and simulator seeded from the spec, so the
        search session's RNG streams are untouched and the result is
        identical on every resume.
        """
        own_id = zoo_entry_id(self.spec.application, fingerprint)
        for entry in entries:
            if (entry.get("id") == own_id
                    and isinstance(entry.get("importance"), dict)):
                return {str(name): float(value)
                        for name, value in entry["importance"].items()}
        return self._probe_importance(encoder)

    def _probe_importance(self, encoder: ConfigEncoder,
                          n_probe: int = 16) -> Dict[str, float]:
        from repro.search.base import ConfigurationSampler

        probe_seed = self.spec.seed + 515151
        sampler = ConfigurationSampler(self.os_model.space, seed=probe_seed,
                                       favored_kinds=self.favored_kinds)
        simulator = SystemSimulator(self.os_model, self.application,
                                    self.bench_tool, hardware=self.hardware,
                                    seed=probe_seed)
        configurations = [sampler.sample() for _ in range(n_probe)]
        targets = np.empty(len(configurations))
        for index, configuration in enumerate(configurations):
            outcome = simulator.evaluate(configuration)
            objective = self.metric.extract(outcome)
            targets[index] = (np.nan if outcome.crashed or objective is None
                              else float(objective))
        return parameter_importance(
            encoder, encoder.encode_batch(configurations), targets)

    # -- spec passthroughs -------------------------------------------------------------
    @property
    def algorithm_name(self) -> str:
        return self.spec.algorithm

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def workers(self) -> int:
        return self.spec.workers

    @property
    def batch_size(self) -> int:
        return self.spec.batch_size

    @property
    def execution(self) -> str:
        return self.spec.execution

    @property
    def enable_skip_build(self) -> bool:
        return self.spec.enable_skip_build

    # -- constructors -----------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: ExperimentSpec,
                  hardware: Optional[HardwareSpec] = None) -> "Wayfinder":
        """Build a Wayfinder instance from a declarative experiment spec."""
        return cls(spec, hardware=hardware)

    @classmethod
    def for_linux(cls, application: str = "nginx", metric: str = "auto",
                  version: str = "v4.19", seed: int = 0,
                  algorithm: str = "deeptune", favor: Optional[str] = "runtime",
                  architecture: str = "x86_64",
                  hardware: Optional[HardwareSpec] = None,
                  space_options: Optional[Dict[str, Any]] = None,
                  **kwargs) -> "Wayfinder":
        """Build a Wayfinder instance targeting the simulated Linux kernel."""
        spec = ExperimentSpec(os_name="linux", application=application,
                              metric=metric, algorithm=algorithm, favor=favor,
                              seed=seed, os_version=version,
                              architecture=architecture,
                              space_options=space_options, **kwargs)
        return cls(spec, hardware=hardware)

    @classmethod
    def for_unikraft(cls, metric: str = "throughput", seed: int = 0,
                     algorithm: str = "deeptune", **kwargs) -> "Wayfinder":
        """Build a Wayfinder instance targeting the Unikraft+Nginx image (§4.4)."""
        kwargs.setdefault("favor", None)
        spec = ExperimentSpec(os_name="unikraft", metric=metric,
                              algorithm=algorithm, seed=seed, **kwargs)
        return cls(spec)

    @classmethod
    def resume(cls, path: str) -> "Wayfinder":
        """Rebuild an experiment from a checkpoint file and restore its state.

        The returned instance is primed to continue exactly where the
        checkpointed run stopped: calling :meth:`specialize` (the stored
        spec supplies the original budget) reproduces the uninterrupted run
        trial for trial — same proposals, same RNG consumption, same
        timestamps.  A damaged checkpoint — manifest, trial rows, or a
        state file whose length or sha256 does not match — raises
        ``ValueError``.
        """
        document = load_checkpoint_file(path)
        spec = ExperimentSpec.from_dict(document["spec"])
        wayfinder = cls.from_spec(spec)
        session = wayfinder.build_session()
        restore_search_session(document, session.session)
        return wayfinder

    # -- running -----------------------------------------------------------------------
    def build_session(self) -> SpecializationSession:
        """Wire up (or return the already wired) specialization session."""
        if self._session is None:
            self._session = SpecializationSession(
                self.spec, self.os_model, self.application, self.bench_tool,
                self.metric, self.algorithm, self.hardware,
            )
        return self._session

    def add_observer(self, observer: SessionObserver) -> SessionObserver:
        """Attach a lifecycle observer to the (lazily wired) search session."""
        return self.build_session().session.add_observer(observer)

    def enable_checkpointing(self, store, name: Optional[str] = None,
                             every: Optional[int] = None) -> SessionCheckpointer:
        """Persist resumable session state every *every* batches.

        *store* is a :class:`ResultsStore` or a directory path.  Returns the
        attached checkpointer; the checkpoint lives at
        ``store.checkpoint_path(name)`` and is consumed by :meth:`resume`.
        *every* defaults to the session's current cadence — 1 for fresh
        sessions, the original run's cadence for resumed ones.
        """
        if not isinstance(store, ResultsStore):
            store = ResultsStore(str(store))
        if self._custom_hardware:
            raise ValueError(
                "cannot checkpoint an experiment built with a custom hardware "
                "object: the spec cannot reconstruct it on resume (use the "
                "spec's architecture field instead)")
        session = self.build_session().session
        if every is not None:
            if every < 1:
                raise ValueError("checkpoint cadence must be at least 1 batch")
            session.checkpoint_every = every
        checkpointer = SessionCheckpointer(store, name or self.spec.name,
                                           self.spec, session)
        superseded = getattr(session, "checkpointer", None)
        if superseded is not None and hasattr(superseded, "close"):
            superseded.close()
        session.checkpointer = checkpointer
        return checkpointer

    def specialize(self, iterations: Optional[int] = None,
                   time_budget_s: Optional[float] = None,
                   stop: Optional[Sequence[StopCondition]] = None) -> SearchResult:
        """Run the specialization search and return its result.

        Budgets default to the spec's ``iterations`` / ``time_budget_s`` /
        ``plateau_trials`` when no explicit budget is given, so a spec-driven
        run (CLI, job file, resume) needs no arguments here.
        """
        stop = list(stop or [])
        if iterations is None and time_budget_s is None and not stop:
            iterations = self.spec.iterations
            time_budget_s = self.spec.time_budget_s
            if self.spec.plateau_trials is not None:
                stop.append(IncumbentPlateau(self.spec.plateau_trials))
        return self.build_session().run(iterations=iterations,
                                        time_budget_s=time_budget_s,
                                        stop=stop or None)

    @property
    def space(self) -> ConfigSpace:
        return self.os_model.space

    def trained_model(self):
        """The DeepTune model after a run (None for other algorithms)."""
        return getattr(self.algorithm, "model", None)

    def __repr__(self) -> str:
        return "Wayfinder(os={!r}, app={!r}, metric={!r}, algorithm={!r})".format(
            self.os_model.name, self.application.name, self.metric.name,
            self.algorithm_name,
        )
