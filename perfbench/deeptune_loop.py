"""The ``deeptune-seq`` and ``deeptune-fleet`` workloads.

One *session* wires a :class:`Wayfinder` for DeepTune on the full
362-parameter Linux v4.19 space, checkpoints every step into a fresh
:class:`ResultsStore`, runs the whole trial budget, then rebuilds the run
with :meth:`Wayfinder.resume` from the final checkpoint and checks that the
restored history equals the finished one record for record.  A run repeats
sessions, each with its own seed drawn from the workload seed, until the
measuring time is used up.

``deeptune-seq`` proposes, evaluates and checkpoints one trial at a time, so
every trial pays for a full candidate pool and a checkpoint.
``deeptune-fleet`` runs barrier rounds of four trials on four simulated
machines: one pool and one checkpoint per four trials, while training still
runs once per trial, so training dominates.
"""

from __future__ import annotations

import gc
import math
import shutil
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

from common import (Budget, median, percentile, records_digest,
                    samples_for_tail, session_seeds, tree_bytes)
from layers import install_layers, layer_metrics
from tracer import Tracer

from repro import Wayfinder
from repro.core.spec import ExperimentSpec
from repro.platform.lifecycle import SessionObserver
from repro.platform.results import ResultsStore, record_to_dict

#: workload -> session shape.  ``tail_pct`` is the step percentile reported
#: as ``step_tail_ms``; a run always holds enough steps for ten beyond it.
CONFIGS: Dict[str, Dict[str, Any]] = {
    "deeptune-seq": {"application": "nginx", "workers": 1, "batch_size": 1,
                     "iterations": 50, "tail_pct": 90.0},
    "deeptune-fleet": {"application": "redis", "workers": 4, "batch_size": 4,
                       "iterations": 64, "tail_pct": 75.0},
}

#: extra wirings timed before the sessions, so ``setup_s`` is a median of
#: several even when only a few sessions fit the measuring time.
SETUP_REPEATS = 20

#: timed resumes of each session's final checkpoint (one when traced).
RESUMES = 5

#: an untimed session first: lazy imports and first-call costs land there.
WARMUP_ITERATIONS = 14


class StepTimer(SessionObserver):
    """Wall time of each checkpoint-cadence step (one batch, checkpoint incl.)."""

    def __init__(self) -> None:
        self.steps_ms: List[float] = []
        self._started: Optional[float] = None

    def on_batch_start(self, session, batch_index, planned) -> None:
        self._started = time.perf_counter()

    def on_checkpoint(self, session, path) -> None:
        if self._started is not None:
            self.steps_ms.append(1e3 * (time.perf_counter() - self._started))
            self._started = None


def _spec(config: Dict[str, Any], seed: int, iterations: int) -> ExperimentSpec:
    return ExperimentSpec(os_name="linux", application=config["application"],
                          metric="auto", algorithm="deeptune", seed=seed,
                          iterations=iterations, workers=config["workers"],
                          batch_size=config["batch_size"], execution="batch",
                          name="bench")


def _wire(spec: ExperimentSpec, directory: str):
    """The timed set-up: wire the session, its checkpointer and step timer."""
    wayfinder = Wayfinder.from_spec(spec)
    checkpointer = wayfinder.enable_checkpointing(ResultsStore(directory),
                                                  every=1)
    timer = wayfinder.add_observer(StepTimer())
    return wayfinder, checkpointer, timer


def time_setup(spec: ExperimentSpec, workdir: str) -> float:
    directory = tempfile.mkdtemp(dir=workdir)
    try:
        started = time.perf_counter()
        _, checkpointer, _ = _wire(spec, directory)
        elapsed = time.perf_counter() - started
        checkpointer.close()
        return elapsed
    finally:
        shutil.rmtree(directory)


def run_session(spec: ExperimentSpec, workdir: str,
                tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """Set up, run, resume and check one session; returns its measurements."""
    directory = tempfile.mkdtemp(dir=workdir)
    try:
        started = time.perf_counter()
        wayfinder, checkpointer, timer = _wire(spec, directory)
        setup_s = time.perf_counter() - started
        path = checkpointer.store.checkpoint_path(checkpointer.name)
        if tracer is not None:
            install_layers(tracer)
        gc.collect()
        try:
            mark = tracer.mark() if tracer else 0
            started = time.perf_counter()
            result = wayfinder.specialize()
            loop_s = time.perf_counter() - started
            loop_mark = tracer.mark() if tracer else 0
            checkpointer.close()
            resume_s = []
            for _ in range(1 if tracer else RESUMES):
                gc.collect()
                started = time.perf_counter()
                resumed = Wayfinder.resume(path)
                resume_s.append(time.perf_counter() - started)
        finally:
            if tracer is not None:
                tracer.remove()
        digest = records_digest([record_to_dict(record)
                                 for record in result.history])
        restored = records_digest(
            [record_to_dict(record)
             for record in resumed.build_session().session.history])
        session = {
            "seed": spec.seed,
            "setup_s": setup_s,
            "loop_s": loop_s,
            "steps_ms": timer.steps_ms,
            "resume_s": resume_s,
            "state_bytes": tree_bytes(
                path, *checkpointer.store.checkpoint_trial_paths(
                    checkpointer.name)),
            "improvement_factor": result.improvement_factor,
            "resume_matches": restored == digest,
            "digest": digest,
        }
        if tracer is not None:
            encoder = wayfinder.algorithm.encoder
            utilization = result.summary()["worker_utilization"]
            session["layers"] = layer_metrics(
                tracer.spans, tracer.spans[mark:loop_mark], tracer.counts,
                loop_s, {"cache_hits": encoder.cache_hits,
                         "cache_misses": encoder.cache_misses,
                         "pool_size": wayfinder.algorithm.candidate_pool_size,
                         "utilization": sum(utilization) / len(utilization)})
        return session
    finally:
        shutil.rmtree(directory)


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> Dict[str, Any]:
    config = CONFIGS[workload]
    iterations = config["iterations"]
    steps_per_session = 1 + math.ceil((iterations - 1) / config["batch_size"])
    quality_sessions = math.ceil(samples_for_tail(config["tail_pct"])
                                 / steps_per_session)
    budget = Budget(seconds, 1 if trace else quality_sessions)
    seeds = session_seeds(seed, 1000)

    setups = [time_setup(_spec(config, seeds[0], iterations), workdir)
              for _ in range(SETUP_REPEATS)]
    run_session(_spec(config, seeds[-1], WARMUP_ITERATIONS), workdir)

    sessions: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    attempted = failed = 0
    while budget.another():
        started = time.perf_counter()
        spec = _spec(config, seeds[len(budget.durations)], iterations)
        attempted += 2  # the session and its resume check
        try:
            session = run_session(spec, workdir)
            if trace:
                attempted += 2
                shadow = run_session(spec, workdir, Tracer())
                # tracing must not perturb the program: same records
                failed += shadow["digest"] != session["digest"]
                shadow["layers"]["trace.overhead_s"] = (
                    shadow["loop_s"] - session["loop_s"])
                failed += not shadow["resume_matches"]
                traced.append(shadow)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            budget.record(started)
            continue
        failed += not session["resume_matches"]
        sessions.append(session)
        budget.record(started)
    if not sessions:
        raise RuntimeError("no session of {} completed".format(workload))

    steps = [step for session in sessions for step in session["steps_ms"]]
    quality = sessions[:quality_sessions]
    detail = {
        "sessions": [{key: session[key] for key in
                      ("seed", "loop_s", "resume_s", "state_bytes",
                       "improvement_factor", "digest")}
                     for session in sessions],
        "steps": len(steps),
        "tail_percentile": config["tail_pct"],
        "setups": len(setups) + len(sessions),
        "iterations": iterations,
    }
    if trace:
        metrics = {name: median([session["layers"][name]
                                 for session in traced])
                   for name in traced[0]["layers"]}
    else:
        metrics = {
            "setup_s": median(setups + [s["setup_s"] for s in sessions]),
            "loop_s": median([s["loop_s"] for s in sessions]),
            "step_p50_ms": median(steps),
            "step_tail_ms": percentile(steps, config["tail_pct"]),
            "state_mb": median([s["state_bytes"] for s in quality]) / 1e6,
            "improvement_factor": median([s["improvement_factor"]
                                          for s in quality]),
        }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "detail": detail}
