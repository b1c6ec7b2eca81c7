"""Elastic, fault-tolerant execution of experiment campaigns.

A :class:`CampaignRunner` takes a :class:`~repro.core.campaign.CampaignSpec`
and drives its expanded experiments to completion the way artifact-evaluation
harnesses drive a paper's full result matrix — but with a *pull-based*
worker fabric instead of a push-based pool.  The campaign manifest
(``campaign.json``, atomically rewritten under a directory-wide lock) is the
single source of truth: workers **claim** experiments from it by taking a
*lease* with a deadline, renew the lease by heartbeat as the experiment
progresses (trial completions and checkpoint saves), and complete it with
an atomic manifest transition.  Nothing is ever assigned to a worker, so:

* a killed, preempted, or hung worker simply stops renewing its lease; any
  surviving worker reclaims the experiment once the deadline passes and
  resumes it bit-exactly from its last checkpoint;
* fleets are elastic — ``--procs`` may differ between invocations and even
  while a campaign is running (a second ``campaign run --resume`` on the
  same directory adds workers that claim from the same manifest);
* a failed experiment is retried with the campaign's
  :class:`~repro.platform.faults.RetryPolicy` (capped exponential backoff,
  deterministic jitter) and quarantined to ``failed-permanent`` after
  ``max_attempts`` failures, so one poisoned grid point degrades the report
  gracefully instead of aborting the grid.

Because every experiment is a deterministic function of its spec and
checkpoints restore bit-exactly, the per-experiment records and summaries
are byte-identical whatever the process count, interruption pattern, or
injected fault schedule — the property ``tests/test_campaign.py`` and
``tests/test_chaos.py`` pin.  Chaos mode (a ``chaos:`` block on the
campaign spec or ``--chaos-*`` CLI flags) wires a seeded
:class:`~repro.platform.faults.FaultInjector` into every worker to prove it.

Worker mutual exclusion uses an advisory ``flock`` on a lock file next to
the manifest, so the fabric assumes a shared (local) campaign directory; on
platforms without ``fcntl`` the lock degrades to a no-op and only
single-worker campaigns are safe.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.campaign import CampaignSpec
from repro.core.spec import ExperimentSpec
from repro.core.wayfinder import Wayfinder
from repro.platform.faults import (FaultInjector, RetryPolicy, WorkerKilled,
                                   validate_chaos)
from repro.platform.lifecycle import SessionObserver
from repro.platform.results import ResultsStore, atomic_write_text

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

MANIFEST_NAME = "campaign.json"
LOCK_NAME = ".campaign.lock"
MANIFEST_FORMAT_VERSION = 2

#: terminal experiment status: results are on disk and will not be re-run.
STATUS_COMPLETE = "complete"
#: the experiment has not produced a stored history yet (it may have left a
#: checkpoint to resume from).
STATUS_PENDING = "pending"
#: a worker holds a live lease on the experiment.
STATUS_LEASED = "leased"
#: the experiment raised; it is retried once its backoff delay passes.
STATUS_FAILED = "failed"
#: the experiment exhausted its retry budget and is quarantined.
STATUS_FAILED_PERMANENT = "failed-permanent"

TERMINAL_STATUSES = (STATUS_COMPLETE, STATUS_FAILED_PERMANENT)

#: default lease duration; heartbeats renew well inside it.
DEFAULT_LEASE_S = 30.0

#: idle worker poll interval while waiting on leases/backoffs.
_POLL_S = 0.05


def _manifest_path(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


def load_manifest(directory: str) -> Dict[str, Any]:
    """Load and validate the campaign manifest stored in *directory*."""
    path = _manifest_path(directory)
    with open(path) as handle:
        document = json.load(handle)
    if document.get("kind") != "campaign":
        raise ValueError("{} is not a campaign manifest".format(path))
    version = document.get("format_version")
    if version != MANIFEST_FORMAT_VERSION:
        raise ValueError("unsupported campaign manifest version: {!r}".format(
            version))
    return document


def _write_manifest(directory: str, document: Dict[str, Any]) -> str:
    """Atomically (staged + fsync + rename) rewrite the manifest."""
    text = json.dumps(document, indent=2) + "\n"
    return atomic_write_text(_manifest_path(directory), text)


class LeaseLost(BaseException):
    """This worker's lease was reclaimed by another worker.

    Raised by the heartbeat when the manifest no longer carries this
    worker's fencing token — the worker was presumed dead (e.g. it hung
    past its lease deadline) and must abandon the experiment without
    touching the manifest.  Derives from :class:`BaseException` so the
    experiment's ``except Exception`` guard cannot convert it into a
    ``failed`` outcome.
    """


class _ManifestLock:
    """Advisory inter-process lock serializing manifest mutations."""

    def __init__(self, directory: str) -> None:
        self.path = os.path.join(directory, LOCK_NAME)
        self._handle = None

    def __enter__(self) -> "_ManifestLock":
        self._handle = open(self.path, "a+")
        if fcntl is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            if fcntl is not None:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None


def _invocation(manifest: Dict[str, Any]) -> Dict[str, Any]:
    return manifest.get("invocation") or {"budget": None, "started": []}


def _within_budget(entry: Dict[str, Any], invocation: Dict[str, Any]) -> bool:
    budget = invocation.get("budget")
    started = invocation.get("started") or []
    return (budget is None or entry["name"] in started
            or len(started) < budget)


def _open_work(manifest: Dict[str, Any], now: float) -> bool:
    """True while this invocation still has (or is waiting on) work.

    Open work is any non-terminal experiment that is either claimable
    within the invocation's budget (now, or after a lease/backoff expires)
    or leased with an unexpired deadline (someone is presumed working it).
    """
    invocation = _invocation(manifest)
    for entry in manifest["experiments"]:
        if entry["status"] in TERMINAL_STATUSES:
            continue
        if entry["status"] == STATUS_LEASED:
            lease = entry.get("lease") or {}
            if float(lease.get("deadline_s", 0.0)) > now:
                return True
        if _within_budget(entry, invocation):
            return True
    return False


def _claim_next(directory: str, lock: _ManifestLock, incarnation: int,
                lease_s: float) -> Tuple[Optional[Dict[str, Any]],
                                         Optional[float]]:
    """Atomically claim the next runnable experiment.

    Returns ``(claim, None)`` on success — *claim* carries the manifest
    entry plus the fencing ``token`` the claimant must present on every
    lease renewal and on completion.  Returns ``(None, wait_s)`` when work
    exists but is gated behind a live lease or a retry backoff, and
    ``(None, None)`` when this invocation has nothing left to do.
    """
    with lock:
        manifest = load_manifest(directory)
        invocation = _invocation(manifest)
        now = time.time()
        wait_until: Optional[float] = None
        for entry in manifest["experiments"]:
            if entry["status"] in TERMINAL_STATUSES:
                continue
            if entry["status"] == STATUS_LEASED:
                lease = entry.get("lease") or {}
                deadline = float(lease.get("deadline_s", 0.0))
                if deadline > now:
                    wait_until = deadline if wait_until is None else min(
                        wait_until, deadline)
                    continue
                # stale lease: the holder is dead or hung — reclaimable.
            if not _within_budget(entry, invocation):
                continue
            if entry["status"] == STATUS_FAILED:
                retry_at = entry.get("retry_at")
                if retry_at is not None and float(retry_at) > now:
                    wait_until = float(retry_at) if wait_until is None else min(
                        wait_until, float(retry_at))
                    continue
            entry["claims"] = int(entry.get("claims", 0)) + 1
            token = "{}:{}".format(incarnation, entry["claims"])
            entry["status"] = STATUS_LEASED
            entry["lease"] = {"worker": incarnation, "token": token,
                              "deadline_s": now + lease_s}
            started = list(invocation.get("started") or [])
            if entry["name"] not in started:
                started.append(entry["name"])
            if manifest.get("invocation") is not None:
                manifest["invocation"] = {
                    "budget": invocation.get("budget"), "started": started}
            _write_manifest(directory, manifest)
            return dict(entry, token=token), None
        if wait_until is None:
            return None, None
        return None, max(0.0, wait_until - now)


def _renew_lease(directory: str, lock: _ManifestLock, name: str, token: str,
                 lease_s: float) -> None:
    """Extend the lease deadline; raises :class:`LeaseLost` when fenced off."""
    with lock:
        manifest = load_manifest(directory)
        for entry in manifest["experiments"]:
            if entry["name"] != name:
                continue
            lease = entry.get("lease") or {}
            if entry["status"] != STATUS_LEASED or lease.get("token") != token:
                raise LeaseLost(name)
            lease["deadline_s"] = time.time() + lease_s
            entry["lease"] = lease
            _write_manifest(directory, manifest)
            return
    raise LeaseLost(name)


def _finish(directory: str, lock: _ManifestLock, name: str, token: str,
            outcome: Dict[str, Any],
            policy: RetryPolicy) -> Optional[Dict[str, Any]]:
    """Atomically transition a leased experiment to its outcome status.

    A completion becomes ``complete``; a failure increments the attempt
    counter and either schedules a retry (``failed`` + ``retry_at``) or
    quarantines the experiment (``failed-permanent``).  When the presented
    fencing *token* no longer matches the lease the result is discarded
    (another worker owns the experiment now) and ``None`` is returned.
    The write that makes the last experiment terminal also flips the
    manifest ``state`` to ``complete`` — campaign completion is a single
    atomic transition.
    """
    with lock:
        manifest = load_manifest(directory)
        for entry in manifest["experiments"]:
            if entry["name"] != name:
                continue
            lease = entry.get("lease") or {}
            if entry["status"] != STATUS_LEASED or lease.get("token") != token:
                return None
            entry["lease"] = None
            if outcome["status"] == STATUS_COMPLETE:
                entry.update(status=STATUS_COMPLETE,
                             summary=outcome["summary"], error=None,
                             retry_at=None)
            else:
                entry["attempts"] = int(entry.get("attempts", 0)) + 1
                entry["error"] = outcome["error"]
                entry["summary"] = None
                if policy.exhausted(entry["attempts"]):
                    entry["status"] = STATUS_FAILED_PERMANENT
                    entry["retry_at"] = None
                else:
                    entry["status"] = STATUS_FAILED
                    entry["retry_at"] = time.time() + policy.delay_s(
                        name, entry["attempts"])
            if all(e["status"] in TERMINAL_STATUSES
                   for e in manifest["experiments"]):
                manifest["state"] = "complete"
            _write_manifest(directory, manifest)
            return {"name": name, "status": entry["status"],
                    "summary": entry["summary"], "error": entry["error"]}
    return None


class _LeaseHeartbeat(SessionObserver):
    """Renews the worker's lease as the experiment progresses.

    Trial completions and checkpoint saves are the completion events of the
    fabric: each renews the lease (rate-limited to a third of the lease
    duration so the manifest is not rewritten per trial on fast spaces),
    and checkpoint saves double as the chaos injector's kill sites — a kill
    only ever fires *after* state was durably saved, so chaos runs always
    make forward progress.
    """

    def __init__(self, directory: str, lock: _ManifestLock, name: str,
                 token: str, lease_s: float,
                 injector: Optional[FaultInjector]) -> None:
        self.directory = directory
        self.lock = lock
        self.name = name
        self.token = token
        self.lease_s = lease_s
        self.injector = injector
        self._last_renewal = time.time()

    def _renew(self) -> None:
        now = time.time()
        if now - self._last_renewal < self.lease_s / 3.0:
            return
        _renew_lease(self.directory, self.lock, self.name, self.token,
                     self.lease_s)
        self._last_renewal = now

    def on_trial(self, session, record) -> None:
        self._renew()

    def on_checkpoint(self, session, path) -> None:
        self._renew()
        if self.injector is not None:
            self.injector.maybe_kill()


def _publish_to_zoo(directory: str, lock: _ManifestLock,
                    wayfinder: Wayfinder, spec: ExperimentSpec,
                    campaign_name: str, result) -> None:
    """Persist a completed experiment's trained surrogate into the zoo.

    Only DeepTune experiments publish (the model is the search's own
    surrogate); the entry — model weights plus the Figure 5 parameter-
    importance vector of the run's history — goes to ``<directory>/zoo/``
    keyed by (application, space fingerprint), read-modify-written under
    the manifest lock so concurrent workers cannot interleave index
    updates.  Publication is strictly best-effort: a zoo failure must
    never turn a completed experiment into a failed one, so every error
    is swallowed here.
    """
    try:
        from repro.deeptune.importance import parameter_importance
        from repro.deeptune.transfer import ZOO_DIR_NAME, publish_zoo_entry

        encoder = getattr(wayfinder.algorithm, "encoder", None)
        model = wayfinder.trained_model()
        if encoder is None or model is None or spec.algorithm != "deeptune":
            return
        features, objectives, _ = result.history.training_arrays(encoder)
        importance = parameter_importance(encoder, features, objectives)
        with lock:
            publish_zoo_entry(
                os.path.join(directory, ZOO_DIR_NAME), spec.application,
                encoder, model, importance, metadata={
                    "experiment": spec.name,
                    "campaign": campaign_name,
                    "algorithm": spec.algorithm,
                    "seed": spec.seed,
                })
    except Exception:  # noqa: BLE001 - zoo writes are best-effort
        pass


def _run_claimed(directory: str, lock: _ManifestLock, claim: Dict[str, Any],
                 checkpoint_every: int, campaign_name: str, lease_s: float,
                 injector: Optional[FaultInjector],
                 observer_factory: Optional[Callable[[Dict[str, Any]],
                                                     Any]] = None,
                 ) -> Dict[str, Any]:
    """Run one claimed experiment to completion inside the claiming worker.

    Resumes from the experiment's newest *valid* checkpoint when one exists
    (a torn/corrupted checkpoint falls back to the previous good one, or to
    a fresh start), checkpoints every ``checkpoint_every`` batches, and
    finishes by persisting the exploration history.  Exceptions are
    captured and returned as a ``failed`` outcome so one broken grid point
    cannot take down the campaign; injected deaths and lost leases are
    :class:`BaseException`\\ s and propagate to the worker loop.

    *observer_factory*, when given, is called with the manifest *claim*
    and returns extra :class:`SessionObserver` instances attached next to
    the lease heartbeat — the hook the tuning service uses to bridge
    session events onto its per-job subscription queues without the
    engine knowing the service exists.
    """
    spec_data = claim["spec"]
    name = spec_data.get("name", "<unnamed>")
    try:
        if injector is not None:
            injector.maybe_fail_startup(name)
        spec = ExperimentSpec.from_dict(spec_data)
        store = ResultsStore(directory, fault_injector=injector)
        checkpoint_path = store.latest_valid_checkpoint(spec.name)
        if checkpoint_path is not None:
            wayfinder = Wayfinder.resume(checkpoint_path)
        else:
            wayfinder = Wayfinder.from_spec(spec)
        wayfinder.enable_checkpointing(store, name=spec.name,
                                       every=checkpoint_every)
        wayfinder.add_observer(_LeaseHeartbeat(
            directory, lock, spec.name, claim["token"], lease_s, injector))
        if observer_factory is not None:
            for observer in observer_factory(claim) or ():
                wayfinder.add_observer(observer)
        result = wayfinder.specialize()
        summary = result.summary()
        # donor provenance is deterministic (a function of the spec and the
        # external zoo bytes) and survives resume via the algorithm state,
        # so it is safe inside the byte-equality-pinned summary.
        provenance = getattr(wayfinder.algorithm, "provenance", None)
        if provenance is not None:
            summary["warm_start"] = provenance
        store.save_history(spec.name, result.history, metadata={
            "campaign": campaign_name,
            "experiment": spec.name,
            "application": spec.application,
            "algorithm": spec.algorithm,
            "seed": spec.seed,
            "favor": spec.favor,
            "metric": summary.get("metric"),
            "workers": spec.workers,
            "batch_size": spec.batch_size,
            "execution": spec.execution,
            "stop_reason": summary.get("stop_reason"),
        })
        _publish_to_zoo(directory, lock, wayfinder, spec, campaign_name,
                        result)
        return {"name": spec.name, "status": STATUS_COMPLETE,
                "summary": summary, "error": None}
    except Exception:
        return {"name": name, "status": STATUS_FAILED, "summary": None,
                "error": traceback.format_exc()}


def _worker_loop(payload: Dict[str, Any],
                 on_outcome: Optional[Callable[[Dict[str, Any]], None]] = None,
                 observer_factory: Optional[Callable[[Dict[str, Any]],
                                                     Any]] = None,
                 ) -> None:
    """The pull loop one worker runs until the invocation has no open work.

    This is *the* claim/execute loop of the fabric — the CLI's campaign
    workers (inline and subprocess) and the tuning service's job executor
    all drive campaigns through it, so lease, retry, and chaos semantics
    cannot drift between front-ends.

    Claims experiments from the manifest, runs them under a heartbeat, and
    transitions them to their outcome.  An injected death in a subprocess
    worker ``os._exit``\\ s from inside the injector; in an in-process
    worker it surfaces here as :class:`WorkerKilled` and is treated exactly
    like a process death — the lease is abandoned to expire, and the loop
    continues as a fresh worker incarnation (the "replacement" worker).
    """
    directory = payload["directory"]
    lease_s = payload["lease_s"]
    policy = RetryPolicy.from_dict(payload["retry"])
    incarnation = payload["incarnation"]
    inline = payload.get("inline", False)
    injector = FaultInjector.from_config(payload.get("chaos"),
                                         incarnation=incarnation)
    if injector is not None and not inline:
        injector.hard_exit = True
    lock = _ManifestLock(directory)
    while True:
        claim, wait_s = _claim_next(directory, lock, incarnation, lease_s)
        if claim is None:
            if wait_s is None:
                return
            time.sleep(min(max(wait_s, 0.0), _POLL_S) or _POLL_S)
            continue
        try:
            outcome = _run_claimed(
                directory, lock, claim, payload["checkpoint_every"],
                payload["campaign"], lease_s, injector,
                observer_factory=observer_factory)
            recorded = _finish(directory, lock, claim["name"], claim["token"],
                               outcome, policy)
            if recorded is not None and on_outcome is not None:
                on_outcome(recorded)
            if injector is not None:
                # an experiment transition is a completion event too
                injector.maybe_kill()
        except LeaseLost:
            continue  # fenced off: another worker owns the experiment now
        except WorkerKilled:
            # simulated kill -9 (in-process worker): abandon the lease and
            # come back as the next incarnation, like a respawned process.
            incarnation += 1
            injector = FaultInjector.from_config(payload.get("chaos"),
                                                 incarnation=incarnation)


def _worker_main(payload: Dict[str, Any]) -> None:
    """Subprocess entry point (top-level so it survives spawn pickling)."""
    _worker_loop(payload)


class CampaignResult:
    """Final state of one :meth:`CampaignRunner.run` invocation."""

    def __init__(self, directory: str, manifest: Dict[str, Any]) -> None:
        self.directory = directory
        self.manifest = manifest

    @property
    def experiments(self) -> List[Dict[str, Any]]:
        return list(self.manifest["experiments"])

    def _by_status(self, *statuses: str) -> List[Dict[str, Any]]:
        return [entry for entry in self.manifest["experiments"]
                if entry["status"] in statuses]

    @property
    def completed(self) -> List[Dict[str, Any]]:
        return self._by_status(STATUS_COMPLETE)

    @property
    def failed(self) -> List[Dict[str, Any]]:
        """Experiments whose last attempt failed (quarantined ones included)."""
        return self._by_status(STATUS_FAILED, STATUS_FAILED_PERMANENT)

    @property
    def quarantined(self) -> List[Dict[str, Any]]:
        """Experiments that exhausted their retry budget."""
        return self._by_status(STATUS_FAILED_PERMANENT)

    @property
    def pending(self) -> List[Dict[str, Any]]:
        return self._by_status(STATUS_PENDING)

    @property
    def ok(self) -> bool:
        """True when every experiment of the grid completed."""
        return len(self.completed) == len(self.manifest["experiments"])

    def __repr__(self) -> str:
        return "CampaignResult(dir={!r}, complete={}, failed={}, pending={})".format(
            self.directory, len(self.completed), len(self.failed),
            len(self.pending))


class CampaignRunner:
    """Executes a campaign's grid on an elastic pull-based worker fabric."""

    def __init__(self, campaign: CampaignSpec, directory: str, procs: int = 1,
                 checkpoint_every: int = 1, lease_s: float = DEFAULT_LEASE_S,
                 retry: Optional[RetryPolicy] = None,
                 chaos: Optional[Dict[str, Any]] = None) -> None:
        if procs < 1:
            raise ValueError("procs must be at least 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint cadence must be at least 1 batch")
        if lease_s <= 0:
            raise ValueError("lease duration must be positive")
        self.campaign = campaign
        self.directory = directory
        self.procs = procs
        self.checkpoint_every = checkpoint_every
        self.lease_s = float(lease_s)
        self.retry = retry if retry is not None else RetryPolicy()
        # the spec's chaos block is the baseline; an explicit chaos argument
        # (the CLI's --chaos-* flags) patches over it for this runner only.
        merged = dict(campaign.chaos or {})
        merged.update(chaos or {})
        self.chaos = validate_chaos(merged) if merged else None

    @classmethod
    def open(cls, directory: str, procs: int = 1,
             checkpoint_every: Optional[int] = None,
             lease_s: Optional[float] = None,
             retry: Optional[RetryPolicy] = None,
             chaos: Optional[Dict[str, Any]] = None) -> "CampaignRunner":
        """Reattach to an existing campaign directory (for ``--resume``).

        The campaign spec and checkpoint cadence are read back from the
        manifest, so resuming needs nothing but the directory — and the
        worker count may freely differ from the previous invocation's.
        """
        manifest = load_manifest(directory)
        campaign = CampaignSpec.from_dict(manifest["campaign"])
        if checkpoint_every is None:
            checkpoint_every = int(manifest.get("checkpoint_every", 1))
        return cls(campaign, directory, procs=procs,
                   checkpoint_every=checkpoint_every,
                   lease_s=DEFAULT_LEASE_S if lease_s is None else lease_s,
                   retry=retry, chaos=chaos)

    # -- manifest handling -------------------------------------------------------
    def _fresh_entry(self, spec: ExperimentSpec) -> Dict[str, Any]:
        return {"name": spec.name, "spec": spec.to_dict(),
                "status": STATUS_PENDING, "summary": None, "error": None,
                "attempts": 0, "claims": 0, "lease": None, "retry_at": None}

    def _fresh_manifest(self) -> Dict[str, Any]:
        return {
            "format_version": MANIFEST_FORMAT_VERSION,
            "kind": "campaign",
            "campaign": self.campaign.to_dict(),
            "checkpoint_every": self.checkpoint_every,
            "state": "running",
            "invocation": None,
            "experiments": [self._fresh_entry(spec)
                            for spec in self.campaign.expand()],
        }

    @staticmethod
    def _campaign_identity(data: Dict[str, Any]) -> Dict[str, Any]:
        # the chaos block configures fault injection, not the grid: resuming
        # with different chaos settings is legitimate (e.g. a clean rerun of
        # a chaos campaign), so it is excluded from the identity check.
        return {key: value for key, value in data.items() if key != "chaos"}

    def _reconcile_manifest(self) -> Dict[str, Any]:
        """Merge the stored manifest into a fresh one for a resumed run.

        Completed experiments keep their status only while their stored
        history is actually present — a half-written campaign directory
        degrades to re-running, never to silently missing results.  Live
        leases are preserved (a concurrent invocation may be working them);
        expired ones are cleared.  Failed experiments keep their attempt
        counters and backoff; quarantined ones get a fresh retry budget —
        an explicit resume is the operator asking for another try.
        """
        stored = load_manifest(self.directory)
        if (self._campaign_identity(stored["campaign"])
                != self._campaign_identity(self.campaign.to_dict())):
            raise ValueError(
                "campaign spec does not match the one stored in {}; resume "
                "the original campaign or use a fresh directory".format(
                    self.directory))
        previous = {entry["name"]: entry for entry in stored["experiments"]}
        store = ResultsStore(self.directory)
        manifest = self._fresh_manifest()
        now = time.time()
        for entry in manifest["experiments"]:
            old = previous.get(entry["name"])
            if old is None:
                continue
            status = old["status"]
            entry["attempts"] = int(old.get("attempts", 0))
            entry["claims"] = int(old.get("claims", 0))
            if (status == STATUS_COMPLETE
                    and os.path.exists(store.history_path(entry["name"]))):
                entry.update(status=STATUS_COMPLETE,
                             summary=old.get("summary"), error=None)
            elif status == STATUS_LEASED:
                lease = old.get("lease") or {}
                if float(lease.get("deadline_s", 0.0)) > now:
                    entry.update(status=STATUS_LEASED, lease=lease,
                                 error=old.get("error"))
            elif status == STATUS_FAILED:
                entry.update(status=STATUS_FAILED, error=old.get("error"),
                             retry_at=old.get("retry_at"))
            elif status == STATUS_FAILED_PERMANENT:
                entry.update(error=old.get("error"), attempts=0)
        return manifest

    # -- running -----------------------------------------------------------------
    def _prepare_manifest(self, resume: bool,
                          max_experiments: Optional[int]) -> Dict[str, Any]:
        if resume and os.path.exists(_manifest_path(self.directory)):
            manifest = self._reconcile_manifest()
        elif os.path.exists(_manifest_path(self.directory)):
            raise ValueError(
                "{} already holds a campaign; pass resume=True to continue "
                "it or choose a fresh directory".format(self.directory))
        else:
            manifest = self._fresh_manifest()
        manifest["state"] = "complete" if all(
            entry["status"] in TERMINAL_STATUSES
            for entry in manifest["experiments"]) else "running"
        manifest["invocation"] = {"budget": max_experiments, "started": []}
        _write_manifest(self.directory, manifest)
        return manifest

    def _worker_payload(self, incarnation: int, inline: bool) -> Dict[str, Any]:
        return {"directory": self.directory, "incarnation": incarnation,
                "lease_s": self.lease_s, "retry": self.retry.to_dict(),
                "chaos": self.chaos, "checkpoint_every": self.checkpoint_every,
                "campaign": self.campaign.name, "inline": inline}

    def _finalize(self) -> Dict[str, Any]:
        with _ManifestLock(self.directory):
            manifest = load_manifest(self.directory)
            manifest["invocation"] = None
            manifest["state"] = "complete" if all(
                entry["status"] in TERMINAL_STATUSES
                for entry in manifest["experiments"]) else "running"
            _write_manifest(self.directory, manifest)
        return manifest

    def prepare(self, resume: bool = False,
                max_experiments: Optional[int] = None) -> Dict[str, Any]:
        """Materialize (or reconcile) the campaign manifest without running.

        This is the first half of :meth:`run`, exposed so a front-end can
        make a campaign durable *before* any worker touches it — the tuning
        service writes the manifest at submission time, which is what makes
        a queued-but-not-yet-started job recoverable from disk alone after
        a server crash.  Safe to call again later with ``resume=True``.
        """
        os.makedirs(self.directory, exist_ok=True)
        with _ManifestLock(self.directory):
            return self._prepare_manifest(resume, max_experiments)

    def run(self, resume: bool = False,
            max_experiments: Optional[int] = None,
            progress: Optional[Callable[[Dict[str, Any], int, int], None]] = None,
            observer_factory: Optional[Callable[[Dict[str, Any]],
                                                Any]] = None,
            ) -> CampaignResult:
        """Run (or continue) the campaign; returns its final state.

        With ``resume=True`` the manifest in the campaign directory decides
        what is left to do; without it the directory must not already hold a
        campaign.  *max_experiments* caps how many distinct experiments this
        invocation claims (useful for smoke runs and for testing the resume
        path); the manifest keeps the rest ``pending``.  *progress* is
        called after each experiment reaches a terminal or retryable state
        with ``(outcome, done, total)``.  *observer_factory* (inline
        fleets only: observers cannot cross a process boundary) is called
        with each manifest claim and returns extra session observers to
        attach — the tuning service's event bridge.
        """
        if observer_factory is not None and self.procs != 1:
            raise ValueError(
                "observer_factory requires an inline fleet (procs=1): "
                "observers cannot be sent to subprocess workers")
        manifest = self.prepare(resume, max_experiments)

        todo = [entry for entry in manifest["experiments"]
                if entry["status"] not in TERMINAL_STATUSES]
        total = len(todo) if max_experiments is None else min(
            len(todo), max_experiments)
        done = 0

        def report(outcome: Dict[str, Any]) -> None:
            nonlocal done
            if outcome["status"] in TERMINAL_STATUSES:
                done += 1
            if progress is not None:
                progress(outcome, done, total)

        if self.procs == 1:
            _worker_loop(self._worker_payload(incarnation=0, inline=True),
                         on_outcome=report,
                         observer_factory=observer_factory)
        else:
            self._run_fleet(report)
        return CampaignResult(self.directory, self._finalize())

    def _run_fleet(self, report: Callable[[Dict[str, Any]], None]) -> None:
        """Spawn, monitor, and replace subprocess workers until drained.

        Workers exit on their own once the invocation has no open work; the
        parent's only jobs are respawning replacements for dead workers
        while open work remains (so a chaos kill or preemption never
        strands the campaign) and folding manifest transitions into the
        *report* callback.
        """
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        incarnation = 0
        workers: List[multiprocessing.Process] = []
        reported: Dict[str, str] = {}

        def spawn() -> None:
            nonlocal incarnation
            process = context.Process(
                target=_worker_main,
                args=(self._worker_payload(incarnation, inline=False),))
            process.daemon = True
            process.start()
            incarnation += 1
            workers.append(process)

        def scan() -> bool:
            manifest = load_manifest(self.directory)
            for entry in manifest["experiments"]:
                status = entry["status"]
                if status in (STATUS_PENDING, STATUS_LEASED):
                    continue
                marker = "{}:{}".format(status, entry.get("attempts", 0))
                if reported.get(entry["name"]) != marker:
                    reported[entry["name"]] = marker
                    report({"name": entry["name"], "status": status,
                            "summary": entry["summary"],
                            "error": entry["error"]})
            return _open_work(manifest, time.time())

        manifest = load_manifest(self.directory)
        # seed the reported map so resumed campaigns do not re-announce
        # experiments finished by previous invocations
        for entry in manifest["experiments"]:
            if entry["status"] not in (STATUS_PENDING, STATUS_LEASED):
                reported[entry["name"]] = "{}:{}".format(
                    entry["status"], entry.get("attempts", 0))
        for _ in range(min(self.procs,
                           max(1, sum(1 for e in manifest["experiments"]
                                      if e["status"] not in TERMINAL_STATUSES)))):
            spawn()
        while True:
            open_work = scan()
            workers[:] = [w for w in workers if w.is_alive()]
            if not open_work and not workers:
                break
            if open_work:
                while len(workers) < self.procs:
                    spawn()
            time.sleep(_POLL_S)
        scan()
