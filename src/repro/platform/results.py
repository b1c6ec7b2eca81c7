"""Persistence of exploration results and session checkpoints.

The original platform stores every explored configuration and its measurements
in off-the-shelf databases so runs can be resumed, audited, and re-plotted
long after the fact.  This module provides the equivalent for the
reproduction: a JSON results store that round-trips an entire exploration
history — configurations, objectives, crash outcomes, timings — plus
first-class *checkpoints*.  A checkpoint holds the experiment spec, the
completed trial records, and a state sidecar covering the search algorithm
(RNG streams, model weights and optimizer moments, the order in which it
observed the trials), the execution backend (worker clocks, skip-build
image state), and the simulator's measurement-noise RNG — everything needed
for :meth:`Wayfinder.resume` to continue an interrupted run
*bit-identically* to the uninterrupted one.  The state holds no copy of the
trial records: a learning algorithm rebuilds its observations from them.
The state is a :mod:`repro.statecodec` archive (JSON builtins plus ``.npy``
arrays) whose length and sha256 the manifest records and the loader
verifies.  Flat CSV export for external analysis rounds the module off.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro import statecodec
from repro.config.space import ConfigSpace
from repro.platform import trialstore
from repro.platform.history import ExplorationHistory, TrialRecord
from repro.platform.metrics import (
    CompositeScoreMetric,
    LatencyMetric,
    MemoryFootprintMetric,
    Metric,
    ThroughputMetric,
)
from repro.vm.failures import FailureStage

_METRIC_CLASSES = {
    "throughput": ThroughputMetric,
    "latency": LatencyMetric,
    "memory": MemoryFootprintMetric,
    "score": CompositeScoreMetric,
}


def record_to_dict(record: TrialRecord) -> Dict[str, object]:
    """Serialize one trial record (configuration values included)."""
    return {
        "index": record.index,
        "configuration": record.configuration.as_dict(),
        "objective": record.objective,
        "crashed": record.crashed,
        "failure_stage": record.failure_stage.value,
        "failure_reason": record.failure_reason,
        "metric_value": record.metric_value,
        "memory_mb": record.memory_mb,
        "duration_s": record.duration_s,
        "started_at_s": record.started_at_s,
        "build_skipped": record.build_skipped,
        "worker": record.worker,
    }


def record_from_dict(data: Dict[str, object], space: ConfigSpace) -> TrialRecord:
    """Rebuild a trial record against *space* (values are clipped on load)."""
    configuration = space.coerce(data["configuration"])
    return TrialRecord(
        index=int(data["index"]),
        configuration=configuration,
        objective=data.get("objective"),
        crashed=bool(data.get("crashed", False)),
        failure_stage=FailureStage(data.get("failure_stage", "none")),
        failure_reason=str(data.get("failure_reason", "")),
        metric_value=data.get("metric_value"),
        memory_mb=data.get("memory_mb"),
        duration_s=float(data.get("duration_s", 0.0)),
        started_at_s=float(data.get("started_at_s", 0.0)),
        build_skipped=bool(data.get("build_skipped", False)),
        worker=int(data.get("worker", 0)),
    )


def _write_staged(path: str, data: bytes) -> str:
    """Write *data* to ``<path>.<pid>.tmp`` and fsync it; returns that path."""
    staging = "{}.{}.tmp".format(path, os.getpid())
    with open(staging, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    return staging


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Crash-safely replace *path* with *data*.

    The write goes to a per-process staging file (``<path>.<pid>.tmp``, so
    concurrent writers never clobber each other's staging), is fsynced
    before the ``os.replace``, and the directory entry is fsynced after it
    — a crash at any instant leaves either the complete old file or the
    complete new file, never a torn one.
    """
    os.replace(_write_staged(path, data), path)
    trialstore._fsync_directory(path)
    return path


def atomic_write_text(path: str, text: str) -> str:
    """Text sibling of :func:`atomic_write_bytes` (UTF-8, same protocol)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError as error:
        # EPERM: the pid exists but belongs to another user — still alive.
        return error.errno == errno.EPERM
    return True


def cleanup_stale_tmp_files(directory: str) -> List[str]:
    """Remove orphaned ``*.tmp`` staging files left behind by crashed writers.

    Staging names carry the writer's pid; a tmp file whose pid is no longer
    running (or a legacy ``.tmp`` without one) is a crash leftover and is
    deleted.  Live writers' staging files are never touched, so concurrent
    campaign workers can open stores on the same directory safely.
    """
    removed = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".tmp"):
            continue
        stem = entry[:-len(".tmp")]
        pid_text = stem.rsplit(".", 1)[-1] if "." in stem else ""
        if pid_text.isdigit() and _pid_alive(int(pid_text)):
            continue
        try:
            os.remove(os.path.join(directory, entry))
            removed.append(entry)
        except OSError:
            pass
    return removed


class ResultsStore:
    """Save and load exploration histories and checkpoints as JSON documents."""

    FORMAT_VERSION = 4
    CHECKPOINT_FORMAT_VERSION = 8
    CHECKPOINT_SUFFIX = ".checkpoint.json"
    #: columnar sidecars holding the trial rows a manifest references (see
    #: :mod:`repro.platform.trialstore`): fixed-width numeric columns in
    #: ``.trials.bin``, variable-width configuration payloads in
    #: ``.trials.jsonl``, block-compressed against its first block, its
    #: block index rebuilt from the frame headers.  Manifests carry only
    #: metadata, summaries and a ``trials`` row count, so their size does
    #: not grow with the history.  Format version 4 is the only one read
    #: or written: documents of any other version (inline records, raw
    #: sidecars, or the manifest-carried block index of version 3) are
    #: rejected with ``ValueError``.
    TRIAL_COLUMNS_SUFFIX = ".trials.bin"
    TRIAL_PAYLOADS_SUFFIX = ".trials.jsonl"
    #: a checkpoint's algorithm/backend state (a :mod:`repro.statecodec`
    #: archive).  It has two fixed slots, this name and ``.prev``; the
    #: manifest names the first and records the sha256 and length that
    #: pick its slot, so the ``.prev`` manifest keeps its state through
    #: every step of a save.
    CHECKPOINT_STATE_SUFFIX = ".checkpoint.state.npz"
    #: rolling backup of the previous checkpoint: the fallback when the
    #: current one turns out torn/corrupted.
    CHECKPOINT_BACKUP_SUFFIX = CHECKPOINT_SUFFIX + ".prev"
    #: corrupted checkpoints are set aside under this suffix (forensics),
    #: never silently deleted.
    CHECKPOINT_CORRUPT_SUFFIX = CHECKPOINT_SUFFIX + ".corrupt"

    def __init__(self, directory: str, fault_injector=None) -> None:
        self.directory = directory
        #: optional chaos hook (:class:`repro.platform.faults.FaultInjector`)
        #: that can tear checkpoint writes; ``None`` outside chaos runs.
        self.fault_injector = fault_injector
        os.makedirs(directory, exist_ok=True)
        # crash leftovers from dead writers are swept on open so a campaign
        # directory never accumulates orphaned staging files.
        cleanup_stale_tmp_files(directory)

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name + ".json")

    def history_path(self, name: str) -> str:
        """Filesystem path of the history stored under *name*."""
        return self._path(name)

    def history_trial_paths(self, name: str) -> tuple:
        """(columns, payloads) sidecar paths of the history under *name*."""
        return (os.path.join(self.directory, name + self.TRIAL_COLUMNS_SUFFIX),
                os.path.join(self.directory, name + self.TRIAL_PAYLOADS_SUFFIX))

    def checkpoint_trial_paths(self, name: str) -> tuple:
        """(columns, payloads, state) sidecar paths of the checkpoint under
        *name*; the state path is the current slot, ``.prev`` the other."""
        stem = os.path.join(self.directory, name + ".checkpoint")
        return (stem + self.TRIAL_COLUMNS_SUFFIX,
                stem + self.TRIAL_PAYLOADS_SUFFIX,
                os.path.join(self.directory,
                             name + self.CHECKPOINT_STATE_SUFFIX))

    # -- writing ---------------------------------------------------------------
    def save_history(self, name: str, history: ExplorationHistory,
                     metadata: Optional[Dict[str, object]] = None) -> str:
        """Persist *history* under *name*; returns the manifest file path.

        Trial rows go to the columnar sidecars first, then the JSON manifest
        referencing them is renamed into place — the manifest is the
        authority on the live row count, so a crash between the two writes
        leaves the previous manifest pointing at a still-valid prefix.
        """
        columns_path, payloads_path = self.history_trial_paths(name)
        records = history.records_since(0)
        columns, payloads = trialstore.serialize_records(records)
        frames, _ = trialstore.compress_payload_blocks(payloads, None)
        atomic_write_bytes(columns_path, trialstore.make_header() + columns)
        atomic_write_bytes(payloads_path,
                           trialstore.make_payload_header() + frames)
        document = {
            "format_version": self.FORMAT_VERSION,
            "metric": history.metric.name,
            "metadata": dict(metadata or {}),
            "summary": history.summary(),
            "trials": len(records),
            "trial_columns": os.path.basename(columns_path),
            "trial_payloads": os.path.basename(payloads_path),
        }
        text = json.dumps(document, separators=(",", ":")) + "\n"
        return atomic_write_text(self._path(name), text)

    # -- reading -----------------------------------------------------------------
    def list_histories(self) -> List[str]:
        """Names of every stored history, sorted: each ``.json`` manifest
        beside its own columns sidecar, checkpoints excluded."""
        entries = set(os.listdir(self.directory))
        return sorted(entry[:-5] for entry in entries
                      if entry.endswith(".json")
                      and not entry.endswith(self.CHECKPOINT_SUFFIX)
                      and entry[:-5] + self.TRIAL_COLUMNS_SUFFIX in entries)

    def load_history(self, name: str, space: ConfigSpace,
                     metric: Optional[Metric] = None) -> ExplorationHistory:
        """Load the history stored under *name*, bound to *space*."""
        document = load_history_document(self._path(name))
        if metric is None:
            metric_cls = _METRIC_CLASSES.get(document.get("metric", "throughput"),
                                             ThroughputMetric)
            metric = metric_cls()
        history = ExplorationHistory(metric)
        for entry in document["records"]:
            history.add(record_from_dict(entry, space))
        return history

    def load_metadata(self, name: str) -> Dict[str, object]:
        """Load only the metadata and summary blocks of a stored history;
        any other document (a campaign manifest) raises ``ValueError``."""
        path = self._path(name)
        document = _read_manifest(path)
        if "kind" in document:
            raise ValueError("{} is not a stored history".format(path))
        return {"metadata": document.get("metadata", {}),
                "summary": document.get("summary", {})}

    # -- checkpoints -----------------------------------------------------------------
    def checkpoint_path(self, name: str) -> str:
        """Filesystem path of the checkpoint stored under *name*."""
        return os.path.join(self.directory, name + self.CHECKPOINT_SUFFIX)

    def list_checkpoints(self) -> List[str]:
        """Names of every stored checkpoint, sorted."""
        names = []
        for entry in os.listdir(self.directory):
            if entry.endswith(self.CHECKPOINT_SUFFIX):
                names.append(entry[:-len(self.CHECKPOINT_SUFFIX)])
        return sorted(names)

    def checkpoint_backup_path(self, name: str) -> str:
        """Path of the rolling previous-checkpoint backup for *name*."""
        return os.path.join(self.directory, name + self.CHECKPOINT_BACKUP_SUFFIX)

    def save_checkpoint(self, name: str, document: Dict[str, object],
                        state: bytes) -> str:
        """Crash-safely persist a checkpoint *document* and its *state* bytes.

        Both are staged and fsynced first.  Then the current manifest
        becomes the rolling ``.prev`` backup, the current state slot moves
        to ``.prev``, and the new state is renamed into the current slot
        and made durable (directory fsync) before the new manifest that
        names it is renamed into place.  A crash at any step leaves the
        previous checkpoint or the new one loadable: each manifest finds
        its state by sha256 in either slot.  If the current checkpoint is
        ever found torn (filesystem corruption, or the chaos injector
        simulating it), :meth:`latest_valid_checkpoint` falls back to the
        backup instead of losing the run.  Returns the manifest path.
        """
        path = self.checkpoint_path(name)
        backup = self.checkpoint_backup_path(name)
        state_path = self.checkpoint_trial_paths(name)[2]
        text = json.dumps(document, separators=(",", ":")) + "\n"
        if self.fault_injector is not None:
            torn = self.fault_injector.tear(text)
            if torn is not None:
                # simulate a crash mid-write on a non-atomic path: the final
                # file holds a truncated document and the worker dies.  The
                # previous checkpoint and its state survive as the backup.
                if os.path.exists(path):
                    os.replace(path, backup)
                with open(path, "w") as handle:
                    handle.write(torn)
                self.fault_injector.die()
        staged_state = _write_staged(state_path, state)
        staged = _write_staged(path, text.encode("utf-8"))
        if os.path.exists(path):
            os.replace(path, backup)
        if os.path.exists(state_path):
            os.replace(state_path, state_path + ".prev")
        os.replace(staged_state, state_path)
        trialstore._fsync_directory(path)
        os.replace(staged, path)
        trialstore._fsync_directory(path)
        return path

    def load_checkpoint(self, name: str) -> Dict[str, object]:
        """Load the checkpoint document stored under *name*."""
        return load_checkpoint_file(self.checkpoint_path(name))

    def latest_valid_checkpoint(self, name: str) -> Optional[str]:
        """Path of the newest loadable checkpoint for *name*, or ``None``.

        A corrupted or truncated current checkpoint (manifest, trial rows or
        state) is set aside under ``.corrupt`` and the rolling ``.prev``
        backup is promoted in its place, its state moved into the current
        slot, so the caller resumes from the last good state; with neither
        file loadable the experiment simply starts fresh — corruption makes
        it *retryable*, never an exception.
        """
        path = self.checkpoint_path(name)
        backup = self.checkpoint_backup_path(name)
        for candidate in (path, backup):
            if not os.path.exists(candidate):
                continue
            try:
                document = load_checkpoint_file(candidate)
            except (ValueError, OSError):
                os.replace(candidate,
                           os.path.join(self.directory,
                                        name + self.CHECKPOINT_CORRUPT_SUFFIX))
                continue
            if candidate is not path:
                os.replace(document["state_path"],
                           self.checkpoint_trial_paths(name)[2])
                os.replace(candidate, path)
            return path
        return None

    # -- exports ---------------------------------------------------------------------
    def export_csv(self, name: str, path: str,
                   parameters: Optional[Iterable[str]] = None) -> str:
        """Export a stored history as flat CSV rows (one per trial).

        *parameters* optionally restricts the configuration columns; by
        default only the measurement columns are exported, which keeps the
        file small for spaces with hundreds of parameters.
        """
        document = load_history_document(self._path(name))
        parameter_names = list(parameters or [])
        fieldnames = ["index", "objective", "crashed", "failure_stage",
                      "metric_value", "memory_mb", "duration_s", "started_at_s",
                      "build_skipped", "worker"] + parameter_names
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            for record in document["records"]:
                row = {key: record.get(key) for key in fieldnames
                       if key not in parameter_names}
                for parameter in parameter_names:
                    row[parameter] = record.get("configuration", {}).get(parameter)
                writer.writerow(row)
        return path


def load_history_document(path: str) -> Dict[str, object]:
    """Load a stored history manifest with its records attached.

    Manifests hold no inline records; this reads the referenced prefix of
    the columnar sidecars and attaches it under ``"records"`` as
    ``record_to_dict``-shaped dicts.  Corrupt or short sidecars raise
    ``ValueError`` just like a corrupt manifest would.

    This is the materializing reader; aggregation that only needs numeric
    columns should use :func:`open_history_view` instead, which never
    parses payloads it is not asked for.
    """
    view = open_history_view(path)
    document = view.document
    document["records"] = view.record_dicts()
    return document


def open_history_view(path: str) -> trialstore.ColumnarHistoryView:
    """Open a stored history/checkpoint manifest as a lazy columnar view.

    Unlike :func:`load_history_document`, no records are materialized:
    numeric columns come straight off the mmap and payloads decode on
    demand through the sidecar's block index.  A checkpoint's version
    numbers its state file; its trial rows are those of a history.
    """
    document = _read_manifest(path)
    version = document.get("format_version")
    if version != (ResultsStore.CHECKPOINT_FORMAT_VERSION
                   if document.get("kind") == "checkpoint"
                   else ResultsStore.FORMAT_VERSION):
        raise ValueError("unsupported results format version: {!r}".format(version))
    return trialstore.ColumnarHistoryView(path, document)


def _read_manifest(path: str) -> Dict[str, object]:
    """The JSON manifest at *path*, its trial-row fields checked."""
    with open(path) as handle:
        return trialstore.check_manifest(json.load(handle), path)


class SessionCheckpointer:
    """Serializes a search session's full state through a :class:`ResultsStore`.

    Attach an instance to :attr:`SearchSession.checkpointer` (or call
    :meth:`Wayfinder.enable_checkpointing`) and the session will persist a
    resumable checkpoint every ``checkpoint_every`` batches, plus one at the
    final state.  The checkpoint embeds the experiment spec, so
    :meth:`Wayfinder.resume` can rebuild the entire experiment from the file
    alone.

    Trial rows live in the columnar sidecars and are persisted
    *incrementally*: each save appends (and fsyncs) only the records added
    since the previous save, then rewrites the small JSON manifest — so
    checkpoint cost is O(new trials since the last checkpoint), not
    O(history).  The checkpointer remembers how many rows the manifest it
    inherited referenced and truncates any sidecar tail beyond it on first
    use, which both sweeps stale leftovers on fresh runs and drops
    now-unreferenced rows when resuming from a rolled-back ``.prev``
    manifest.
    """

    def __init__(self, store: ResultsStore, name: str, spec, session) -> None:
        self.store = store
        self.name = name
        self.spec = spec
        self.session = session
        #: rows the current manifest (if any) references: the session history
        #: is pre-populated by ``restore_search_session`` before
        #: checkpointing is enabled, and empty on fresh runs.
        self._persisted = len(session.history)
        self._writer: Optional[trialstore.TrialStoreWriter] = None

    def _trial_writer(self) -> trialstore.TrialStoreWriter:
        if self._writer is None:
            columns_path, payloads_path, _ = self.store.checkpoint_trial_paths(
                self.name)
            writer = trialstore.TrialStoreWriter(columns_path, payloads_path)
            writer.rewind(min(self._persisted, writer.count))
            # with fewer durable rows than restored records (recovered from
            # an older backup manifest), the gap is simply re-appended below:
            # resume is bit-exact, so the rows are identical anyway.
            self._persisted = writer.count
            self._writer = writer
        return self._writer

    def build_document(self) -> Tuple[Dict[str, object], bytes]:
        """The manifest document and the encoded state bytes it names."""
        session = self.session
        columns_path, payloads_path, state_path = \
            self.store.checkpoint_trial_paths(self.name)
        state = statecodec.dumps({
            "algorithm": session.algorithm.export_state(),
            "backend": session.backend.export_state(),
            "batches_run": session.batches_run,
        })
        document = {
            "format_version": ResultsStore.CHECKPOINT_FORMAT_VERSION,
            "kind": "checkpoint",
            "spec": self.spec.to_dict(),
            "checkpoint_every": session.checkpoint_every,
            "metric": session.history.metric.name,
            "summary": session.history.summary(),
            "trials": len(session.history),
            "trial_columns": os.path.basename(columns_path),
            "trial_payloads": os.path.basename(payloads_path),
            "state": os.path.basename(state_path),
            "state_sha256": hashlib.sha256(state).hexdigest(),
            "state_bytes": len(state),
        }
        return document, state

    def save(self) -> str:
        writer = self._trial_writer()
        writer.extend(self.session.history.records_since(self._persisted))
        self._persisted = writer.flush()
        return self.store.save_checkpoint(self.name, *self.build_document())

    def close(self) -> None:
        """Release the sidecar file handles (superseded checkpointers)."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None


def load_checkpoint_file(path: str) -> Dict[str, object]:
    """Load and verify a checkpoint document from *path*.

    The referenced trial-row prefix is attached under ``"records"``.  The
    state slot whose length and sha256 match the manifest is decoded once
    and attached under ``"state_tree"``, its path under ``"state_path"``.
    Corruption anywhere — manifest, trial sidecars or state — and any format
    version other than ``CHECKPOINT_FORMAT_VERSION`` surface as the
    ``ValueError`` the store's ``.prev`` fallback machinery expects.
    """
    document = _read_manifest(path)
    if document.get("kind") != "checkpoint":
        raise ValueError("{} is not a session checkpoint".format(path))
    version = document.get("format_version")
    if version != ResultsStore.CHECKPOINT_FORMAT_VERSION:
        raise ValueError("unsupported checkpoint format version: {!r}".format(
            version))
    state_path, state = _read_state(path, document)
    document["records"] = trialstore.ColumnarHistoryView(
        path, document).record_dicts()
    document["state_tree"] = statecodec.loads(state)
    document["state_path"] = state_path
    return document


def _read_state(path: str, document: Dict[str, object]) -> Tuple[str, bytes]:
    """(slot path, bytes) of the state slot the manifest at *path* names."""
    size = document.get("state_bytes")
    digest = document.get("state_sha256")
    if type(size) is not int or not isinstance(digest, str):
        raise ValueError("{} does not record its state's length and "
                         "sha256".format(path))
    current = trialstore.sidecar_path(path, document, "state")
    for slot in (current, current + ".prev"):
        try:
            if os.path.getsize(slot) != size:
                continue
            with open(slot, "rb") as handle:
                state = handle.read()
        except OSError:
            continue
        if hashlib.sha256(state).hexdigest() == digest:
            return slot, state
    raise ValueError("{}: no state file matches its recorded length and "
                     "sha256".format(path))


def restore_search_session(document: Dict[str, object], session) -> None:
    """Load a checkpoint *document* into a freshly wired search session.

    The session must have been built from the same :class:`ExperimentSpec`
    the checkpoint embeds (which is what :meth:`Wayfinder.resume` does); the
    restore then replays the stored records into the history index and hands
    the decoded state tree to the algorithm (with the history, which it
    rebuilds its observations from), the execution backend, and the
    simulator, after which the run loop continues exactly where the
    checkpointed run left off.
    """
    if session.history:
        raise ValueError("can only restore a checkpoint into a fresh session")
    space = session.backend.space
    for entry in document["records"]:
        session.history.add(record_from_dict(entry, space))
    state = document["state_tree"]
    session.algorithm.import_state(state["algorithm"], session.history)
    session.backend.import_state(state["backend"])
    session.batches_run = int(state["batches_run"])
    # carry the original checkpoint cadence, so re-enabling checkpointing on
    # the resumed session defaults to the same rhythm.
    session.checkpoint_every = int(document.get("checkpoint_every", 1))
