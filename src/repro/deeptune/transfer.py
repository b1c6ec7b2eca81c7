"""Transfer learning: reuse a model trained on one application for another.

The paper (§3.3) pre-trains a DTM on one application (Redis in the
evaluation) and reuses it to accelerate the search for related applications:
the subset of parameters that matter — the network-stack knobs shared by
Redis and Nginx — has already been identified, so the transferred search
starts from good candidates and avoids crash-prone regions from the first
iteration.  Transfer is a weight copy (plus scaler statistics); the target
search keeps fine-tuning the model on its own observations.

The surrogate model zoo
-----------------------

Campaigns persist their trained surrogates into a **zoo** so later
experiments can warm-start from them (``warm_start:`` on the spec,
``--warm-start`` on the CLI).  A zoo is a directory — by convention
``<campaign results dir>/zoo/`` — with this on-disk layout:

``index.json``
    The zoo manifest.  Top-level fields: ``format_version`` (currently 2)
    and ``entries``, a mapping from entry id to entry record.  Every file
    in the zoo is written through the crash-safe
    ``atomic_write_text``/``atomic_write_bytes`` staging protocol of
    :mod:`repro.platform.results` (per-pid staging file, fsync, rename),
    so a torn write can never leave a half-updated index behind.

``<entry id>.model.npz``
    The donor model's :meth:`DeepTuneModel.state_dict` (weights, RBF
    centroids, fitted scaler statistics — never the replay buffer,
    optimizer moments, or RNG state), written by :mod:`repro.statecodec`.
    It is the ``weights`` part of the model state a session checkpoint
    holds (:meth:`DeepTuneModel.export_state`), and checkpoint state uses
    the same codec.  A format 1 index, whose archives were plain
    ``np.savez`` output, reads as an empty zoo.

Entry records carry:

``id``
    ``<application>-<fingerprint>`` — the zoo key.  One entry per
    (application, space fingerprint) pair; re-publishing the same key
    keeps whichever donor saw **more observations** (ties broken by the
    lexicographically smaller experiment name), an order-independent
    merge rule so concurrent campaign workers converge on the same zoo
    no matter who finishes first.
``application`` / ``fingerprint`` / ``input_dim``
    The donor's application name, its space fingerprint (below), and the
    encoded feature width the model expects.
``observations``
    How many trials trained the donor model (0-observation models are
    never published).
``importance``
    The donor's per-parameter importance vector
    (:func:`repro.deeptune.importance.parameter_importance` over the
    donor's own history) — the Figure 5 vector donor selection compares
    against.
``model_file`` / ``model_meta``
    The ``.npz`` basename and the constructor metadata needed to rebuild
    the architecture before loading weights.
``experiment`` / ``campaign`` / ``algorithm`` / ``seed``
    Provenance of the run that produced the donor.

Fingerprint scheme and compatibility
------------------------------------

The **space fingerprint** (:func:`space_fingerprint`) is the first 12 hex
digits of the SHA-256 over the encoder's compiled geometry: total encoded
width plus every ``(parameter name, column start, column stop)`` triple in
encoding order.  Two spaces share a fingerprint exactly when they encode
to bit-compatible feature matrices, which is the compatibility rule for
transfer: a donor is eligible only when its fingerprint equals the target
space's.  Because the synthetic filler parameters of the Linux space are
derived from the space seed, this means warm-start transfers **across
applications that share the same space** (same OS version, seed,
architecture, and ``space_options``) — the paper's Figure 5 setting — and
cleanly refuses everything else.  Corrupted entries (unreadable index,
missing or truncated ``.npz``, metadata/width mismatches) raise
:class:`ZooError` from the loaders; callers fall back to cold start.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from repro import statecodec
from repro.deeptune.model import DeepTuneModel

#: conventional zoo directory name inside a campaign results tree.
ZOO_DIR_NAME = "zoo"
#: the zoo manifest file inside the zoo directory.
ZOO_INDEX_NAME = "index.json"
ZOO_FORMAT_VERSION = 2


class ZooError(RuntimeError):
    """A zoo entry could not be read (corrupted, missing, incompatible)."""


def transfer_model(source: DeepTuneModel) -> DeepTuneModel:
    """Return a new model initialized from *source*'s trained weights.

    The replay buffer is *not* carried over: the new application produces its
    own observations.  The target scaler is reset because the objective of
    the new application usually lives on a different scale (e.g. Redis req/s
    vs SQLite microseconds); the feature scaler is kept since both searches
    encode the same configuration space.
    """
    target = _model_from_metadata(_model_metadata(source))
    target.load_state_dict(source.state_dict())
    target.target_scaler = type(target.target_scaler)()
    return target


def _model_metadata(model: DeepTuneModel) -> Dict[str, Any]:
    return {
        "input_dim": model.input_dim,
        "hidden_dims": list(model.hidden_dims),
        "n_centroids": model.n_centroids,
        "gamma": model.gamma,
        "dropout": model.dropout_rate,
        "learning_rate": model.learning_rate,
        "chamfer_weight": model.chamfer_weight,
        "seed": model.seed,
        "observations": model.observation_count,
    }


def _model_from_metadata(metadata: Dict[str, Any]) -> DeepTuneModel:
    return DeepTuneModel(
        input_dim=int(metadata["input_dim"]),
        hidden_dims=tuple(metadata["hidden_dims"]),
        n_centroids=int(metadata["n_centroids"]),
        gamma=float(metadata["gamma"]),
        dropout=float(metadata["dropout"]),
        learning_rate=float(metadata["learning_rate"]),
        chamfer_weight=float(metadata["chamfer_weight"]),
        seed=int(metadata["seed"]),
    )


# -- the surrogate model zoo ------------------------------------------------------

def space_fingerprint(encoder) -> str:
    """Digest of a :class:`ConfigEncoder`'s geometry (see module docstring).

    Equal fingerprints mean the two encoders produce column-compatible
    feature matrices, which is what makes a zoo model transferable.
    """
    layout = [[parameter.name, *encoder.slice_for(parameter.name)]
              for parameter in encoder.space.parameters()]
    payload = json.dumps([encoder.width, layout], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def zoo_entry_id(application: str, fingerprint: str) -> str:
    """The zoo key for one (application, space fingerprint) pair."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in application)
    return "{}-{}".format(safe, fingerprint)


def zoo_directory(path: str) -> str:
    """Resolve *path* to a zoo directory.

    Accepts either a zoo directory itself (holding ``index.json``) or a
    campaign results directory (holding a ``zoo/`` subdirectory), so
    ``warm_start: {zoo: <campaign dir>}`` just works.
    """
    if os.path.isfile(os.path.join(path, ZOO_INDEX_NAME)):
        return path
    nested = os.path.join(path, ZOO_DIR_NAME)
    if os.path.isfile(os.path.join(nested, ZOO_INDEX_NAME)):
        return nested
    return path


def load_zoo_index(zoo_dir: str) -> Dict[str, Dict[str, Any]]:
    """The ``entries`` mapping of a zoo directory; ``{}`` when absent/corrupt.

    A missing zoo is the normal cold-start case and an unreadable index is
    treated the same way — warm-start degrades, it never aborts a run.
    """
    path = os.path.join(zoo_dir, ZOO_INDEX_NAME)
    try:
        with open(path) as handle:
            document = json.load(handle)
        if not isinstance(document, dict) \
                or document.get("format_version") != ZOO_FORMAT_VERSION:
            return {}
        entries = document.get("entries")
        return dict(entries) if isinstance(entries, dict) else {}
    except (OSError, ValueError):
        return {}


def _replaces(new: Dict[str, Any], old: Dict[str, Any]) -> bool:
    """Order-independent merge rule: more observations win, then name."""
    new_key = (int(new.get("observations", 0)),)
    old_key = (int(old.get("observations", 0)),)
    if new_key != old_key:
        return new_key > old_key
    return str(new.get("experiment") or "") < str(old.get("experiment") or "")


def publish_zoo_entry(zoo_dir: str, application: str, encoder,
                      model: DeepTuneModel, importance: Dict[str, float],
                      metadata: Optional[Dict[str, Any]] = None,
                      ) -> Optional[Dict[str, Any]]:
    """Atomically publish a trained *model* into the zoo at *zoo_dir*.

    Returns the written entry record, or ``None`` when the model has no
    observations or an existing entry for the same key wins the merge rule
    (see the module docstring).  The model archive is staged and renamed
    before the index references it, so readers never see a dangling entry.
    """
    from repro.platform.results import atomic_write_bytes, atomic_write_text

    if model.observation_count < 1:
        return None
    fingerprint = space_fingerprint(encoder)
    entry_id = zoo_entry_id(application, fingerprint)
    entry: Dict[str, Any] = {
        "id": entry_id,
        "application": application,
        "fingerprint": fingerprint,
        "input_dim": model.input_dim,
        "observations": model.observation_count,
        "importance": {name: float(value)
                       for name, value in sorted(importance.items())},
        "model_file": entry_id + ".model.npz",
        "model_meta": _model_metadata(model),
    }
    entry.update(metadata or {})
    os.makedirs(zoo_dir, exist_ok=True)
    entries = load_zoo_index(zoo_dir)
    existing = entries.get(entry_id)
    if existing is not None and not _replaces(entry, existing):
        return None
    atomic_write_bytes(os.path.join(zoo_dir, entry["model_file"]),
                       statecodec.dumps(model.state_dict()))
    entries[entry_id] = entry
    index = {"format_version": ZOO_FORMAT_VERSION, "entries": entries}
    atomic_write_text(os.path.join(zoo_dir, ZOO_INDEX_NAME),
                      json.dumps(index, indent=2, sort_keys=True) + "\n")
    return entry


def load_zoo_model(zoo_dir: str, entry: Dict[str, Any]) -> DeepTuneModel:
    """Rebuild the donor model of one zoo *entry*; :class:`ZooError` on damage."""
    try:
        model = _model_from_metadata(entry["model_meta"])
        with open(os.path.join(zoo_dir, entry["model_file"]), "rb") as handle:
            model.load_state_dict(statecodec.loads(handle.read()))
    # the codec raises ValueError for a damaged archive, but metadata or
    # arrays of the wrong shape fail in the model as almost anything; this
    # is the corruption boundary, so wrap wholesale rather than guess.
    except Exception as error:  # noqa: BLE001
        raise ZooError("unreadable zoo entry {!r}: {}".format(
            entry.get("id"), error)) from error
    if model.input_dim != int(entry.get("input_dim", model.input_dim)):
        raise ZooError("zoo entry {!r} metadata width {} does not match its "
                       "model ({})".format(entry.get("id"),
                                           entry.get("input_dim"),
                                           model.input_dim))
    return model
