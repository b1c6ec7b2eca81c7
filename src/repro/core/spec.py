"""The declarative experiment specification.

An :class:`ExperimentSpec` is the single description of one specialization
experiment: which OS and application to specialize, which metric and search
algorithm to use, the search budget, and how the evaluation fleet is shaped.
Every front-end hands :meth:`ExperimentSpec.from_dict` a plain dict — the CLI
the flags the user gave, a job file its ``job:`` block, a campaign each grid
point, the tuning service its JSON payload — so every input surface accepts
the same fields and fails with the same messages.  The
:class:`~repro.core.wayfinder.Wayfinder` constructors build one from their
keyword arguments, and the rest of the platform consumes only the spec, so a
new knob is added in exactly one place.

The spec is *fully resolved*: OS-dependent defaults (the ``favor`` preset,
the Unikraft application) are applied at construction, so two specs built
from equivalent inputs through different front-ends compare equal.  It is
also *serializable* (``to_dict``/``from_dict`` round-trip through JSON),
which is what makes checkpoints self-describing: a stored checkpoint embeds
the spec, and :meth:`Wayfinder.resume` rebuilds the entire experiment from
it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.config.parameter import ParameterKind

#: favor preset name -> parameter kinds the search concentrates on.
FAVOR_PRESETS: Dict[Optional[str], Optional[List[ParameterKind]]] = {
    "runtime": [ParameterKind.RUNTIME],
    "boot": [ParameterKind.BOOT_TIME],
    "compile": [ParameterKind.COMPILE_TIME],
    "runtime+boot": [ParameterKind.RUNTIME, ParameterKind.BOOT_TIME],
    None: None,
}

_KNOWN_METRICS = ("auto", "throughput", "performance", "latency", "memory", "score")
_KNOWN_OS = ("linux", "unikraft")

#: sentinel distinguishing "favor not specified" (use the OS default) from an
#: explicit ``favor=None`` ("do not favor any parameter kind").
UNSPECIFIED = object()


def canonical_favor(favor: Any) -> Any:
    """The spec's value for *favor*: ``"none"`` is the file and CLI spelling
    of ``None`` (explicitly unfavored); every other value passes through."""
    return None if favor == "none" else favor


def default_favor(os_name: str) -> Optional[str]:
    """The historical per-OS favor default: runtime on Linux, none on Unikraft."""
    return "runtime" if os_name == "linux" else None


def _jsonable(value: Any) -> Any:
    """Recursively normalize tuples to lists so dict round-trips compare equal.

    Values that are not JSON-representable (e.g. a pre-trained model passed
    through ``algorithm_options``) are left untouched; such specs still run
    but refuse to serialize (see :meth:`ExperimentSpec.to_dict`).
    """
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class ExperimentSpec:
    """A complete, validated description of one specialization experiment."""

    FIELDS = (
        "name", "os_name", "application", "metric", "algorithm", "favor",
        "seed", "iterations", "time_budget_s", "plateau_trials", "workers",
        "batch_size", "execution", "enable_skip_build", "frozen",
        "algorithm_options", "os_version", "architecture", "space_options",
        "warm_start",
    )

    #: accepted keys of the ``warm_start`` block -> (types, human name).
    WARM_START_KEYS: Dict[str, Any] = {
        "zoo": ((str,), "a string (zoo or campaign directory)"),
        "min_similarity": ((int, float), "a number"),
        "donor": ((str,), "a string (application name)"),
    }

    def __init__(
        self,
        os_name: str = "linux",
        application: str = "nginx",
        metric: str = "auto",
        algorithm: str = "deeptune",
        favor: Any = UNSPECIFIED,
        seed: int = 0,
        iterations: Optional[int] = None,
        time_budget_s: Optional[float] = None,
        plateau_trials: Optional[int] = None,
        workers: int = 1,
        batch_size: int = 1,
        execution: str = "batch",
        enable_skip_build: bool = True,
        frozen: Optional[Dict[str, Any]] = None,
        algorithm_options: Optional[Dict[str, Any]] = None,
        os_version: str = "v4.19",
        architecture: str = "x86_64",
        space_options: Optional[Dict[str, Any]] = None,
        warm_start: Optional[Dict[str, Any]] = None,
        name: Optional[str] = None,
    ) -> None:
        if os_name not in _KNOWN_OS:
            raise ValueError("unknown os {!r}; expected one of {}".format(
                os_name, ", ".join(_KNOWN_OS)))
        if metric not in _KNOWN_METRICS:
            raise ValueError("unknown metric {!r}; expected one of {}".format(
                metric, ", ".join(_KNOWN_METRICS)))
        # Imported here so building a spec stays cheap for the config layer.
        from repro.apps.registry import available_applications
        from repro.search.registry import available_algorithms

        # The Unikraft experiment always targets the §4.4 Nginx image, exactly
        # as the CLI has always resolved it; normalizing here keeps specs from
        # different front-ends comparable.
        if os_name == "unikraft":
            application = "unikraft-nginx"
        if application not in available_applications():
            raise ValueError("unknown application {!r}; available: {}".format(
                application, ", ".join(available_applications())))
        if algorithm not in available_algorithms():
            raise ValueError("unknown algorithm {!r}; available: {}".format(
                algorithm, ", ".join(available_algorithms())))
        if favor is UNSPECIFIED:
            favor = default_favor(os_name)
        favor = canonical_favor(favor)
        if favor not in FAVOR_PRESETS:
            raise ValueError("unknown favor preset {!r}; expected one of {} or none".format(
                favor, ", ".join(sorted(k for k in FAVOR_PRESETS if k))))
        if iterations is not None and int(iterations) < 1:
            raise ValueError("iterations must be at least 1 (got {!r})".format(iterations))
        if time_budget_s is not None and float(time_budget_s) <= 0:
            raise ValueError("time_budget_s must be positive")
        if plateau_trials is not None and int(plateau_trials) < 1:
            raise ValueError("plateau_trials must be at least 1")
        if int(workers) < 1:
            raise ValueError("workers must be at least 1")
        if int(batch_size) < 1:
            raise ValueError("batch_size must be at least 1")
        # Imported here (like the registry above) so the config layer can
        # build specs without the platform stack; the executor owns the
        # canonical mode list.
        from repro.platform.executor import EXECUTION_MODES

        if execution not in EXECUTION_MODES:
            raise ValueError("unknown execution mode {!r}; expected one of {}".format(
                execution, ", ".join(EXECUTION_MODES)))
        if warm_start is not None:
            warm_start = self._validate_warm_start(warm_start)

        self.os_name = os_name
        self.application = application
        # auto-metric on Unikraft has always meant throughput.
        if os_name == "unikraft" and metric == "auto":
            metric = "throughput"
        self.metric = metric
        self.algorithm = algorithm
        self.favor = favor
        self.seed = int(seed)
        self.iterations = None if iterations is None else int(iterations)
        self.time_budget_s = None if time_budget_s is None else float(time_budget_s)
        self.plateau_trials = None if plateau_trials is None else int(plateau_trials)
        self.workers = int(workers)
        self.batch_size = int(batch_size)
        self.execution = str(execution)
        self.enable_skip_build = bool(enable_skip_build)
        self.frozen = _jsonable(dict(frozen or {}))
        self.algorithm_options = _jsonable(dict(algorithm_options or {}))
        self.os_version = os_version
        self.architecture = architecture
        self.space_options = _jsonable(dict(space_options or {}))
        # None survives (cold start); old serialized specs have no key at
        # all, and from_dict maps both to the same spec.
        self.warm_start = None if warm_start is None else _jsonable(dict(warm_start))
        self.name = name or "{}-{}-{}".format(self.os_name, self.application,
                                              self.algorithm)

    @classmethod
    def _validate_warm_start(cls, warm_start: Any) -> Dict[str, Any]:
        """Validate a ``warm_start`` block, naming the offending key."""
        if not isinstance(warm_start, dict):
            raise ValueError(
                "spec field 'warm_start' must be an object (got {} {!r})".format(
                    type(warm_start).__name__, warm_start))
        unknown = sorted(set(warm_start) - set(cls.WARM_START_KEYS))
        if unknown:
            raise ValueError("unknown warm_start keys: {} (expected {})".format(
                ", ".join(unknown), ", ".join(sorted(cls.WARM_START_KEYS))))
        if "zoo" not in warm_start:
            raise ValueError("warm_start requires a 'zoo' key naming the zoo "
                             "(or campaign results) directory")
        for key, value in warm_start.items():
            types, expected = cls.WARM_START_KEYS[key]
            if not isinstance(value, types) or isinstance(value, bool):
                raise ValueError(
                    "warm_start key {!r} must be {} (got {} {!r})".format(
                        key, expected, type(value).__name__, value))
        similarity = warm_start.get("min_similarity")
        if similarity is not None and not 0.0 <= float(similarity) <= 1.0:
            raise ValueError("warm_start key 'min_similarity' must be within "
                             "[0, 1] (got {!r})".format(similarity))
        return dict(warm_start)

    # -- favored kinds -----------------------------------------------------------
    @property
    def favored_kinds(self) -> Optional[List[ParameterKind]]:
        """The parameter kinds the favor preset resolves to (None = all)."""
        return FAVOR_PRESETS[self.favor]

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialize the spec to a JSON-representable dictionary.

        Raises :class:`ValueError` when the spec carries non-serializable
        payloads (e.g. a live model object in ``algorithm_options``) — such
        experiments cannot be checkpointed or resumed.
        """
        data = {field: getattr(self, field) for field in self.FIELDS}
        try:
            json.dumps(data)
        except TypeError as error:
            raise ValueError(
                "spec is not serializable (non-JSON value in frozen/"
                "algorithm_options/space_options): {}".format(error)) from None
        return data

    #: per-field (accepted types, human name) for dict-payload validation.
    #: ``None`` is additionally accepted where the constructor treats it as
    #: "use the default"; booleans are never accepted where ints are (bool
    #: is an int subclass, but ``seed: true`` is a payload bug).
    FIELD_TYPES: Dict[str, Any] = {
        "name": ((str,), "a string"),
        "os_name": ((str,), "a string"),
        "application": ((str,), "a string"),
        "metric": ((str,), "a string"),
        "algorithm": ((str,), "a string"),
        "favor": ((str,), "a string or null"),
        "seed": ((int,), "an integer"),
        "iterations": ((int,), "an integer"),
        "time_budget_s": ((int, float), "a number"),
        "plateau_trials": ((int,), "an integer"),
        "workers": ((int,), "an integer"),
        "batch_size": ((int,), "an integer"),
        "execution": ((str,), "a string"),
        "enable_skip_build": ((bool,), "a boolean"),
        "frozen": ((dict,), "an object"),
        "algorithm_options": ((dict,), "an object"),
        "os_version": ((str,), "a string"),
        "architecture": ((str,), "a string"),
        "space_options": ((dict,), "an object"),
        "warm_start": ((dict,), "an object"),
    }

    #: fields where an explicit null is as good as an absent key.
    _NULLABLE = ("name", "favor", "iterations", "time_budget_s",
                 "plateau_trials", "frozen", "algorithm_options",
                 "space_options", "warm_start")

    @classmethod
    def check_field(cls, field: str, value: Any) -> None:
        """Raise a key-naming, type-naming ValueError when *value* is malformed.

        The tuning service surfaces these messages verbatim as 400 bodies,
        so they must say which key is wrong and what was expected — not
        just that ``int()`` failed somewhere.
        """
        if value is None and field in cls._NULLABLE:
            return
        types, expected = cls.FIELD_TYPES[field]
        ok = isinstance(value, types) and not (
            bool not in types and isinstance(value, bool))
        if not ok:
            raise ValueError(
                "spec field {!r} must be {} (got {} {!r})".format(
                    field, expected, type(value).__name__, value))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        if not isinstance(data, dict):
            raise ValueError("spec payload must be a JSON object (got {})".format(
                type(data).__name__))
        unknown = sorted(set(data) - set(cls.FIELDS))
        if unknown:
            raise ValueError("unknown spec fields: {}".format(", ".join(unknown)))
        for field, value in data.items():
            cls.check_field(field, value)
        kwargs = dict(data)
        # an absent favor key means "unspecified", an explicit null means
        # "unfavored" — mirror that distinction through the sentinel.
        if "favor" not in kwargs:
            kwargs["favor"] = UNSPECIFIED
        return cls(**kwargs)

    def with_overrides(self, **overrides: Any) -> "ExperimentSpec":
        """A copy of the spec with *overrides* applied (and re-validated)."""
        data = {field: getattr(self, field) for field in self.FIELDS}
        data.update(overrides)
        kwargs = {key: value for key, value in data.items() if key in self.FIELDS}
        unknown = sorted(set(overrides) - set(self.FIELDS))
        if unknown:
            raise ValueError("unknown spec fields: {}".format(", ".join(unknown)))
        return type(self)(**kwargs)

    # -- identity ----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentSpec):
            return NotImplemented
        return all(getattr(self, field) == getattr(other, field)
                   for field in self.FIELDS)

    def __repr__(self) -> str:
        return ("ExperimentSpec(os={!r}, app={!r}, metric={!r}, algorithm={!r}, "
                "seed={}, workers={}, batch_size={}, execution={!r})").format(
                    self.os_name, self.application, self.metric, self.algorithm,
                    self.seed, self.workers, self.batch_size, self.execution)
