"""Declarative experiment campaigns: grids of specs run as one unit.

The paper's headline results are not single runs but *campaigns* — grids of
OS x application x algorithm x seed experiments compared against each other
(Figures 7/8, Table 3).  A :class:`CampaignSpec` describes such a grid
declaratively: the axes to sweep (applications, algorithms, seeds, favor
presets), a ``base`` block of :class:`~repro.core.spec.ExperimentSpec`
fields shared by every grid point, and optional per-axis ``overrides``
patching individual points (e.g. "redis experiments use the latency
metric").  :meth:`CampaignSpec.expand` resolves the grid into a list of
fully-validated experiment specs with deterministic, unique names — the
unit the :class:`~repro.platform.campaign_runner.CampaignRunner` schedules
onto OS processes.

Like the experiment spec, a campaign spec is serializable
(:meth:`to_dict`/:meth:`from_dict` round-trip through JSON) and has a YAML
file form (:func:`repro.config.jobfile.load_campaign_file`), so the whole
result matrix of a paper-style evaluation is one human-editable document.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.spec import UNSPECIFIED, ExperimentSpec, canonical_favor

#: spec fields a campaign sweeps as axes; they cannot appear in ``base``
#: (``favor``/``execution`` are special: each is only an axis when the
#: corresponding ``favors``/``executions`` list is given).
_AXIS_FIELDS = ("application", "algorithm", "seed", "favor", "execution")

#: spec fields the campaign itself owns.
_RESERVED_BASE_FIELDS = ("name", "application", "algorithm", "seed")

#: match keys an override rule may constrain.
_MATCH_KEYS = _AXIS_FIELDS


def _check_axis_list(value: Any, axis: str) -> List[Any]:
    """An axis must be a real list — a bare string would silently become
    its letters (``applications: "nginx"`` → n, g, i, n, x)."""
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise ValueError(
            "campaign field {!r} must be a list (got {} {!r})".format(
                axis, type(value).__name__, value))
    return list(value)


def _unique(values: List[Any], axis: str) -> List[Any]:
    if not values:
        raise ValueError("campaign axis {!r} must not be empty".format(axis))
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError("campaign axis {!r} repeats value {!r}".format(
                axis, value))
        seen.add(value)
    return list(values)


class CampaignSpec:
    """A declarative grid of experiments sharing one base configuration."""

    FIELDS = ("name", "applications", "algorithms", "seeds", "favors",
              "executions", "base", "overrides", "chaos")

    def __init__(
        self,
        name: str,
        applications: Optional[List[str]] = None,
        algorithms: Optional[List[str]] = None,
        seeds: Optional[List[int]] = None,
        favors: Optional[List[Optional[str]]] = None,
        executions: Optional[List[str]] = None,
        base: Optional[Dict[str, Any]] = None,
        overrides: Optional[List[Dict[str, Any]]] = None,
        chaos: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(
                "campaign field 'name' must be a non-empty string "
                "(got {} {!r})".format(type(name).__name__, name))
        self.name = name
        self.applications = _unique(
            ["nginx"] if applications is None
            else _check_axis_list(applications, "applications"),
            "applications")
        self.algorithms = _unique(
            ["deeptune"] if algorithms is None
            else _check_axis_list(algorithms, "algorithms"),
            "algorithms")
        seeds = ([0] if seeds is None
                 else _check_axis_list(seeds, "seeds"))
        for seed in seeds:
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ValueError(
                    "campaign field 'seeds' must be a list of integers "
                    "(got {} {!r})".format(type(seed).__name__, seed))
        self.seeds = [int(seed) for seed in _unique(seeds, "seeds")]
        #: ``None`` means "no favor axis": every experiment uses the base's
        #: favor (or the per-OS default).  A list sweeps favor presets, with
        #: ``None``/"none" meaning explicitly unfavored.
        if favors is None:
            self.favors = None
        else:
            self.favors = _unique([canonical_favor(value) for value in
                                   _check_axis_list(favors, "favors")], "favors")
        #: ``None`` means "no execution axis": every experiment uses the
        #: base's execution mode (or the default, batch).  A list sweeps
        #: execution modes — the async-vs-batch comparison as one campaign.
        if executions is None:
            self.executions = None
        else:
            self.executions = _unique(
                _check_axis_list(executions, "executions"), "executions")
        if base is not None and not isinstance(base, dict):
            raise ValueError(
                "campaign field 'base' must be an object of spec fields "
                "(got {} {!r})".format(type(base).__name__, base))
        self.base = dict(base or {})
        bad = sorted(set(self.base) & set(_RESERVED_BASE_FIELDS))
        if bad:
            raise ValueError(
                "base cannot set {}: these are campaign axes (or the "
                "campaign's own name)".format(", ".join(bad)))
        if "favor" in self.base:
            if self.favors is not None:
                raise ValueError(
                    "base cannot set favor when the campaign sweeps a "
                    "favors axis")
            self.base["favor"] = canonical_favor(self.base["favor"])
        if "execution" in self.base and self.executions is not None:
            raise ValueError(
                "base cannot set execution when the campaign sweeps an "
                "executions axis")
        if overrides is not None and not isinstance(overrides, (list, tuple)):
            raise ValueError(
                "campaign field 'overrides' must be a list of override "
                "rules (got {} {!r})".format(type(overrides).__name__,
                                             overrides))
        self.overrides = [self._check_override(rule)
                          for rule in list(overrides or [])]
        # Imported lazily like the executor registry above: the chaos
        # vocabulary is owned by the platform's fault-injection module.
        from repro.platform.faults import validate_chaos

        #: optional fault-injection block (seed + kill/torn-write/startup
        #: failure rates) applied to every worker running this campaign;
        #: ``--chaos-*`` CLI flags override it per invocation.
        self.chaos = validate_chaos(chaos)
        # fail fast: an invalid grid point (bad metric, unknown algorithm,
        # colliding names) should surface when the campaign is built, not
        # halfway through a multi-hour run.  Every point is validated by
        # ExperimentSpec.from_dict, so base and override fields fail with
        # the same messages as a job file or an HTTP payload.
        self._expanded = self._expand()

    def _check_override(self, rule: Dict[str, Any]) -> Dict[str, Any]:
        if not isinstance(rule, dict) or set(rule) - {"match", "set"} or "set" not in rule:
            raise ValueError(
                "override rules are {{match: {{axis: value}}, set: {{spec "
                "field: value}}}} mappings (got {!r})".format(rule))
        match = dict(rule.get("match") or {})
        patch = dict(rule["set"])
        unknown = sorted(set(match) - set(_MATCH_KEYS))
        if unknown:
            raise ValueError("override can only match on {} (got {})".format(
                ", ".join(_MATCH_KEYS), ", ".join(unknown)))
        if "favor" in match:
            match["favor"] = canonical_favor(match["favor"])
        # a match value no grid point has would make the rule silently inert
        # for a whole (possibly multi-hour) campaign; fail fast instead.
        axis_values = {"application": self.applications,
                       "algorithm": self.algorithms, "seed": self.seeds,
                       "favor": (self.favors if self.favors is not None
                                 else [self.base.get("favor")]),
                       "execution": (self.executions
                                     if self.executions is not None
                                     else [self.base.get("execution", "batch")])}
        for key, value in match.items():
            if value not in axis_values[key]:
                raise ValueError(
                    "override matches {}={!r}, which no grid point "
                    "has".format(key, value))
        # the grid axes (and the derived name) are the campaign's identity:
        # patching them would make experiment names lie about what ran.
        reserved = {"name", "application", "algorithm", "seed"}
        if self.favors is not None:
            reserved.add("favor")
        if self.executions is not None:
            reserved.add("execution")
        bad = sorted(set(patch) & reserved)
        if bad:
            raise ValueError("override cannot set {}".format(", ".join(bad)))
        if "favor" in patch:
            patch["favor"] = canonical_favor(patch["favor"])
        return {"match": match, "set": patch}

    # -- expansion ---------------------------------------------------------------
    def experiment_name(self, application: str, algorithm: str, seed: int,
                        favor: Any = UNSPECIFIED,
                        execution: Any = UNSPECIFIED) -> str:
        """The deterministic name of one grid point's experiment."""
        name = "{}-{}-{}-s{}".format(self.name, application, algorithm, seed)
        if self.favors is not None:
            name += "-f{}".format("none" if favor is None else favor)
        if self.executions is not None:
            name += "-x{}".format(execution)
        return name

    def _expand(self) -> List[ExperimentSpec]:
        favor_axis: List[Any] = [UNSPECIFIED] if self.favors is None else list(self.favors)
        execution_axis: List[Any] = ([UNSPECIFIED] if self.executions is None
                                     else list(self.executions))
        specs: List[ExperimentSpec] = []
        names = set()
        for application in self.applications:
            for algorithm in self.algorithms:
                for seed in self.seeds:
                    for favor in favor_axis:
                        for execution in execution_axis:
                            fields = dict(self.base)
                            fields["application"] = application
                            fields["algorithm"] = algorithm
                            fields["seed"] = seed
                            if favor is not UNSPECIFIED:
                                fields["favor"] = favor
                            if execution is not UNSPECIFIED:
                                fields["execution"] = execution
                            point = {"application": application,
                                     "algorithm": algorithm, "seed": seed,
                                     "favor": (self.base.get("favor")
                                               if favor is UNSPECIFIED
                                               else favor),
                                     "execution": (self.base.get("execution",
                                                                 "batch")
                                                   if execution is UNSPECIFIED
                                                   else execution)}
                            for rule in self.overrides:
                                if all(point.get(key) == value
                                       for key, value in rule["match"].items()):
                                    fields.update(rule["set"])
                            name = self.experiment_name(application, algorithm,
                                                        seed, favor, execution)
                            if name in names:  # unreachable: axes are unique
                                raise ValueError(
                                    "duplicate experiment name {!r}".format(name))
                            names.add(name)
                            fields["name"] = name
                            specs.append(ExperimentSpec.from_dict(fields))
        return specs

    def expand(self) -> List[ExperimentSpec]:
        """The fully-resolved experiment specs of the grid, in axis order.

        The order is deterministic — applications outermost, then algorithms,
        seeds, the favor axis, and the execution axis — and experiment names
        are unique, which is what makes campaign manifests and
        resume-by-name well defined.
        """
        return list(self._expanded)

    def __len__(self) -> int:
        return len(self._expanded)

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialize the campaign to a JSON-representable dictionary."""
        return {
            "name": self.name,
            "applications": list(self.applications),
            "algorithms": list(self.algorithms),
            "seeds": list(self.seeds),
            "favors": None if self.favors is None else list(self.favors),
            "executions": (None if self.executions is None
                           else list(self.executions)),
            "base": dict(self.base),
            "overrides": [{"match": dict(rule["match"]),
                           "set": dict(rule["set"])} for rule in self.overrides],
            "chaos": None if self.chaos is None else dict(self.chaos),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_dict` output (unknown keys rejected)."""
        if not isinstance(data, dict):
            raise ValueError(
                "campaign payload must be a JSON object (got {})".format(
                    type(data).__name__))
        unknown = sorted(set(data) - set(cls.FIELDS))
        if unknown:
            raise ValueError("unknown campaign fields: {}".format(
                ", ".join(unknown)))
        if "name" not in data:
            raise ValueError("a campaign needs a name")
        return cls(**data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CampaignSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return ("CampaignSpec(name={!r}, apps={}, algorithms={}, seeds={}, "
                "experiments={})").format(
                    self.name, self.applications, self.algorithms, self.seeds,
                    len(self._expanded))
