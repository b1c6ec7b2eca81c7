"""Job files: the on-disk description of an exploration.

Wayfinder takes as input "job files" describing the configuration space of
the target OS, the application and bench tool to run, and the search budget
(§3.1, §3.4).  The original system uses YAML; this reproduction ships a small
self-contained YAML-subset reader/writer (mappings, lists, scalars, comments)
so job files remain human-editable without adding a dependency, plus JSON as
an alternate format.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.config.parameter import (
    BoolParameter,
    CategoricalParameter,
    HexParameter,
    IntParameter,
    Parameter,
    ParameterKind,
    StringParameter,
    TristateParameter,
)
from repro.config.space import ConfigSpace


# ---------------------------------------------------------------------------
# Minimal YAML subset
# ---------------------------------------------------------------------------

def _looks_numeric(text: str) -> bool:
    """True when the scalar parser would read *text* back as an int/float.

    Mirrors :func:`_parse_scalar`: ``int(text, 0)`` also accepts hex/octal/
    binary literals ("0x1f", "0o7", "0b101") and ``float`` accepts exponent
    and nan/inf spellings ("1e3", "nan", "-inf").
    """
    try:
        int(text, 0)
        return True
    except ValueError:
        pass
    try:
        float(text)
        return True
    except ValueError:
        return False


def _render_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    needs_quotes = (
        text == ""
        or text.strip() != text
        # "-x" at the start of a list item reads as nested-list syntax, and
        # "?" is a YAML indicator; quote both so the string survives.
        or text[0] in "-?"
        or any(ch in text for ch in ":#{}[],&*!|>'\"%@`")
        or text.lower() in ("null", "true", "false", "yes", "no", "~")
        # numeric-looking strings ("1.5", "007", "0x1f", "nan") would parse
        # back as numbers; quoting keeps the round trip type-faithful.
        or _looks_numeric(text)
    )
    if needs_quotes:
        return json.dumps(text)
    return text


def _dump_node(node: Any, indent: int, lines: List[str]) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        if not node:
            lines.append(pad + "{}")
            return
        for key, value in node.items():
            if isinstance(value, (dict, list)) and value:
                lines.append("{}{}:".format(pad, key))
                _dump_node(value, indent + 1, lines)
            else:
                lines.append("{}{}: {}".format(pad, key, _render_scalar(value) if not isinstance(value, (dict, list)) else ("{}" if isinstance(value, dict) else "[]")))
    elif isinstance(node, list):
        if not node:
            lines.append(pad + "[]")
            return
        for item in node:
            if isinstance(item, (dict, list)) and item:
                lines.append(pad + "-")
                _dump_node(item, indent + 1, lines)
            else:
                lines.append("{}- {}".format(pad, _render_scalar(item) if not isinstance(item, (dict, list)) else ("{}" if isinstance(item, dict) else "[]")))
    else:
        lines.append(pad + _render_scalar(node))


def dump_yaml(data: Any) -> str:
    """Render *data* (dicts, lists, scalars) to the supported YAML subset."""
    lines: List[str] = []
    _dump_node(data, 0, lines)
    return "\n".join(lines) + "\n"


def _parse_scalar(token: str) -> Any:
    token = token.strip()
    if token in ("", "~", "null", "Null", "NULL"):
        return None
    if token in ("true", "True", "yes", "Yes"):
        return True
    if token in ("false", "False", "no", "No"):
        return False
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return json.loads(token)
    if token.startswith("'") and token.endswith("'") and len(token) >= 2:
        return token[1:-1]
    if token.startswith("[") or token.startswith("{"):
        try:
            return json.loads(token)
        except json.JSONDecodeError:
            return token
    try:
        return int(token, 0)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _strip_comment(line: str) -> str:
    in_quote: Optional[str] = None
    for index, char in enumerate(line):
        if in_quote:
            if char == in_quote:
                in_quote = None
        elif char in ("'", '"'):
            in_quote = char
        elif char == "#":
            return line[:index]
    return line


def _prepare_lines(text: str) -> List[Tuple[int, str]]:
    prepared = []
    for raw in text.splitlines():
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" "))
        prepared.append((indent, line.strip()))
    return prepared


def _parse_block(lines: List[Tuple[int, str]], start: int, indent: int) -> Tuple[Any, int]:
    """Parse a mapping or list block starting at *start* whose items are at *indent*."""
    if start >= len(lines):
        return {}, start
    is_list = lines[start][1].startswith("- ") or lines[start][1] == "-"
    container: Union[Dict[str, Any], List[Any]] = [] if is_list else {}
    index = start
    while index < len(lines):
        line_indent, content = lines[index]
        if line_indent < indent:
            break
        if line_indent > indent:
            raise ValueError("unexpected indentation at line: {!r}".format(content))
        if is_list:
            if not (content.startswith("- ") or content == "-"):
                break
            payload = content[1:].strip()
            if not payload:
                child, index = _parse_block(lines, index + 1, _next_indent(lines, index, indent))
                container.append(child)
                continue
            if payload.endswith(":"):
                # mapping item whose first key holds a block value: further
                # keys of the same item may follow at the item's own indent
                # ("- match:\n    ...\n  set:\n    ..."), like real YAML.
                key = payload[:-1].strip()
                sibling_indent = indent + 2
                next_indent = _next_indent(lines, index, indent)
                if next_indent is not None and next_indent > sibling_indent:
                    child, index = _parse_block(lines, index + 1, next_indent)
                else:
                    child, index = None, index + 1
                item, index = _extend_list_item_mapping(
                    lines, index, sibling_indent, {key: child})
                container.append(item)
                continue
            if ": " in payload:
                # inline mapping item: subsequent deeper lines extend the mapping
                item, index = _parse_list_item_mapping(lines, index, indent, payload)
                container.append(item)
                continue
            container.append(_parse_scalar(payload))
            index += 1
        else:
            if content.startswith("- "):
                break
            key, _, rest = content.partition(":")
            key = key.strip()
            rest = rest.strip()
            if rest:
                container[key] = _parse_scalar(rest)
                index += 1
            else:
                next_indent = _next_indent(lines, index, indent)
                if next_indent is None:
                    container[key] = None
                    index += 1
                else:
                    child, index = _parse_block(lines, index + 1, next_indent)
                    container[key] = child
    return container, index


def _parse_list_item_mapping(
    lines: List[Tuple[int, str]], index: int, indent: int, payload: str
) -> Tuple[Dict[str, Any], int]:
    item: Dict[str, Any] = {}
    key, _, rest = payload.partition(":")
    item[key.strip()] = _parse_scalar(rest)
    return _extend_list_item_mapping(lines, index + 1, indent + 2, item)


def _extend_list_item_mapping(
    lines: List[Tuple[int, str]], index: int, child_indent: int,
    item: Dict[str, Any],
) -> Tuple[Dict[str, Any], int]:
    """Collect the remaining keys of a list-item mapping at *child_indent*."""
    while index < len(lines):
        line_indent, content = lines[index]
        if (line_indent < child_indent or content.startswith("- ")
                or content == "-"):
            break
        key, _, rest = content.partition(":")
        rest = rest.strip()
        if rest:
            item[key.strip()] = _parse_scalar(rest)
            index += 1
        else:
            next_indent = _next_indent(lines, index, child_indent)
            if next_indent is None:
                item[key.strip()] = None
                index += 1
            else:
                child, index = _parse_block(lines, index + 1, next_indent)
                item[key.strip()] = child
    return item, index


def _next_indent(lines: List[Tuple[int, str]], index: int, indent: int) -> Optional[int]:
    if index + 1 >= len(lines):
        return None
    next_indent = lines[index + 1][0]
    if next_indent <= indent:
        return None
    return next_indent


def load_yaml(text: str) -> Any:
    """Parse the supported YAML subset into dicts/lists/scalars."""
    lines = _prepare_lines(text)
    if not lines:
        return {}
    data, consumed = _parse_block(lines, 0, lines[0][0])
    if consumed != len(lines):
        raise ValueError("trailing content at line: {!r}".format(lines[consumed][1]))
    return data


# ---------------------------------------------------------------------------
# Job files
# ---------------------------------------------------------------------------

_PARAMETER_CLASSES = {
    "bool": BoolParameter,
    "tristate": TristateParameter,
    "int": IntParameter,
    "hex": HexParameter,
    "string": StringParameter,
    "categorical": CategoricalParameter,
}


def parameter_from_dict(data: Dict[str, Any]) -> Parameter:
    """Re-create a parameter from its job-file dictionary form."""
    type_name = data["type"]
    kind = ParameterKind(data["kind"])
    name = data["name"]
    description = data.get("description", "")
    if type_name == "bool":
        return BoolParameter(name, kind, default=bool(data.get("default", False)),
                             description=description)
    if type_name == "tristate":
        return TristateParameter(name, kind, default=data.get("default", "n"),
                                 description=description)
    if type_name in ("int", "hex"):
        cls = IntParameter if type_name == "int" else HexParameter
        return cls(
            name,
            kind,
            default=int(data["default"]),
            minimum=int(data["minimum"]),
            maximum=int(data["maximum"]),
            log_scale=bool(data.get("log_scale", False)),
            description=description,
        )
    if type_name in ("string", "categorical"):
        cls = StringParameter if type_name == "string" else CategoricalParameter
        return cls(
            name,
            kind,
            choices=data["choices"],
            default=data.get("default"),
            description=description,
        )
    raise ValueError("unknown parameter type {!r}".format(type_name))


class JobFile:
    """A complete description of one exploration job.

    Attributes mirror the fields a user would fill in: the OS and application
    under test, the bench tool and metric, the budget, frozen parameters, and
    the configuration space itself.
    """

    #: favor_kinds combinations expressible as a spec favor preset.
    _FAVOR_KIND_PRESETS = {
        ("runtime",): "runtime",
        ("boot",): "boot",
        ("compile",): "compile",
        ("runtime", "boot"): "runtime+boot",
        ("boot", "runtime"): "runtime+boot",
    }

    #: job-file keys whose spec field carries another name.
    _SPEC_FIELD_NAMES = {"os": "os_name"}

    def __init__(
        self,
        name: str,
        os_name: str,
        application: str,
        bench_tool: str,
        metric: str,
        space: ConfigSpace,
        iterations: int = 250,
        time_budget_s: Optional[float] = None,
        favor_kinds: Optional[List[str]] = None,
        frozen: Optional[Dict[str, Any]] = None,
        seed: int = 0,
        workers: int = 1,
        batch_size: int = 1,
        execution: str = "batch",
        algorithm: str = "deeptune",
        plateau_trials: Optional[int] = None,
        warm_start: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.os_name = os_name
        self.application = application
        self.bench_tool = bench_tool
        self.metric = metric
        self.space = space
        self.iterations = iterations
        self.time_budget_s = time_budget_s
        self.favor_kinds = list(favor_kinds or [])
        self.frozen = dict(frozen or {})
        self.seed = seed
        #: simulated system-under-test machines evaluating trials in parallel.
        self.workers = workers
        #: configurations proposed per search round.
        self.batch_size = batch_size
        #: execution mode: "batch" (barrier rounds) or "async"
        #: (completion-driven dispatch, no barrier).
        self.execution = execution
        #: search algorithm to drive the exploration with.
        self.algorithm = algorithm
        #: optional early stop: trials without a new incumbent before giving up.
        self.plateau_trials = plateau_trials
        #: optional surrogate-zoo warm start: {"zoo": dir, "min_similarity":
        #: float, "donor": app} — see repro.deeptune.transfer.
        self.warm_start = dict(warm_start) if warm_start else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job": {
                "name": self.name,
                "os": self.os_name,
                "application": self.application,
                "bench_tool": self.bench_tool,
                "metric": self.metric,
                "iterations": self.iterations,
                "time_budget_s": self.time_budget_s,
                "favor_kinds": self.favor_kinds,
                "frozen": self.frozen,
                "seed": self.seed,
                "workers": self.workers,
                "batch_size": self.batch_size,
                "execution": self.execution,
                "algorithm": self.algorithm,
                "plateau_trials": self.plateau_trials,
                "warm_start": self.warm_start,
            },
            "parameters": [parameter.to_dict() for parameter in self.space.parameters()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobFile":
        """Rebuild a job from :meth:`to_dict` output.

        Every job key that is also a spec field is validated by
        :meth:`ExperimentSpec.check_field`, so a bad value fails with the
        same message it would get in a spec, campaign or HTTP payload.
        """
        from repro.core.spec import ExperimentSpec

        job = data.get("job", {})
        for key, value in job.items():
            field = cls._SPEC_FIELD_NAMES.get(key, key)
            if field in ExperimentSpec.FIELD_TYPES:
                ExperimentSpec.check_field(field, value)
        parameters = [parameter_from_dict(entry) for entry in data.get("parameters", [])]
        space = ConfigSpace(parameters, name=job.get("name", "job"))
        frozen = job.get("frozen") or {}
        for name, value in frozen.items():
            if name in space:
                space.freeze(name, value)
        return cls(
            name=job.get("name", "job"),
            os_name=job.get("os", "linux"),
            application=job.get("application", "nginx"),
            bench_tool=job.get("bench_tool", "wrk"),
            metric=job.get("metric", "throughput"),
            space=space,
            iterations=job.get("iterations", 250),
            time_budget_s=job.get("time_budget_s"),
            favor_kinds=job.get("favor_kinds") or [],
            frozen=frozen,
            seed=job.get("seed", 0),
            workers=job.get("workers", 1),
            batch_size=job.get("batch_size", 1),
            execution=job.get("execution") or "batch",
            algorithm=job.get("algorithm") or "deeptune",
            plateau_trials=job.get("plateau_trials"),
            warm_start=job.get("warm_start"),
        )

    def to_spec(self, **overrides: Any):
        """Build the :class:`~repro.core.spec.ExperimentSpec` this job describes.

        The declarative job fields (OS, application, metric, budget, fleet
        shape, frozen parameters) map one-to-one onto the spec; *overrides*
        replace individual spec fields, which is how the CLI applies explicit
        flags on top of a job file.  The job's parameter list itself is not
        carried over: the platform searches the target OS model's space, and
        the embedded space documents the probed subset for reproducibility.
        """
        # Imported lazily: the config layer stays importable without the
        # core/search stack.
        from repro.core.spec import UNSPECIFIED, ExperimentSpec

        kinds = tuple(self.favor_kinds)
        if not kinds:
            favor: Any = UNSPECIFIED
        elif kinds in self._FAVOR_KIND_PRESETS:
            favor = self._FAVOR_KIND_PRESETS[kinds]
        elif (kinds[0],) in self._FAVOR_KIND_PRESETS:
            # combination with no exact preset: keep the historical CLI
            # behaviour of honouring the first kind, but say so.
            favor = self._FAVOR_KIND_PRESETS[(kinds[0],)]
            warnings.warn(
                "favor_kinds {!r} has no exact favor preset; favoring "
                "{!r} only".format(self.favor_kinds, favor), stacklevel=2)
        else:
            raise ValueError(
                "favor_kinds {!r} has no favor preset equivalent".format(
                    self.favor_kinds))
        fields = {
            "name": self.name,
            "os_name": self.os_name,
            "application": self.application,
            "metric": self.metric,
            "algorithm": self.algorithm,
            "favor": favor,
            "seed": self.seed,
            "iterations": self.iterations,
            "time_budget_s": self.time_budget_s,
            "plateau_trials": self.plateau_trials,
            "workers": self.workers,
            "batch_size": self.batch_size,
            "execution": self.execution,
            "frozen": dict(self.frozen),
            "warm_start": dict(self.warm_start) if self.warm_start else None,
        }
        fields.update(overrides)
        return ExperimentSpec(**fields)

    def __repr__(self) -> str:
        return "JobFile(name={!r}, os={!r}, app={!r}, metric={!r}, params={})".format(
            self.name, self.os_name, self.application, self.metric, len(self.space)
        )


def dump_job_file(job: JobFile, path: str) -> None:
    """Write *job* to *path* (format chosen by extension: .json or .yaml/.yml)."""
    data = job.to_dict()
    _, ext = os.path.splitext(path)
    with open(path, "w") as handle:
        if ext.lower() == ".json":
            json.dump(data, handle, indent=2, sort_keys=False)
            handle.write("\n")
        else:
            handle.write(dump_yaml(data))


def load_job_file(path: str) -> JobFile:
    """Load a job file previously written by :func:`dump_job_file`."""
    _, ext = os.path.splitext(path)
    with open(path) as handle:
        text = handle.read()
    if ext.lower() == ".json":
        data = json.loads(text)
    else:
        data = load_yaml(text)
    return JobFile.from_dict(data)


# ---------------------------------------------------------------------------
# Campaign files
# ---------------------------------------------------------------------------

def dump_campaign_file(campaign, path: str) -> None:
    """Write a :class:`~repro.core.campaign.CampaignSpec` to *path*.

    The document nests the campaign under a top-level ``campaign:`` key
    (mirroring the ``job:`` key of job files); the format is chosen by the
    file extension, .json or .yaml/.yml.
    """
    data = {"campaign": campaign.to_dict()}
    _, ext = os.path.splitext(path)
    with open(path, "w") as handle:
        if ext.lower() == ".json":
            json.dump(data, handle, indent=2, sort_keys=False)
            handle.write("\n")
        else:
            handle.write(dump_yaml(data))


def load_campaign_file(path: str):
    """Load a campaign spec from a YAML/JSON file written by hand or by
    :func:`dump_campaign_file`.

    Besides the grid axes and ``base``/``overrides`` blocks, the campaign
    mapping may carry a ``chaos:`` block (``seed``, ``kill_rate``,
    ``torn_write_rate``, ``startup_failure_rate``) enabling deterministic
    fault injection for every worker that runs the campaign — see
    :mod:`repro.platform.faults`.
    """
    # Imported lazily: the config layer stays importable without the
    # core/search stack (mirrors JobFile.to_spec).
    from repro.core.campaign import CampaignSpec

    _, ext = os.path.splitext(path)
    with open(path) as handle:
        text = handle.read()
    if ext.lower() == ".json":
        data = json.loads(text)
    else:
        data = load_yaml(text)
    if not isinstance(data, dict) or "campaign" not in data:
        raise ValueError(
            "{} is not a campaign file (expected a top-level 'campaign:' "
            "mapping)".format(path))
    return CampaignSpec.from_dict(data["campaign"])
