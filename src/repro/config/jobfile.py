"""Job files: the on-disk description of an exploration.

Wayfinder takes as input "job files" describing the configuration space of
the target OS, the application and bench tool to run, and the search budget
(§3.1, §3.4).  Here a job file is ``{job: <ExperimentSpec dict>,
parameters: [...]}``; the bench tool follows from the application.  The
original system uses YAML; this reproduction ships a small self-contained
YAML-subset reader/writer (mappings, lists, scalars, comments) so job files
remain human-editable without adding a dependency, plus JSON as an alternate
format.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

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

if TYPE_CHECKING:
    from repro.core.spec import ExperimentSpec


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
        # a newline (or any other control or separator character) would end
        # the line early and let the rest of the string parse as more YAML.
        or not text.isprintable()
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
    escaped = False
    for index, char in enumerate(line):
        if in_quote:
            if escaped:
                escaped = False
            elif char == "\\" and in_quote == '"':
                escaped = True
            elif char == in_quote:
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
            if ": " in payload and not payload.startswith('"'):
                # inline mapping item (keys are never quoted, so a quoted
                # payload is a string scalar): subsequent deeper lines extend
                # the mapping
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
    if len(lines) == 1 and lines[0][1] in ("{}", "[]"):
        return _parse_scalar(lines[0][1])
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

    The ``job:`` block is exactly :meth:`ExperimentSpec.to_dict` and is read
    back by :meth:`ExperimentSpec.from_dict`, so a job file takes the same
    fields, defaults and error messages as every other front-end.  The
    ``parameters:`` list documents the configuration space (e.g. the probed
    runtime subset, §3.4) for reproducibility; the platform itself searches
    the target OS model's space.
    """

    SECTIONS = ("job", "parameters")

    def __init__(self, spec: "ExperimentSpec", space: ConfigSpace) -> None:
        self.spec = spec
        self.space = space

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job": self.spec.to_dict(),
            "parameters": [parameter.to_dict() for parameter in self.space.parameters()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobFile":
        """Rebuild a job from :meth:`to_dict` output (unknown keys rejected)."""
        # Imported lazily: the config layer stays importable without the
        # core/search stack.
        from repro.core.spec import ExperimentSpec

        if not isinstance(data, dict) or "job" not in data:
            raise ValueError("a job file is a mapping with a 'job:' spec block "
                             "and a 'parameters:' list")
        unknown = sorted(set(data) - set(cls.SECTIONS))
        if unknown:
            raise ValueError("unknown job file sections: {}".format(", ".join(unknown)))
        spec = ExperimentSpec.from_dict(data["job"])
        entries = data.get("parameters") or []
        if not isinstance(entries, list):
            raise ValueError("job file 'parameters' must be a list (got {})".format(
                type(entries).__name__))
        try:
            parameters = [parameter_from_dict(entry) for entry in entries]
        except (KeyError, TypeError) as error:
            raise ValueError("malformed job file parameter: {!r}".format(error)) from None
        space = ConfigSpace(parameters, name=spec.name)
        for name, value in spec.frozen.items():
            if name in space:
                space.freeze(name, value)
        return cls(spec, space)

    def __repr__(self) -> str:
        return "JobFile(spec={!r}, params={})".format(self.spec, len(self.space))


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
    # core/search stack (mirrors JobFile.from_dict).
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
