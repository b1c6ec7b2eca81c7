"""Validity constraints over configurations.

Kconfig expresses dependencies between options (``depends on``, ``select``,
value ranges).  The platform checks these *declared* constraints before it
spends time building an image — exactly like KConfig refuses obviously
inconsistent configurations — but, as in the paper, many configurations that
satisfy all declared constraints still fail at build, boot, or run time.

Each constraint checks one configuration (:meth:`Constraint.check`) or a
whole batch of them given as value columns
(:meth:`Constraint.violation_mask`, one object array per parameter), which
is how DeepTune screens a candidate pool without building a configuration
per row.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np


class ConstraintViolation:
    """A single violated constraint, with a human-readable explanation."""

    def __init__(self, constraint: "Constraint", message: str) -> None:
        self.constraint = constraint
        self.message = message

    def __repr__(self) -> str:
        return "ConstraintViolation({!r})".format(self.message)


class Constraint:
    """Base class for configuration validity constraints."""

    def parameter_names(self) -> Sequence[str]:
        """Names of the parameters this constraint reads."""
        raise NotImplementedError

    def check(self, configuration: Mapping[str, Any]) -> Optional[ConstraintViolation]:
        """Return a violation if *configuration* breaks this constraint."""
        raise NotImplementedError

    def violation_mask(self, columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
        """Which of *n* rows break this constraint, as a boolean array.

        *columns* maps (at least) each of :meth:`parameter_names` to an
        object array of the *n* rows' values.  Row ``i`` is flagged exactly when :meth:`check`
        flags the configuration made of every column's ``i``-th value; this
        base version calls :meth:`check` once per row.
        """
        return np.fromiter(
            (self.check(_ColumnRow(columns, row)) is not None for row in range(n)),
            dtype=bool, count=n)

    def repair(self, configuration: Mapping[str, Any], rng: random.Random) -> Dict[str, Any]:
        """Suggest value updates that would satisfy the constraint."""
        return {}


class _ColumnRow(Mapping):
    """Row *row* of a set of value columns, read as a configuration."""

    def __init__(self, columns: Mapping[str, np.ndarray], row: int) -> None:
        self._columns = columns
        self._row = row

    def __getitem__(self, name: str) -> Any:
        return self._columns[name][self._row]

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


#: the values _enabled accepts
_ENABLED = (True, 1, "y", "m")


def _enabled(value: Any) -> bool:
    """Interpret a bool or tristate value as 'feature enabled'."""
    return value in _ENABLED


def _equal(column: np.ndarray, value: Any) -> np.ndarray:
    """Elementwise ``column[i] == value`` under Python equality.

    *value* is wrapped in a 0-d object array so that a sequence value is
    compared as one object, not broadcast.
    """
    target = np.empty((), dtype=object)
    target[()] = value
    return np.asarray(column == target, dtype=bool)


def _enabled_mask(column: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_enabled` of an object column."""
    mask = np.zeros(len(column), dtype=bool)
    for value in _ENABLED:
        mask |= _equal(column, value)
    return mask


class DependsOn(Constraint):
    """``option`` may only be enabled when ``dependency`` is enabled.

    Models Kconfig ``depends on`` edges between bool/tristate options.
    """

    def __init__(self, option: str, dependency: str) -> None:
        self.option = option
        self.dependency = dependency

    def parameter_names(self):
        return (self.option, self.dependency)

    def check(self, configuration):
        if _enabled(configuration[self.option]) and not _enabled(configuration[self.dependency]):
            return ConstraintViolation(
                self,
                "{} is enabled but its dependency {} is disabled".format(
                    self.option, self.dependency
                ),
            )
        return None

    def violation_mask(self, columns, n):
        return (_enabled_mask(columns[self.option])
                & ~_enabled_mask(columns[self.dependency]))

    def repair(self, configuration, rng):
        # Either disable the dependent option or enable the dependency;
        # disabling is what "make olddefconfig" style resolution does.
        value = configuration[self.option]
        disabled = "n" if isinstance(value, str) else False
        return {self.option: disabled}

    def __repr__(self):
        return "DependsOn({} -> {})".format(self.option, self.dependency)


class RequiresValue(Constraint):
    """When ``option`` is enabled, ``target`` must hold one of ``allowed``."""

    def __init__(self, option: str, target: str, allowed: Iterable[Any]) -> None:
        self.option = option
        self.target = target
        self.allowed = tuple(allowed)
        if not self.allowed:
            raise ValueError("RequiresValue needs at least one allowed value")

    def parameter_names(self):
        return (self.option, self.target)

    def check(self, configuration):
        if _enabled(configuration[self.option]) and configuration[self.target] not in self.allowed:
            return ConstraintViolation(
                self,
                "{} enabled requires {} in {!r}, got {!r}".format(
                    self.option, self.target, self.allowed, configuration[self.target]
                ),
            )
        return None

    def violation_mask(self, columns, n):
        target = columns[self.target]
        allowed = np.zeros(n, dtype=bool)
        for value in self.allowed:
            allowed |= _equal(target, value)
        return _enabled_mask(columns[self.option]) & ~allowed

    def repair(self, configuration, rng):
        return {self.target: rng.choice(self.allowed)}

    def __repr__(self):
        return "RequiresValue({} => {} in {!r})".format(self.option, self.target, self.allowed)


class RangeConstraint(Constraint):
    """An integer parameter must stay within [minimum, maximum].

    Kconfig ``range`` statements on int/hex options.  Mostly redundant with
    the parameter's own domain, but job files may tighten ranges further.
    """

    def __init__(self, name: str, minimum: int, maximum: int) -> None:
        if minimum > maximum:
            raise ValueError("empty range for {}".format(name))
        self.name = name
        self.minimum = minimum
        self.maximum = maximum

    def parameter_names(self):
        return (self.name,)

    def check(self, configuration):
        value = configuration[self.name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return ConstraintViolation(self, "{} is not numeric".format(self.name))
        if not self.minimum <= value <= self.maximum:
            return ConstraintViolation(
                self,
                "{}={} outside [{}, {}]".format(self.name, value, self.minimum, self.maximum),
            )
        return None

    def repair(self, configuration, rng):
        value = configuration[self.name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return {self.name: self.minimum}
        return {self.name: min(self.maximum, max(self.minimum, int(value)))}

    def __repr__(self):
        return "RangeConstraint({} in [{}, {}])".format(self.name, self.minimum, self.maximum)


class ForbiddenCombination(Constraint):
    """A specific combination of values is invalid.

    Models mutually exclusive features (e.g. two conflicting preemption
    models both built-in).
    """

    def __init__(self, assignment: Mapping[str, Any], reason: str = "") -> None:
        if not assignment:
            raise ValueError("ForbiddenCombination needs at least one assignment")
        self.assignment = dict(assignment)
        self.reason = reason

    def parameter_names(self):
        return tuple(self.assignment.keys())

    def check(self, configuration):
        if all(configuration[name] == value for name, value in self.assignment.items()):
            return ConstraintViolation(
                self,
                self.reason
                or "forbidden combination: {}".format(
                    ", ".join("{}={!r}".format(k, v) for k, v in self.assignment.items())
                ),
            )
        return None

    def violation_mask(self, columns, n):
        mask = np.ones(n, dtype=bool)
        for name, value in self.assignment.items():
            mask &= _equal(columns[name], value)
        return mask

    def repair(self, configuration, rng):
        # Break the combination by flipping one of the pinned bool-ish values.
        name = rng.choice(list(self.assignment.keys()))
        value = self.assignment[name]
        if isinstance(value, bool):
            return {name: not value}
        if value in ("y", "m"):
            return {name: "n"}
        if value == "n":
            return {name: "y"}
        return {}

    def __repr__(self):
        return "ForbiddenCombination({})".format(self.assignment)


def violated_rows(constraints: Iterable[Constraint],
                  columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """Which of *n* rows given as value *columns* break any of *constraints*."""
    mask = np.zeros(n, dtype=bool)
    for constraint in constraints:
        mask |= constraint.violation_mask(columns, n)
    return mask


def count_satisfied(
    constraints: Iterable[Constraint], configuration: Mapping[str, Any]
) -> Tuple[int, int]:
    """Return (satisfied, total) constraint counts for *configuration*."""
    satisfied = 0
    total = 0
    for constraint in constraints:
        total += 1
        if constraint.check(configuration) is None:
            satisfied += 1
    return satisfied, total
