"""Grid search: systematic one-parameter-at-a-time sweep.

The paper lists grid search among the supported strategies but omits it from
the evaluation because it is well known to be inferior to random search on
large spaces.  The implementation sweeps one parameter at a time around the
default configuration: for each parameter it enumerates the domain (or a
fixed number of quantiles for wide integer ranges), which is the only
tractable grid on spaces with hundreds of dimensions.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.config.parameter import IntParameter, Parameter, ParameterKind
from repro.config.space import Configuration, ConfigSpace
from repro.platform.history import ExplorationHistory, TrialRecord
from repro.search.base import SearchAlgorithm


class GridSearch(SearchAlgorithm):
    """One-at-a-time sweep of every parameter around the default configuration."""

    name = "grid"

    def __init__(self, space: ConfigSpace, seed: int = 0,
                 favored_kinds: Optional[Sequence[ParameterKind]] = None,
                 integer_steps: int = 5) -> None:
        super().__init__(space, seed=seed, favored_kinds=favored_kinds)
        if integer_steps < 2:
            raise ValueError("integer_steps must be at least 2")
        self.integer_steps = integer_steps
        self._favored_kinds = list(favored_kinds) if favored_kinds else None
        self._plan = self._build_plan()
        self._cursor = 0

    # -- plan construction --------------------------------------------------------
    def _values_for(self, parameter: Parameter) -> List[object]:
        domain = parameter.domain_values()
        if domain is not None:
            return [value for value in domain if value != parameter.default]
        if isinstance(parameter, IntParameter):
            values = []
            for step in range(self.integer_steps):
                unit = step / float(self.integer_steps - 1)
                values.append(parameter.decode([unit]))
            return sorted({v for v in values if v != parameter.default})
        return []

    def _build_plan(self) -> List[Configuration]:
        default = self.space.default_configuration()
        plan: List[Configuration] = [default]
        frozen = self.space.frozen_parameters
        for parameter in self.space.parameters():
            if parameter.name in frozen:
                continue
            if self._favored_kinds is not None and parameter.kind not in self._favored_kinds:
                continue
            for value in self._values_for(parameter):
                plan.append(default.with_values({parameter.name: value}))
        return plan

    @property
    def plan_length(self) -> int:
        """Number of configurations the sweep will enumerate before recycling."""
        return len(self._plan)

    def _plan_entries(self) -> Iterator[Configuration]:
        """Consume plan entries in sweep order, advancing the cursor."""
        while self._cursor < len(self._plan):
            candidate = self._plan[self._cursor]
            self._cursor += 1
            yield candidate

    # -- search interface ------------------------------------------------------------
    def propose(self, history: ExplorationHistory,
                pending: Sequence[Configuration] = ()) -> Configuration:
        in_flight = set(pending)
        for candidate in self._plan_entries():
            if history.contains_configuration(candidate) or candidate in in_flight:
                # An in-flight plan entry will be observed when it completes;
                # skipping it consumes the cursor exactly like an explored one.
                continue
            return candidate
        # Plan exhausted: fall back to random sampling so long sessions can
        # keep running (matches how the platform treats exhausted strategies).
        return self.sampler.sample_unique(history, exclude=in_flight)

    def propose_batch(self, history: ExplorationHistory, k: int) -> List[Configuration]:
        """Take the next *k* unexplored plan entries (random once exhausted)."""
        if k < 1:
            raise ValueError("batch size must be at least 1")
        return self.sampler.fill_batch(self._plan_entries(), history, k)

    # -- checkpointing ------------------------------------------------------------
    def export_state(self) -> dict:
        state = super().export_state()
        # The plan itself is rebuilt deterministically from the space at
        # construction; only the sweep position is mutable state.
        state["cursor"] = self._cursor
        return state

    def import_state(self, state: dict,
                     history: Sequence[TrialRecord]) -> None:
        super().import_state(state, history)
        self._cursor = int(state["cursor"])
