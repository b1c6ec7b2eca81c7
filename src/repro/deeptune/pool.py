"""DeepTune's candidate pool, drawn as code columns straight into the encoded matrix.

Step 1 of the search loop builds a pool of random candidates for the DTM to
rank.  The pool is a code matrix (one row per candidate, one int64 code per
parameter, see :meth:`ConfigEncoder.code_rows`) drawn one column at a time
from a ``numpy.random.Generator``.  It follows the rules of
:class:`~repro.search.base.ConfigurationSampler` as column masks:

- *fresh rows* start from the default configuration with frozen values
  pinned, and redraw each cell with its column's probability: 1 for a
  favoured kind, ``compile_mutation_rate`` for favoured compile-time
  parameters, ``off_kind_mutation_rate`` for the other kinds and 0 for
  frozen parameters (with no favoured kinds every unfrozen cell is drawn);
- *exploit rows* copy one of the best configurations and redraw each
  eligible cell (unfrozen, of a favoured kind) at the mutation rate; a row
  left unchanged gets one redraw at a uniformly chosen eligible cell, as
  :meth:`ConfigSpace.mutate_configuration` does.

Declared constraints are checked as column masks; only the rows that break
one become :class:`Configuration` objects, go through
:meth:`ConfigSpace.repair` and are coded back.  Rows already evaluated are
dropped by their code bytes.  Nothing else builds a configuration: the
search materialises only the rows it walks in ranked order.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

import numpy as np

from repro.config.constraints import violated_rows
from repro.config.encoding import ConfigEncoder
from repro.config.parameter import ParameterKind
from repro.config.space import Configuration
from repro.platform.history import ExplorationHistory
from repro.search.base import ConfigurationSampler


class PoolSampler:
    """Draws candidate pools as code matrices under a sampler's rules.

    The rules are compiled once, here: the space's frozen values and the
    sampler's favoured kinds and rates are fixed before a search is built.
    """

    def __init__(self, sampler: ConfigurationSampler, encoder: ConfigEncoder) -> None:
        self.sampler = sampler
        self.encoder = encoder
        self.space = sampler.space
        # the column rules: the fresh-row base, each column's redraw rate
        # in fresh rows and whether exploit rows may redraw it
        frozen = self.space.frozen_parameters
        kinds = sampler.favored_kinds
        parameters = self.space.parameters()
        base = {p.name: frozen.get(p.name, p.default) for p in parameters}
        self._base = encoder.code_rows([Configuration(self.space, base)])[0]
        rates, eligible = [], []
        for parameter in parameters:
            favoured = kinds is None or parameter.kind in kinds
            eligible.append(favoured and parameter.name not in frozen)
            if parameter.name in frozen:
                rates.append(0.0)
            elif not favoured:
                rates.append(sampler.off_kind_mutation_rate)
            elif kinds is not None and parameter.kind is ParameterKind.COMPILE_TIME:
                rates.append(sampler.compile_mutation_rate)
            else:
                rates.append(1.0)
        self._rates = np.array(rates)
        self._eligible = np.array(eligible, dtype=bool)
        # the code column of each parameter a declared constraint reads
        index = {p.name: column for column, p in enumerate(parameters)}
        self._constraint_columns = {
            name: index[name] for constraint in self.space.constraints
            for name in constraint.parameter_names()}
        # code-row keys of the evaluated configurations of _keyed_history
        self._explored: Set[bytes] = set()
        self._keyed_history: Optional[ExplorationHistory] = None
        self._keyed_count = 0

    def draw(self, generator: np.random.Generator, history: ExplorationHistory,
             size: int, bests: Sequence[Configuration], n_exploit: int,
             mutation_rate: float) -> np.ndarray:
        """A pool of *size* code rows: *n_exploit* mutations of *bests*
        (none when *bests* is empty) first, fresh rows after them.

        Rows already in *history* are dropped, unless that would drop all.
        """
        n_exploit = n_exploit if bests else 0
        codes = np.empty((size, len(self._base)), dtype=np.int64)
        redraw = np.empty(codes.shape, dtype=bool)
        if n_exploit:
            picks = generator.integers(len(bests), size=n_exploit)
            codes[:n_exploit] = self.encoder.code_rows(bests)[picks]
            mutate = generator.random((n_exploit, len(self._base))) < mutation_rate
            mutate &= self._eligible
            eligible = np.flatnonzero(self._eligible)
            if eligible.size:
                idle = np.flatnonzero(~mutate.any(axis=1))
                forced = eligible[generator.integers(eligible.size, size=idle.size)]
                mutate[idle, forced] = True
            redraw[:n_exploit] = mutate
        codes[n_exploit:] = self._base
        redraw[n_exploit:] = generator.random((size - n_exploit, len(self._base))) < self._rates
        for column in np.flatnonzero(redraw.any(axis=0)).tolist():
            rows = np.flatnonzero(redraw[:, column])
            codes[rows, column] = self.encoder.draw_codes(column, generator, rows.size)
        if self.sampler.repair_constraints:
            self._repair(codes)
        unexplored = self._unexplored(history, codes)
        return codes[unexplored] if unexplored.any() else codes

    def _repair(self, codes: np.ndarray) -> None:
        """Repair, in place, the rows that break a declared constraint."""
        constraints = self.space.constraints
        if not constraints:
            return
        columns = {name: self.encoder.column_values(column, codes[:, column])
                   for name, column in self._constraint_columns.items()}
        broken = violated_rows(constraints, columns, len(codes))
        rows = np.flatnonzero(broken)
        if rows.size:
            repaired = [self.space.repair(self.encoder.configuration(codes[row]),
                                          self.sampler.rng)
                        for row in rows.tolist()]
            codes[rows] = self.encoder.code_rows(repaired)

    def _unexplored(self, history: ExplorationHistory, codes: np.ndarray) -> np.ndarray:
        """Mask of the rows of *codes* that *history* has not evaluated."""
        if history is not self._keyed_history or len(history) < self._keyed_count:
            self._explored = set()
            self._keyed_history = history
            self._keyed_count = 0
        evaluated = [record.configuration
                     for record in history.records_since(self._keyed_count)]
        self._keyed_count = len(history)
        for configuration, row in zip(evaluated, self.encoder.code_rows(evaluated)):
            # a value the codes cannot hold exactly (out of its domain)
            # never equals a pool row, so it gets no key
            if self.encoder.configuration(row) == configuration:
                self._explored.add(row.tobytes())
        explored = self._explored
        return np.fromiter((row.tobytes() not in explored for row in codes),
                           dtype=bool, count=len(codes))
