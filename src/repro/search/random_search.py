"""Random search: the baseline of the paper's evaluation.

Each iteration proposes a fresh uniformly random configuration, ignoring the
exploration history entirely (apart from avoiding exact duplicates).  Random
search is known to perform reasonably on very large spaces, but it keeps
paying the ~1/3 crash rate of the raw configuration space because it never
learns which regions fail.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.config.space import Configuration
from repro.platform.history import ExplorationHistory
from repro.search.base import SearchAlgorithm


class RandomSearch(SearchAlgorithm):
    """Uniform random sampling of the configuration space."""

    name = "random"

    def propose(self, history: ExplorationHistory,
                pending: Sequence[Configuration] = ()) -> Configuration:
        return self.sampler.sample_unique(history, exclude=set(pending))

    def propose_batch(self, history: ExplorationHistory, k: int) -> List[Configuration]:
        """Draw *k* fresh samples, avoiding intra-batch duplicates as well."""
        if k < 1:
            raise ValueError("batch size must be at least 1")
        return self.sampler.sample_batch_unique(history, k)
