"""DeepTune as a Wayfinder search algorithm.

Each iteration follows the loop of Figure 3: generate a diverse pool of
random candidate permutations (step 1), predict their crash probability,
performance and uncertainty with the DTM (step 2), rank them with the scoring
function (step 3), hand the top candidate to the platform for evaluation
(step 4), and update the model with the new observation (step 5).

The candidate pool mixes fresh random samples with mutations of the best
configurations found so far, which concentrates candidates in promising
regions once the model has identified them while keeping genuinely new
regions in play — the exploration/exploitation balance the paper discusses.
The pool is drawn as code columns straight into the encoded matrix
(:mod:`repro.deeptune.pool`); only the candidates walked in ranked order
become :class:`Configuration` objects.  The warmup iterations before the
model is ready draw through the shared ``ConfigurationSampler``.
"""

from __future__ import annotations

import copy
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.config.encoding import ConfigEncoder
from repro.config.parameter import ParameterKind
from repro.config.space import Configuration, ConfigSpace
from repro.deeptune.model import DeepTuneModel
from repro.deeptune.pool import PoolSampler
from repro.deeptune.scoring import score_candidates
from repro.platform.history import ExplorationHistory, TrialRecord
from repro.search.base import LearningSearch


class DeepTuneSearch(LearningSearch):
    """The DeepTune optimization algorithm (§3.2)."""

    name = "deeptune"

    def __init__(
        self,
        space: ConfigSpace,
        seed: int = 0,
        favored_kinds: Optional[Sequence[ParameterKind]] = None,
        maximize: bool = True,
        candidate_pool_size: int = 192,
        warmup_iterations: int = 10,
        alpha: float = 0.5,
        exploration_weight: float = 0.6,
        crash_threshold: float = 0.6,
        exploit_fraction: float = 0.4,
        training_steps_per_iteration: int = 25,
        batch_size: int = 32,
        model: Optional[DeepTuneModel] = None,
        hidden_dims=(96, 48),
        n_centroids: int = 24,
    ) -> None:
        super().__init__(space, seed=seed, favored_kinds=favored_kinds)
        self.encoder = ConfigEncoder(space)
        self.maximize = maximize
        self.candidate_pool_size = candidate_pool_size
        self.warmup_iterations = warmup_iterations
        self.alpha = alpha
        self.exploration_weight = exploration_weight
        self.crash_threshold = crash_threshold
        self.exploit_fraction = exploit_fraction
        self.training_steps_per_iteration = training_steps_per_iteration
        self.batch_size = batch_size

        if model is not None and model.input_dim != self.encoder.width:
            raise ValueError(
                "pre-trained model expects {} features, space encodes to {}".format(
                    model.input_dim, self.encoder.width)
            )
        self.model = model or DeepTuneModel(
            input_dim=self.encoder.width,
            hidden_dims=hidden_dims,
            n_centroids=n_centroids,
            seed=seed,
        )
        #: warm-start provenance (donor application, zoo entry, similarity)
        #: set by the front-end that injected a pre-trained model; surfaced
        #: in run summaries and campaign reports.  None for cold starts.
        self.provenance: Optional[dict] = None
        # The model's replay buffer is the one record of observed vectors;
        # rows a pre-trained model brought in are not this search's
        # explored set, so dissimilarity scoring skips them.
        self._own_rows_start = self.model.observation_count

        self._best_configurations: List[Configuration] = []
        self._best_objectives: List[float] = []
        # built at the first pool, after the warmup, so compiling its column
        # rules stays out of the search's set-up
        self._pool: Optional[PoolSampler] = None
        # the pool's generator is the first child of the search seed's
        # SeedSequence, so it never shares a stream with the model's
        # default_rng(seed)
        self._pool_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    @property
    def transferred(self) -> bool:
        """True when the model was pre-trained on another application."""
        return self._own_rows_start > 0

    # -- candidate generation -------------------------------------------------------
    def _generate_candidates(self, history: ExplorationHistory) -> np.ndarray:
        """The candidate pool as code rows, exact repeats of *history* dropped."""
        if self._pool is None:
            self._pool = PoolSampler(self.sampler, self.encoder)
        return self._pool.draw(
            self._pool_rng, history, self.candidate_pool_size,
            self._best_configurations,
            n_exploit=int(self.candidate_pool_size * self.exploit_fraction),
            mutation_rate=0.08)

    def _track_best(self, record: TrialRecord) -> None:
        if record.crashed or record.objective is None:
            return
        self._best_configurations.append(record.configuration)
        self._best_objectives.append(record.objective)
        order = np.argsort(self._best_objectives)
        if self.maximize:
            order = order[::-1]
        keep = list(order[:8])
        self._best_configurations = [self._best_configurations[i] for i in keep]
        self._best_objectives = [self._best_objectives[i] for i in keep]

    # -- search interface ---------------------------------------------------------------
    def _score_pool(self, history: ExplorationHistory):
        """One model pass over a fresh candidate pool: (code rows, scores).

        This is the audited single-batched-predict contract of the scoring
        tier: :meth:`propose` and :meth:`propose_batch` each call this
        exactly once per iteration, and the pool is scored with exactly one
        batched :meth:`DeepTuneModel.predict` over the encoded candidate
        matrix — performance, uncertainty, and crash probability all come
        out of that single forward pass, never from per-candidate model
        calls (``tests/test_deeptune.py`` pins the call count).
        """
        codes = self._generate_candidates(history)
        matrix = self.encoder.encode_codes(codes)
        prediction = self.model.predict(matrix)

        known = self.model.replay_features(self._own_rows_start)
        scores = score_candidates(
            candidates=self.model.feature_scaler.transform(matrix),
            known=self.model.feature_scaler.transform(known) if known.size else known,
            predicted_performance=prediction.performance,
            predicted_uncertainty=prediction.uncertainty,
            predicted_crash_probability=prediction.crash_probability,
            maximize=self.maximize,
            alpha=self.alpha,
            exploration_weight=self.exploration_weight,
            crash_threshold=self.crash_threshold,
        )
        return codes, scores

    def _ranked(self, codes: np.ndarray, scores: np.ndarray) -> Iterator[Configuration]:
        """Pool candidates best first, each built only when reached.

        The descending sort is stable, so the first is the ``argmax``.
        """
        for index in np.argsort(-scores, kind="stable").tolist():
            yield self.encoder.configuration(codes[index])

    def propose(self, history: ExplorationHistory,
                pending: Sequence[Configuration] = ()) -> Configuration:
        in_flight = set(pending)
        ready = self.model.observation_count >= self.warmup_iterations or self.transferred
        if not ready:
            return self.sampler.sample_unique(history, exclude=in_flight)

        # With nothing in flight the first pick is the argmax candidate;
        # otherwise the best-ranked candidate not already running wins.
        choice: Optional[Configuration] = None
        for candidate in self._ranked(*self._score_pool(history)):
            if candidate not in in_flight:
                choice = candidate
                break
        if choice is None:
            choice = self.sampler.sample_unique(history, exclude=in_flight)
        return choice

    def propose_batch(self, history: ExplorationHistory, k: int) -> List[Configuration]:
        """Native batch proposal: the top-*k* distinct candidates of one pass.

        The algorithm already scores a full candidate pool per iteration, so
        returning several well-ranked candidates costs one extra argsort —
        this is what makes DeepTune's batch mode nearly free compared with
        *k* independent propose() calls.  The descending sort is stable, so
        ``k=1`` picks exactly the ``argmax`` candidate :meth:`propose` picks.
        """
        if k < 1:
            raise ValueError("batch size must be at least 1")
        ready = self.model.observation_count >= self.warmup_iterations or self.transferred
        if not ready:
            return self.sampler.sample_batch_unique(history, k)

        # skip_explored=False mirrors propose(): the pool is already
        # best-effort deduplicated by _generate_candidates, and the argmax
        # pick must stay reachable even on a nearly exhausted space.
        return self.sampler.fill_batch(self._ranked(*self._score_pool(history)),
                                       history, k, skip_explored=False)

    def observe(self, record: TrialRecord) -> None:
        self._remember(record)
        self.model.fit_incremental(
            steps=self.training_steps_per_iteration, batch_size=self.batch_size
        )

    def _remember(self, record: TrialRecord) -> None:
        """The bookkeeping half of :meth:`observe`: replay buffer, Welford
        moments and best-8 list, without the training update."""
        super()._remember(record)
        vector = self.encoder.encode(record.configuration)
        self.model.add_observation(vector, record.objective, record.crashed)
        self._track_best(record)

    # -- checkpointing ----------------------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot everything a resumed search needs to continue bit-identically.

        The model contributes plain arrays and builtins
        (:meth:`DeepTuneModel.export_state`), so the state names no class of
        this package; the resumed search's model is built from the same spec
        and adopts them.  Rows a model arrived with cannot be rebuilt from
        the trial rows, so such a search refuses.
        """
        if self.transferred:
            raise ValueError("cannot checkpoint a search whose model arrived "
                             "with {} observations: a resume could not "
                             "rebuild them".format(self._own_rows_start))
        state = super().export_state()
        state["model"] = self.model.export_state()
        state["provenance"] = copy.deepcopy(self.provenance)
        state["pool_rng"] = self._pool_rng.bit_generator.state
        return state

    def import_state(self, state: dict,
                     history: Sequence[TrialRecord]) -> None:
        super().import_state(state, history)
        self.model.import_state(state["model"])
        self.provenance = copy.deepcopy(state["provenance"])
        self._pool_rng.bit_generator.state = state["pool_rng"]
