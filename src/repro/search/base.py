"""Search-algorithm interface and shared sampling utilities."""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.config.parameter import ParameterKind
from repro.config.space import Configuration, ConfigSpace
from repro.platform.history import ExplorationHistory, TrialRecord


class ConfigurationSampler:
    """Draws random candidate configurations, optionally favouring some kinds.

    The paper's experiments configure Wayfinder to *favor* certain parameter
    kinds: runtime parameters for the performance experiments (§4.1),
    compile-time parameters for the memory-footprint experiment (§4.4).
    Favoured runtime and boot-time kinds are fully randomized; favoured
    compile-time parameters are instead perturbed around the default
    configuration (a random defconfig-distance mutation per option), because
    that is how compile-time exploration proceeds in practice — a kernel built
    from a uniformly random .config essentially never boots.  Parameters of
    non-favoured kinds stay at their defaults except for an occasional
    mutation, so the search concentrates where it is told to without being
    strictly confined.
    """

    def __init__(
        self,
        space: ConfigSpace,
        seed: int = 0,
        favored_kinds: Optional[Sequence[ParameterKind]] = None,
        off_kind_mutation_rate: float = 0.005,
        compile_mutation_rate: float = 0.12,
        repair_constraints: bool = True,
    ) -> None:
        self.space = space
        self.rng = random.Random(seed)
        self.favored_kinds = list(favored_kinds) if favored_kinds else None
        self.off_kind_mutation_rate = off_kind_mutation_rate
        self.compile_mutation_rate = compile_mutation_rate
        self.repair_constraints = repair_constraints

    def sample(self) -> Configuration:
        """Draw one random configuration respecting the favoured kinds."""
        if self.favored_kinds is None:
            configuration = self.space.sample_configuration(self.rng)
        else:
            values = {}
            frozen = self.space.frozen_parameters
            for parameter in self.space.parameters():
                if parameter.name in frozen:
                    values[parameter.name] = frozen[parameter.name]
                elif parameter.kind in self.favored_kinds:
                    if (parameter.kind is ParameterKind.COMPILE_TIME
                            and self.rng.random() >= self.compile_mutation_rate):
                        values[parameter.name] = parameter.default
                    else:
                        values[parameter.name] = parameter.sample(self.rng)
                elif self.rng.random() < self.off_kind_mutation_rate:
                    values[parameter.name] = parameter.sample(self.rng)
                else:
                    values[parameter.name] = parameter.default
            configuration = Configuration(self.space, values)
        if self.repair_constraints:
            configuration = self.space.repair(configuration, self.rng)
        return configuration

    def sample_unique(self, history: ExplorationHistory, attempts: int = 32,
                      exclude: Optional[Set[Configuration]] = None) -> Configuration:
        """Draw a configuration not yet present in *history* (best effort).

        *exclude* extends the membership check to configurations already
        chosen for the current batch but not yet evaluated, so batched
        proposers can avoid intra-batch duplicates.  With ``exclude`` empty
        or ``None`` the draw sequence is identical to the historical
        single-proposal behaviour.
        """
        for _ in range(attempts):
            candidate = self.sample()
            if history.contains_configuration(candidate):
                continue
            if exclude and candidate in exclude:
                continue
            return candidate
        return self.sample()

    def sample_pool(self, size: int,
                    history: Optional[ExplorationHistory] = None,
                    attempts_per_slot: int = 8) -> List[Configuration]:
        """Draw a pool of candidates (duplicates possible on tiny spaces).

        When *history* is given, each slot is re-drawn (up to
        *attempts_per_slot* times) while it collides with an already
        evaluated configuration, using the history's O(1) membership index.
        On small spaces this stops candidate pools from wasting slots on
        configurations whose outcome is already known.
        """
        if history is None:
            return [self.sample() for _ in range(size)]
        pool: List[Configuration] = []
        for _ in range(size):
            candidate = self.sample()
            for _ in range(attempts_per_slot - 1):
                if not history.contains_configuration(candidate):
                    break
                candidate = self.sample()
            pool.append(candidate)
        return pool

    def sample_batch_unique(self, history: ExplorationHistory,
                            k: int) -> List[Configuration]:
        """Draw *k* configurations avoiding *history* and intra-batch repeats."""
        return self.fill_batch((), history, k)

    def fill_batch(self, ranked, history: ExplorationHistory, k: int,
                   skip_explored: bool = True) -> List[Configuration]:
        """Take up to *k* distinct configurations from the *ranked* iterable,
        padding any shortfall with unique random samples.

        Intra-batch duplicates and (with *skip_explored*) already-evaluated
        configurations are skipped but still consumed from the iterable, and
        nothing beyond the *k*-th pick is consumed — so stateful sources
        (e.g. a grid-plan cursor) advance exactly as far as the selection
        needed.  Shared by every batch-native proposer so the dedup/padding
        semantics cannot drift between algorithms.
        """
        batch: List[Configuration] = []
        chosen: Set[Configuration] = set()
        if k > 0:
            for candidate in ranked:
                if candidate in chosen:
                    continue
                if skip_explored and history.contains_configuration(candidate):
                    continue
                batch.append(candidate)
                chosen.add(candidate)
                if len(batch) >= k:
                    break
        while len(batch) < k:
            candidate = self.sample_unique(history, exclude=chosen)
            batch.append(candidate)
            chosen.add(candidate)
        return batch

    def mutate(self, configuration: Configuration, mutation_rate: float = 0.1) -> Configuration:
        """Mutate an existing configuration within the favoured kinds."""
        mutated = self.space.mutate_configuration(
            configuration, self.rng, mutation_rate=mutation_rate,
            kinds=self.favored_kinds,
        )
        if self.repair_constraints:
            mutated = self.space.repair(mutated, self.rng)
        return mutated


class SearchAlgorithm:
    """Interface between the platform and a configuration-search strategy."""

    #: registry/reporting name.
    name = "search"

    def __init__(self, space: ConfigSpace, seed: int = 0,
                 favored_kinds: Optional[Sequence[ParameterKind]] = None) -> None:
        self.space = space
        self.seed = seed
        self.sampler = ConfigurationSampler(space, seed=seed, favored_kinds=favored_kinds)

    def propose(self, history: ExplorationHistory,
                pending: Sequence[Configuration] = ()) -> Configuration:
        """Return the next configuration the platform should evaluate.

        *pending* holds the configurations currently in flight on other
        workers (async execution proposes without waiting for them): the
        algorithm should avoid re-proposing them, exactly as it avoids
        re-proposing the history.  Contract: with *pending* empty the
        proposal — including every RNG draw — must be identical to the
        historical single-argument call, so batch mode and ``workers=1``
        async sessions reproduce the sequential loop bit for bit.
        """
        raise NotImplementedError

    def propose_batch(self, history: ExplorationHistory, k: int) -> List[Configuration]:
        """Return up to *k* configurations to evaluate as one batch.

        The default implementation issues *k* sequential :meth:`propose`
        calls without intermediate observations, which preserves each
        algorithm's per-proposal cost profile (deliberately so for the
        Unicorn baseline, whose Figure 7 growth curve depends on a full
        graph recomputation per proposal).  Batch-native algorithms override
        this to derive the whole batch from a single scoring pass.

        Contract: ``propose_batch(history, 1)`` must behave exactly like
        ``[propose(history)]`` — same configuration, same RNG consumption —
        so a ``batch_size=1`` session reproduces the sequential loop
        trial for trial.
        """
        if k < 1:
            raise ValueError("batch size must be at least 1")
        return [self.propose(history) for _ in range(k)]

    def observe(self, record: TrialRecord) -> None:
        """Learn from the result of the most recent evaluation.

        The default implementation does nothing: stateless algorithms such as
        random search read everything they need from the history.
        """

    # -- checkpointing ------------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the algorithm's mutable state as builtins and arrays.

        The base implementation captures the sampler's RNG stream — the one
        piece of mutable state every algorithm shares.  Subclasses extend the
        dictionary with their model/plan/observation-order state; together with
        :meth:`import_state` this is what makes a checkpointed session resume
        bit-identically (same future proposals, same RNG consumption).
        Exported values must be *snapshots*: mutating the algorithm after the
        export must not change an already exported state.
        """
        return {"sampler_rng": self.sampler.rng.getstate()}

    def import_state(self, state: dict, history: Sequence[TrialRecord]) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        *history* holds the trial records stored beside the snapshot.  The
        algorithm must have been constructed with the same space, seed, and
        options as the exporting instance (the experiment spec guarantees
        this on the checkpoint/resume path).
        """
        # saved state turns tuples into lists; setstate wants them back
        version, internal, gauss_next = state["sampler_rng"]
        self.sampler.rng.setstate((version, tuple(internal), gauss_next))

    def __repr__(self) -> str:
        return "{}(space={!r})".format(type(self).__name__, self.space.name)


class LearningSearch(SearchAlgorithm):
    """A search that keeps a store of the observations it learned from.

    The store is never checkpointed, since every observation is a stored
    trial row.  The search records the history position of each trial it
    observes, and a resume replays those rows through :meth:`_remember`,
    the bookkeeping half of :meth:`observe`, in observation order — not
    history order, which is completion order within a batch — so running
    moments and crash penalties come back bit for bit.
    """

    def __init__(self, space: ConfigSpace, seed: int = 0,
                 favored_kinds: Optional[Sequence[ParameterKind]] = None) -> None:
        super().__init__(space, seed=seed, favored_kinds=favored_kinds)
        self._observed: List[int] = []

    def observe(self, record: TrialRecord) -> None:
        self._remember(record)

    def _remember(self, record: TrialRecord) -> None:
        """Add *record* to the observation store; ``record.index`` is its
        history position.  Subclasses extend this with their own store."""
        self._observed.append(record.index)

    def export_state(self) -> dict:
        state = super().export_state()
        state["observed"] = np.array(self._observed, dtype=np.int64)
        return state

    def import_state(self, state: dict, history: Sequence[TrialRecord]) -> None:
        super().import_state(state, history)
        positions = state["observed"].reshape(-1).tolist()
        if not all(0 <= position < len(history) for position in positions):
            raise ValueError("observed positions past the stored trials")
        for position in positions:
            self._remember(history[position])
