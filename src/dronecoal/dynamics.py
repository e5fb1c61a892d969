"""Coalition formation dynamics.

Two nested processes: best-reply dynamics that iterates randomly drawn
proposers until a Nash-stable structure is reached (given fixed beliefs),
and the repeated game that interleaves coalition formation with
information sharing and belief updates, occasionally forcing the grand
coalition to keep information flowing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# candidate_groups is not called here, but the benchmark's tracer looks it
# up in this module and then wraps it wherever dronecoal holds it
from .game import (BeliefState, CoalitionStructure, PayoffEngine,
                   best_reply, candidate_groups, is_nash_stable)
from .learning import (ObservationLog, TypePrediction, frobenius_convergence,
                       update_beliefs)

STEP_CAP = 10_000


class NonConvergenceError(RuntimeError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class DynamicsConfig:
    epsilon: float = 0.1
    init_grand_rounds: int = 5
    max_rounds: int = 200
    stability_window: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be a probability")
        for name in ("init_grand_rounds", "max_rounds", "stability_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


def best_reply_step(structure: CoalitionStructure, proposer: int,
                    beliefs: BeliefState, engine: PayoffEngine,
                    rng: np.random.Generator) -> CoalitionStructure:
    """One proposal: the proposer moves to one of its best-reply targets
    (``game.best_reply``), drawn uniformly at random when there are
    several; with no best reply the structure is unchanged.
    """
    _, targets = best_reply(structure, proposer, beliefs, engine)
    if not targets:
        return structure
    target = targets[int(rng.integers(len(targets)))] \
        if len(targets) > 1 else targets[0]
    return structure.move(proposer, target)


@dataclass
class BestReplyStats:
    proposals: int = 0
    changes: int = 0


def run_best_reply(initial: CoalitionStructure, beliefs: BeliefState,
                   scenario, engine: PayoffEngine,
                   rng: np.random.Generator,
                   stability_window: int = 10,
                   tie_rng: np.random.Generator | None = None
                   ) -> tuple[CoalitionStructure, BestReplyStats]:
    """Iterate uniformly random proposers until the structure is stable.

    Proposers are drawn from ``rng``; tie-breaks inside a step use
    ``tie_rng`` (defaulting to ``rng``) so the two choices can run on
    independent streams.  After D * stability_window consecutive unchanged
    proposals the structure is verified with the exhaustive deviation
    scan; the returned structure always passes it.
    """
    tie_rng = tie_rng or rng
    ids = list(initial.members())
    d = len(ids)
    structure = initial
    stats = BestReplyStats()
    quiet = 0
    trace = [structure]
    while stats.proposals < STEP_CAP:
        proposer = ids[int(rng.integers(d))]
        new = best_reply_step(structure, proposer, beliefs, engine, tie_rng)
        stats.proposals += 1
        if new == structure:
            quiet += 1
            if quiet >= d * stability_window:
                stable, _ = is_nash_stable(structure, beliefs, scenario,
                                           engine)
                if stable:
                    return structure, stats
                quiet = 0
        else:
            stats.changes += 1
            quiet = 0
            structure = new
            trace.append(structure)
    raise NonConvergenceError(
        f"no stable structure within {STEP_CAP} proposals", trace)


@dataclass(frozen=True)
class RoundRecord:
    index: int
    grand_coalition: bool
    structure: CoalitionStructure
    payoffs: dict[int, float]
    shared_samples: dict[tuple[int, int], float]
    belief_hash: str
    type_norms: tuple[float, ...] = ()
    mean_norm: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "index": self.index,
            "grand_coalition": self.grand_coalition,
            "structure": self.structure.to_string(),
            "payoffs": {str(k): v for k, v in sorted(self.payoffs.items())},
            "shared_samples": {f"{i}->{j}": v for (i, j), v
                               in sorted(self.shared_samples.items())},
            "belief_hash": self.belief_hash,
            "type_norms": list(self.type_norms),
            "mean_norm": self.mean_norm,
        }, sort_keys=True)


@dataclass
class RepeatedGameResult:
    structure: CoalitionStructure
    beliefs: BeliefState
    prediction: TypePrediction
    rounds: list[RoundRecord] = field(default_factory=list)
    converged: bool = False

    def write_trace(self, path) -> None:
        with open(path, "w") as f:
            for record in self.rounds:
                f.write(record.to_json() + "\n")


def _share_samples(structure: CoalitionStructure, scenario, log,
                   round_index: int, rng: np.random.Generator
                   ) -> dict[tuple[int, int], float]:
    """Each drone broadcasts one draw of its available power to its
    coalition mates.  Draws are truncated at zero Watts."""
    draws = {}
    for d in structure.members():
        t = scenario.type_spec(scenario.drone(d).true_type)
        draws[d] = max(0.0, float(rng.normal(t.mu, t.sigma)))
    shared: dict[tuple[int, int], float] = {}
    for block in structure.blocks:
        for observed in block:
            for observer in block:
                if observer != observed:
                    log.add(observer, observed, draws[observed], round_index)
                    shared[(observer, observed)] = draws[observed]
    return shared


def run_repeated_game(scenario, config: DynamicsConfig,
                      engine: PayoffEngine | None = None,
                      window: int | None = None) -> RepeatedGameResult:
    """Repeated coalition formation under uncertainty.

    A few initial grand-coalition rounds seed the observation log; then
    each round either forces the grand coalition (probability epsilon) or
    runs best-reply dynamics from the previous structure, shares samples
    inside each coalition, and re-learns the beliefs.  Convergence:
    unchanged per-pair type predictions for ``stability_window``
    consecutive rounds and a repeating (non-grand) structure.
    """
    engine = engine or PayoffEngine(scenario)
    ids = scenario.drone_ids
    root = np.random.SeedSequence(config.seed)
    rng_proposer, rng_tie, rng_sample, rng_bernoulli = [
        np.random.default_rng(s) for s in root.spawn(4)]

    log = ObservationLog()
    records: list[RoundRecord] = []
    grand = CoalitionStructure.grand(ids)
    round_index = 0
    for _ in range(config.init_grand_rounds):
        shared = _share_samples(grand, scenario, log, round_index,
                                rng_sample)
        beliefs, prediction = update_beliefs(log, scenario.type_set,
                                             scenario, window)
        norms, mean_norm = frobenius_convergence(prediction, scenario)
        records.append(RoundRecord(
            round_index, True, grand,
            {d: engine.expected_payoff(d, frozenset(ids), beliefs)
             for d in ids},
            shared, beliefs.snapshot_hash(),
            tuple(float(x) for x in norms), mean_norm))
        round_index += 1

    structure = CoalitionStructure.singletons(ids)
    last_non_grand: CoalitionStructure | None = None
    prev_classified = prediction.classified
    stable_streak = 0
    converged = False
    for _ in range(config.max_rounds):
        grand_round = bool(rng_bernoulli.random() < config.epsilon)
        if grand_round:
            current = grand
        else:
            current, _stats = run_best_reply(
                structure, beliefs, scenario, engine, rng_proposer,
                config.stability_window, tie_rng=rng_tie)
            structure = current
        shared = _share_samples(current, scenario, log, round_index,
                                rng_sample)
        beliefs, prediction = update_beliefs(log, scenario.type_set,
                                             scenario, window)
        norms, mean_norm = frobenius_convergence(prediction, scenario)
        records.append(RoundRecord(
            round_index, grand_round, current,
            {d: engine.expected_payoff(
                d, frozenset(current.block_of(d)), beliefs) for d in ids},
            shared, beliefs.snapshot_hash(),
            tuple(float(x) for x in norms), mean_norm))
        round_index += 1

        stable_streak = stable_streak + 1 \
            if prediction.classified == prev_classified else 1
        prev_classified = prediction.classified
        structure_repeats = (not grand_round
                             and last_non_grand is not None
                             and current == last_non_grand)
        if not grand_round:
            last_non_grand = current
        if stable_streak >= config.stability_window and structure_repeats:
            converged = True
            break
    return RepeatedGameResult(structure=structure, beliefs=beliefs,
                              prediction=prediction, rounds=records,
                              converged=converged)
