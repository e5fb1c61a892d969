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
from functools import lru_cache

import numpy as np

# candidate_groups is not called here, but the benchmark's tracer looks it
# up in this module and then wraps it wherever dronecoal holds it
from .game import (BeliefState, CoalitionStructure, PayoffEngine,
                   best_reply, candidate_groups)
from .learning import ObservationLog, frobenius_convergence, update_beliefs

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
        eps = self.epsilon
        if isinstance(eps, bool) or not isinstance(eps, (int, float)) \
                or not 0.0 <= eps <= 1.0:
            raise ValueError(f"epsilon must be a probability, got {eps!r}")
        for name in ("init_grand_rounds", "max_rounds", "stability_window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}")


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
                   engine: PayoffEngine, rng: np.random.Generator,
                   stability_window: int = 10,
                   tie_rng: np.random.Generator | None = None
                   ) -> tuple[CoalitionStructure, BestReplyStats]:
    """Iterate uniformly random proposers until the structure is stable.

    Proposers are drawn from ``rng``; tie-breaks inside a step use
    ``tie_rng`` (defaulting to ``rng``) so the two choices can run on
    independent streams.  The walk ends after D * stability_window
    consecutive unchanged proposals at a structure where no drone has a
    best reply, so the returned structure is Nash-stable.

    Every draw is the one a proposal-by-proposal walk makes.  At each
    structure the walk reads the beliefs' ``DecisionTable.decisions`` (the
    mover mask; beliefs are fixed, so these are memo lookups).  With no
    mover the quiet window is drawn in one ``rng.integers(d, size=n)``
    call, which gives the values and generator state of n scalar draws.
    Else scalar proposers are drawn until a mover comes up, and only its
    step runs; quiet windows in between would only have run a failing
    stability scan.  Every draw counts against ``STEP_CAP``.
    """
    tie_rng = tie_rng or rng
    ids = list(initial.members())
    d = len(ids)
    table = engine.table(beliefs)
    structure = initial
    stats = BestReplyStats()
    trace = [structure]
    while stats.proposals < STEP_CAP:
        movers = [bool(entry[1]) for entry in table.decisions(structure)]
        if not any(movers):
            n = min(d * stability_window, STEP_CAP - stats.proposals)
            rng.integers(d, size=n)
            stats.proposals += n
            if n == d * stability_window:
                return structure, stats
            break
        while stats.proposals < STEP_CAP:
            i = int(rng.integers(d))
            stats.proposals += 1
            if movers[i]:
                structure = best_reply_step(structure, ids[i], beliefs,
                                            engine, tie_rng)
                stats.changes += 1
                trace.append(structure)
                break
    raise NonConvergenceError(
        f"no stable structure within {STEP_CAP} proposals", trace)


@dataclass(frozen=True)
class RoundRecord:
    index: int
    grand_coalition: bool
    structure: CoalitionStructure
    payoffs: dict[int, float]
    # each drone's power draw, truncated at zero Watts
    draws: dict[int, float]
    belief_hash: str
    type_norms: tuple[float, ...] = ()
    mean_norm: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "index": self.index,
            "grand_coalition": self.grand_coalition,
            "structure": self.structure.to_string(),
            "payoffs": {str(k): v for k, v in sorted(self.payoffs.items())},
            "shared_samples": {f"{i}->{j}": self.draws[j]
                               for block in self.structure.blocks
                               for j in block for i in block if i != j},
            "belief_hash": self.belief_hash,
            "type_norms": list(self.type_norms),
            "mean_norm": self.mean_norm,
        }, sort_keys=True)


@dataclass
class RepeatedGameResult:
    structure: CoalitionStructure
    beliefs: BeliefState
    prediction: np.ndarray
    rounds: list[RoundRecord] = field(default_factory=list)
    converged: bool = False
    # the best-reply cycle that ended the game, if one did
    stall: NonConvergenceError | None = None

    def write_trace(self, path) -> None:
        with open(path, "w") as f:
            for record in self.rounds:
                f.write(record.to_json() + "\n")


@lru_cache
def _mates(structure: CoalitionStructure) -> np.ndarray:
    """Read-only (D, D) bool mask over ``structure.ids``: [a, b] is set
    when the drones at a and b are distinct members of one block."""
    owner = {d: k for k, block in enumerate(structure.blocks) for d in block}
    block = np.array([owner[d] for d in structure.ids])
    mates = (block[:, None] == block) & ~np.eye(len(block), dtype=bool)
    mates.setflags(write=False)
    return mates


def _share_samples(structure: CoalitionStructure, log: ObservationLog,
                   rng: np.random.Generator) -> dict[int, float]:
    """Each drone broadcasts one draw of its available power, truncated at
    zero Watts, to its coalition mates in one ``log.share`` call; returns
    the draws.  One ``rng.normal(mus, sigmas)`` call gives the values and
    generator state of one scalar call per drone in id order, which is
    also the order of the log's rows and of the true-type columns."""
    members = structure.members()
    if members != log.ids:
        raise ValueError(f"{structure} does not partition {log.ids}")
    true = log.scenario.true_columns
    powers = rng.normal(log.types.mu[true, 0], log.types.sigma[true, 0])
    draws = {d: max(0.0, x) for d, x in zip(members, powers.tolist())}
    log.share(np.array(list(draws.values())), _mates(structure))
    return draws


def run_repeated_game(scenario, config: DynamicsConfig,
                      engine: PayoffEngine | None = None
                      ) -> RepeatedGameResult:
    """Repeated coalition formation under uncertainty.

    A few initial grand-coalition rounds seed the observation log; then
    each round either forces the grand coalition (probability epsilon) or
    runs best-reply dynamics from the previous structure, shares samples
    inside each coalition, and re-learns the beliefs.  Convergence:
    unchanged per-pair type predictions for ``stability_window``
    consecutive rounds and a repeating (non-grand) structure.  A
    best-reply run that does not stabilise ends the game unconverged, with
    the last structure that formed and the error as ``stall``.
    """
    engine = engine or PayoffEngine(scenario)
    ids = scenario.drone_ids
    root = np.random.SeedSequence(config.seed)
    rng_proposer, rng_tie, rng_sample, rng_bernoulli = [
        np.random.default_rng(s) for s in root.spawn(4)]

    log = ObservationLog(scenario)
    records: list[RoundRecord] = []

    def play(current: CoalitionStructure, grand_round: bool):
        """Share samples inside ``current``, re-learn and record the round."""
        draws = _share_samples(current, log, rng_sample)
        beliefs, prediction = update_beliefs(log)
        norms, mean_norm = frobenius_convergence(prediction, scenario)
        # each drone's payoff in its own block, read by (position, mask)
        table = engine.table(beliefs)
        own = {d: (i, m) for m in current.masks
               for i, d in enumerate(current.ids) if m >> i & 1}
        records.append(RoundRecord(
            len(records), grand_round, current,
            {d: table.payoff(*own[d]) for d in ids},
            draws, beliefs.snapshot_hash(),
            tuple(float(x) for x in norms), mean_norm))
        return beliefs, prediction

    grand = CoalitionStructure.grand(ids)
    for _ in range(config.init_grand_rounds):
        beliefs, prediction = play(grand, True)

    structure = CoalitionStructure.singletons(ids)
    last_non_grand: CoalitionStructure | None = None
    prev_prediction = prediction
    stable_streak = 0
    converged = False
    stall = None
    for _ in range(config.max_rounds):
        grand_round = bool(rng_bernoulli.random() < config.epsilon)
        if grand_round:
            current = grand
        else:
            try:
                current, _stats = run_best_reply(
                    structure, beliefs, engine, rng_proposer,
                    config.stability_window, tie_rng=rng_tie)
            except NonConvergenceError as exc:
                stall = exc
                break
            structure = current
        beliefs, prediction = play(current, grand_round)

        stable_streak = stable_streak + 1 \
            if np.array_equal(prediction, prev_prediction) else 1
        prev_prediction = prediction
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
                              converged=converged, stall=stall)
