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
                   candidate_groups, moved)
from .learning import ObservationLog, frobenius_convergence, update_beliefs
from .scenario import is_int

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
            if not is_int(value) or value < 1:
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}")


def best_reply_step(structure: CoalitionStructure, proposer: int,
                    beliefs: BeliefState, engine: PayoffEngine,
                    rng: np.random.Generator) -> CoalitionStructure:
    """One proposal: the proposer moves to one of its best-reply target
    masks (``DecisionTable.decisions``), drawn uniformly at random when
    there are several; with no best reply the structure is unchanged.
    """
    pos = engine.ids.index(proposer)
    _, targets = engine.table(beliefs).decisions(structure)[pos]
    if not targets:
        return structure
    target = targets[int(rng.integers(len(targets)))] \
        if len(targets) > 1 else targets[0]
    return CoalitionStructure.from_masks(
        structure.ids, moved(structure.masks, 1 << pos, target))


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
    block = np.array([next(k for k, m in enumerate(structure.masks)
                           if m >> i & 1) for i in range(len(structure.ids))])
    mates = (block[:, None] == block) & ~np.eye(len(block), dtype=bool)
    mates.setflags(write=False)
    return mates


def _share_samples(structures: list, log: ObservationLog,
                   rngs: list) -> list:
    """One round of every game g whose ``structures[g]`` is not None: each
    drone broadcasts one draw of its available power, truncated at zero
    Watts, to its coalition mates, in one ``log.share`` call for all
    games; returns each game's draws, None where it sat out.  Game g's
    ``rngs[g].standard_normal(D)``, scaled by the true types' deviations
    and shifted by their means, gives the values and generator state of
    one scalar ``rng.normal`` call per drone in id order, which is also
    the order of the log's rows."""
    d = len(log.ids)
    z = np.zeros((len(structures), d))
    pairs = np.zeros((len(structures), d, d), dtype=bool)
    for g, structure in enumerate(structures):
        if structure is not None:
            if structure.members() != log.ids:
                raise ValueError(f"{structure} does not partition {log.ids}")
            z[g] = rngs[g].standard_normal(d)
            pairs[g] = _mates(structure)
    powers = log.mu + log.sigma * z
    powers = np.where(powers > 0.0, powers, 0.0)   # max(0.0, x)'s bits
    log.share(powers, pairs)
    return [None if s is None else dict(zip(log.ids, row))
            for s, row in zip(structures, powers.tolist())]


class _Game:
    """One repeated game between lockstep rounds: its four generators, the
    structure its walks start from, its records and its convergence
    test."""

    def __init__(self, config: DynamicsConfig, engine: PayoffEngine):
        self.config, self.engine = config, engine
        ids = engine.ids
        root = np.random.SeedSequence(config.seed)
        self.rng_proposer, self.rng_tie, self.rng_sample, \
            self.rng_bernoulli = [np.random.default_rng(s)
                                  for s in root.spawn(4)]
        self.grand = CoalitionStructure.grand(ids)
        self.structure = CoalitionStructure.singletons(ids)
        self.records: list[RoundRecord] = []
        self.beliefs = self.prediction = None
        self.last_non_grand: CoalitionStructure | None = None
        self.stable_streak = 0
        self.converged = self.done = False
        self.stall = None

    def propose(self):
        """This round's (structure, grand_round), or None once the game
        has ended: a forced grand coalition in the first
        ``init_grand_rounds`` rounds and with probability epsilon after,
        else the best-reply walk from the last walk's structure."""
        config = self.config
        if self.done:
            return None
        if len(self.records) < config.init_grand_rounds \
                or self.rng_bernoulli.random() < config.epsilon:
            return self.grand, True
        try:
            current, _stats = run_best_reply(
                self.structure, self.beliefs, self.engine, self.rng_proposer,
                config.stability_window, tie_rng=self.rng_tie)
        except NonConvergenceError as exc:
            # without its traceback, whose frames would hold this game and
            # the engine in a reference cycle
            self.stall, self.done = exc.with_traceback(None), True
            return None
        self.structure = current
        return current, False

    def record(self, current: CoalitionStructure, grand_round: bool,
               draws: dict, beliefs: BeliefState, prediction: np.ndarray,
               norms: list, mean_norm: float):
        """Record the round played in ``current`` and test convergence."""
        config = self.config
        # each drone's payoff in its own block, read by (position, mask)
        table = self.engine.table(beliefs)
        own = {d: (i, m) for m in current.masks
               for i, d in enumerate(current.ids) if m >> i & 1}
        self.records.append(RoundRecord(
            len(self.records), grand_round, current,
            {d: table.payoff(*own[d]) for d in current.ids},
            draws, beliefs.snapshot_hash(), tuple(norms), mean_norm))
        played = len(self.records) - config.init_grand_rounds
        if played > 0:
            self.stable_streak = self.stable_streak + 1 \
                if np.array_equal(prediction, self.prediction) else 1
            structure_repeats = (not grand_round
                                 and current == self.last_non_grand)
            if not grand_round:
                self.last_non_grand = current
            self.converged = (self.stable_streak >= config.stability_window
                              and structure_repeats)
            self.done = self.converged or played == config.max_rounds
        self.beliefs, self.prediction = beliefs, prediction

    def result(self) -> RepeatedGameResult:
        return RepeatedGameResult(
            structure=self.structure, beliefs=self.beliefs,
            prediction=self.prediction, rounds=self.records,
            converged=self.converged, stall=self.stall)


def run_repeated_games(configs: list[DynamicsConfig],
                       engine: PayoffEngine) -> list[RepeatedGameResult]:
    """Repeated coalition formation under uncertainty, one game per
    config, all on the engine's scenario, advancing round by round
    together.

    A few initial grand-coalition rounds seed each game's observations;
    then each round either forces the grand coalition (probability
    epsilon) or runs best-reply dynamics from the game's previous
    structure, shares samples inside each coalition, and re-learns the
    beliefs.  Convergence: unchanged per-pair type predictions for
    ``stability_window`` consecutive rounds and a repeating (non-grand)
    structure.  A best-reply run that does not stabilise ends its game
    unconverged, with the last structure that formed and the error as
    ``stall``.  The games share one ``ObservationLog``, so each round
    every game still playing shares, learns and is scored in one
    ``share``, one ``update_beliefs`` and one ``frobenius_convergence``
    call; each keeps its own generators, walk and records, so it ends as
    it would alone.
    """
    scenario = engine.scenario
    games = [_Game(config, engine) for config in configs]
    log = ObservationLog(scenario, len(games))
    rngs = [game.rng_sample for game in games]
    while True:
        rounds = [game.propose() for game in games]
        if not any(rounds):
            break
        draws = _share_samples([r and r[0] for r in rounds], log, rngs)
        beliefs, prediction = update_beliefs(log)
        norms, means = frobenius_convergence(prediction, scenario)
        norms, means = norms.tolist(), means.tolist()
        for g, (game, r) in enumerate(zip(games, rounds)):
            if r is not None:
                game.record(*r, draws[g], beliefs[g], prediction[g],
                            norms[g], means[g])
    return [game.result() for game in games]


def run_repeated_game(config: DynamicsConfig,
                      engine: PayoffEngine) -> RepeatedGameResult:
    """One repeated game (``run_repeated_games``)."""
    return run_repeated_games([config], engine)[0]
