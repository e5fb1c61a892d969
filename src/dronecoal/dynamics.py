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

from .game import (BeliefState, CoalitionStructure, PayoffEngine,
                   admissible, deviation_candidates, is_nash_stable, _tol)
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


def candidate_groups(structure: CoalitionStructure, proposer: int,
                     beliefs: BeliefState, engine: PayoffEngine):
    """Strictly improving move targets for the proposer, grouped by
    expected payoff (descending), with per-target admissibility.

    Shared by the simulated step and the analytic Markov chain so both
    encode the same decision skeleton.  Each group is a list of
    (target_block_or_None, admissible) entries at one payoff level.
    """
    current, targets = deviation_candidates(structure, proposer)
    q_current = engine.expected_payoff(proposer, frozenset(current), beliefs)
    scored = []
    for target in targets:
        joined = frozenset(target) | {proposer} if target \
            else frozenset([proposer])
        q = engine.expected_payoff(proposer, joined, beliefs)
        if q > q_current + _tol(q_current):
            scored.append((q, target))
    scored.sort(key=lambda e: -e[0])
    groups = []
    for q, target in scored:
        ok = admissible(proposer, target, engine, beliefs)
        if groups and abs(groups[-1][0] - q) <= _tol(q):
            groups[-1][1].append((target, ok))
        else:
            groups.append((q, [(target, ok)]))
    return [(q, entries) for q, entries in groups]


def best_reply_step(structure: CoalitionStructure, proposer: int,
                    beliefs: BeliefState, scenario,
                    engine: PayoffEngine,
                    rng: np.random.Generator) -> CoalitionStructure:
    """One proposal: the proposer moves to its best strictly-improving
    admissible option, falling back to the next-best payoff level when
    every maximizer at a level is vetoed.  Ties are broken uniformly at
    random; with no admissible improvement the structure is unchanged.
    """
    for _, entries in candidate_groups(structure, proposer, beliefs, engine):
        ok = [target for target, admitted in entries if admitted]
        if ok:
            target = ok[int(rng.integers(len(ok)))] if len(ok) > 1 else ok[0]
            return structure.move(proposer, target)
    return structure


@dataclass
class BestReplyStats:
    proposals: int = 0
    changes: int = 0


def run_best_reply(initial: CoalitionStructure, beliefs: BeliefState,
                   scenario, engine: PayoffEngine,
                   rng: np.random.Generator,
                   stability_window: int = 10,
                   step_cap: int = STEP_CAP,
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
    while stats.proposals < step_cap:
        proposer = ids[int(rng.integers(d))]
        new = best_reply_step(structure, proposer, beliefs, scenario,
                              engine, tie_rng)
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
        f"no stable structure within {step_cap} proposals", trace)


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

    @staticmethod
    def from_json(line: str) -> "RoundRecord":
        d = json.loads(line)
        return RoundRecord(
            index=d["index"],
            grand_coalition=d["grand_coalition"],
            structure=CoalitionStructure.from_string(d["structure"]),
            payoffs={int(k): v for k, v in d["payoffs"].items()},
            shared_samples={
                (int(k.split("->")[0]), int(k.split("->")[1])): v
                for k, v in d["shared_samples"].items()},
            belief_hash=d["belief_hash"],
            type_norms=tuple(d.get("type_norms", ())),
            mean_norm=d.get("mean_norm", 0.0))


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

    @staticmethod
    def final_structure_from_trace(path) -> CoalitionStructure:
        last = None
        with open(path) as f:
            for line in f:
                if line.strip():
                    last = RoundRecord.from_json(line)
        if last is None:
            raise ValueError("empty trace")
        return last.structure


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
    prev_argmax = prediction.argmax_map()
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

        argmax = prediction.argmax_map()
        stable_streak = stable_streak + 1 if argmax == prev_argmax else 1
        prev_argmax = argmax
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
