"""Game-theoretic core: coalition structures, beliefs, expected payoffs,
the best-reply decision, and Nash stability."""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .allocation import CoalitionEvaluator

PARTITION_CAP = 8          # Bell(8) = 4140 structures
TYPE_SPACE_CAP = 100_000   # refuse expected-payoff sums larger than this


class CoalitionStructure:
    """A partition of the drone set into disjoint coalitions.

    Canonical form: members sorted inside each block, blocks sorted by
    smallest member, so equality is structural.
    """

    __slots__ = ("blocks", "_hash")

    def __init__(self, blocks):
        cleaned = sorted((tuple(sorted(b)) for b in blocks if len(b)),
                         key=lambda b: b[0])
        seen = [d for b in cleaned for d in b]
        if len(seen) != len(set(seen)):
            raise ValueError("blocks must be disjoint")
        self.blocks = tuple(cleaned)
        self._hash = hash(self.blocks)

    @classmethod
    def singletons(cls, drone_ids) -> "CoalitionStructure":
        return cls([(d,) for d in drone_ids])

    @classmethod
    def grand(cls, drone_ids) -> "CoalitionStructure":
        return cls([tuple(drone_ids)])

    def block_of(self, drone_id: int) -> tuple[int, ...]:
        for b in self.blocks:
            if drone_id in b:
                return b
        raise KeyError(drone_id)

    def move(self, drone_id: int,
             target: tuple[int, ...] | None) -> "CoalitionStructure":
        """Structure after drone_id leaves its block and joins target
        (None means going singleton)."""
        source = self.block_of(drone_id)
        blocks = [b for b in self.blocks if b not in (source, target)]
        rest = tuple(d for d in source if d != drone_id)
        if rest:
            blocks.append(rest)
        if target is None:
            blocks.append((drone_id,))
        else:
            blocks.append(tuple(sorted(target + (drone_id,))))
        return CoalitionStructure(blocks)

    def members(self) -> tuple[int, ...]:
        return tuple(sorted(d for b in self.blocks for d in b))

    def __eq__(self, other):
        return isinstance(other, CoalitionStructure) \
            and self.blocks == other.blocks

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CoalitionStructure({self.to_string()!r})"

    def to_string(self) -> str:
        return "".join("{" + ",".join(str(d) for d in b) + "}"
                       for b in self.blocks)

    @classmethod
    def from_string(cls, s: str) -> "CoalitionStructure":
        blocks = []
        for part in s.replace("}", "}|").split("|"):
            part = part.strip()
            if not part:
                continue
            if not (part.startswith("{") and part.endswith("}")):
                raise ValueError(f"malformed structure string {s!r}")
            blocks.append(tuple(int(x) for x in part[1:-1].split(",")))
        return cls(blocks)


def strictly_better(new: float, old: float) -> bool:
    """The one payoff and rate comparison: ``new`` beats ``old`` by more
    than 1e-12 relative to ``old`` (absolute below 1), so rounding noise
    between equal payoffs is neither a gain nor a loss."""
    return new > old + 1e-12 * max(1.0, abs(old))


def weakly_better(new: float, old: float) -> bool:
    """``new`` is at least ``old``: ``old`` is not strictly better."""
    return not strictly_better(old, new)


def enumerate_structures(drone_ids) -> list[CoalitionStructure]:
    """All set partitions of the drone ids, in deterministic order."""
    drone_ids = sorted(drone_ids)
    if not 1 <= len(drone_ids) <= PARTITION_CAP:
        raise ValueError(
            f"{len(drone_ids)} drones exceeds the enumeration cap "
            f"{PARTITION_CAP}; raise PARTITION_CAP to enumerate larger "
            "partitions")
    out: list[CoalitionStructure] = []

    def recurse(i, blocks):
        if i == len(drone_ids):
            out.append(CoalitionStructure(blocks))
            return
        d = drone_ids[i]
        for b in blocks:
            recurse(i + 1, [blk + [d] if blk is b else blk for blk in blocks])
        recurse(i + 1, blocks + [[d]])

    recurse(0, [])
    return out


class BeliefState:
    """Per-drone probability tables over the type set.

    table[i, j] is observer i's belief vector over observed drone j's
    type; self-rows are point masses on the true type.  ``uid`` keys
    payoff memoization; ``set_row`` assigns a fresh one.
    """

    _instances = itertools.count()

    def __init__(self, table: np.ndarray, drone_ids, type_ids):
        self.uid = next(BeliefState._instances)
        self.drone_ids = tuple(drone_ids)
        self.type_ids = tuple(type_ids)
        self._index = {d: i for i, d in enumerate(self.drone_ids)}
        self._tindex = {t: i for i, t in enumerate(self.type_ids)}
        table = np.asarray(table, dtype=float)
        if table.shape != (len(self.drone_ids), len(self.drone_ids),
                           len(self.type_ids)):
            raise ValueError("belief table has wrong shape")
        if np.any(table < 0):
            raise ValueError("belief probabilities must be non-negative")
        # np.allclose(sums, 1.0, atol=1e-12) without its overhead; NaN fails
        sums = table.sum(axis=2)
        if not np.all(np.abs(sums - 1.0) <= 1e-12 + 1e-5):
            raise ValueError("belief vectors must sum to 1")
        self.table = table

    @classmethod
    def uniform(cls, scenario) -> "BeliefState":
        """Uniform priors about others; point mass on own true type."""
        ids = scenario.drone_ids
        tids = [t.id for t in scenario.type_set]
        m = len(tids)
        table = np.full((len(ids), len(ids), m), 1.0 / m)
        for i, d in enumerate(ids):
            table[i, i, :] = 0.0
            table[i, i, tids.index(scenario.drone(d).true_type)] = 1.0
        return cls(table, ids, tids)

    @classmethod
    def point_mass_truth(cls, scenario) -> "BeliefState":
        """Full information: every drone knows every true type."""
        ids = scenario.drone_ids
        tids = [t.id for t in scenario.type_set]
        table = np.zeros((len(ids), len(ids), len(tids)))
        for j, d in enumerate(ids):
            table[:, j, tids.index(scenario.drone(d).true_type)] = 1.0
        return cls(table, ids, tids)

    def prob(self, observer: int, observed: int, type_id: int) -> float:
        return float(self.table[self._index[observer],
                                self._index[observed],
                                self._tindex[type_id]])

    def set_row(self, observer: int, observed: int, probs) -> None:
        probs = np.asarray(probs, dtype=float)
        if not math.isclose(probs.sum(), 1.0, abs_tol=1e-12):
            raise ValueError("belief vector must sum to 1")
        self.table[self._index[observer], self._index[observed], :] = probs
        self.uid = next(BeliefState._instances)

    def snapshot_hash(self) -> str:
        return hashlib.sha1(self.table.tobytes()).hexdigest()[:16]


class PayoffEngine:
    """Expected payoffs under belief uncertainty, memoized per
    (observer, coalition, beliefs uid)."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.evaluator = CoalitionEvaluator(scenario)
        self._cache: dict[tuple, float] = {}

    @functools.cached_property
    def truth(self) -> BeliefState:
        """Full-information beliefs, made once per engine so that every
        full-information query shares one payoff-cache key."""
        return BeliefState.point_mass_truth(self.scenario)

    def expected_payoff(self, observer: int, coalition,
                        beliefs: BeliefState) -> float:
        """Observer's expected rate in the coalition: the belief-weighted
        average of its allocated rate over all hypothesized type vectors
        of the other members."""
        return self.expected_payoff_of(observer, coalition, beliefs)

    # split from expected_payoff only because the benchmark's tracer wraps
    # this method by name; callers use expected_payoff
    def expected_payoff_of(self, observer: int, coalition,
                           beliefs: BeliefState) -> float:
        coalition = frozenset(coalition)
        if observer not in coalition:
            raise ValueError("observer must belong to the coalition")
        key = (observer, coalition, beliefs.uid)
        if key not in self._cache:
            self._cache[key] = self._compute(observer, coalition, beliefs)
        return self._cache[key]

    def _compute(self, observer: int, coalition: frozenset,
                 beliefs: BeliefState) -> float:
        sc = self.scenario
        others = sorted(coalition - {observer})
        m = len(sc.type_set)
        if m ** len(others) > TYPE_SPACE_CAP:
            raise ValueError(
                f"type space {m}^{len(others)} exceeds cap "
                f"{TYPE_SPACE_CAP}")
        own_power = sc.true_power(observer)
        type_ids = [t.id for t in sc.type_set]
        mus = {t.id: t.mu for t in sc.type_set}
        total = 0.0
        for combo in itertools.product(type_ids, repeat=len(others)):
            weight = 1.0
            powers = {observer: own_power}
            for j, t in zip(others, combo):
                weight *= beliefs.prob(observer, j, t)
                powers[j] = mus[t]
            if weight == 0.0:
                continue
            result = self.evaluator.evaluate(coalition, powers)
            total += weight * result.per_drone_rate[observer]
        return total


@dataclass(frozen=True)
class DeviationWitness:
    drone: int
    target: tuple[int, ...] | None   # None is the singleton deviation
    payoff_gain: float


def deviation_candidates(structure: CoalitionStructure, proposer: int):
    """Blocks the proposer could join, plus the singleton option (None)."""
    current = structure.block_of(proposer)
    targets: list[tuple[int, ...] | None] = [
        b for b in structure.blocks if b != current]
    if len(current) > 1:
        targets.append(None)
    return current, targets


def admissible(proposer: int, target: tuple[int, ...] | None,
               engine: PayoffEngine, beliefs: BeliefState) -> bool:
    """All members of the target accept: under each member's own beliefs,
    its expected payoff without the proposer is not strictly better."""
    if target is None:
        return True
    joined = frozenset(target) | {proposer}
    for j in target:
        before = engine.expected_payoff(j, frozenset(target), beliefs)
        after = engine.expected_payoff(j, joined, beliefs)
        if strictly_better(before, after):
            return False
    return True


def candidate_groups(structure: CoalitionStructure, proposer: int,
                     beliefs: BeliefState, engine: PayoffEngine):
    """Strictly improving move targets for the proposer, grouped by
    expected payoff (descending) as (payoff, [target_block_or_None, ...]);
    a target joins the last group unless that group's payoff is strictly
    better than its own.  Vetoes are left to the decision that reads
    them."""
    current, targets = deviation_candidates(structure, proposer)
    q_current = engine.expected_payoff(proposer, frozenset(current), beliefs)
    scored = []
    for target in targets:
        joined = frozenset(target) | {proposer} if target \
            else frozenset([proposer])
        q = engine.expected_payoff(proposer, joined, beliefs)
        if strictly_better(q, q_current):
            scored.append((q, target))
    scored.sort(key=lambda e: -e[0])
    groups = []
    for q, target in scored:
        if groups and not strictly_better(groups[-1][0], q):
            groups[-1][1].append(target)
        else:
            groups.append((q, [target]))
    return groups


def best_reply(structure: CoalitionStructure, proposer: int,
               beliefs: BeliefState, engine: PayoffEngine
               ) -> tuple[float | None, list]:
    """The admissible targets of the best payoff level of candidate_groups
    that is not wholly vetoed, with that level's payoff, or ``(None, [])``.
    The simulated step, the Markov chain and the stability scan all decide
    through this one function."""
    for q, level in candidate_groups(structure, proposer, beliefs, engine):
        targets = [target for target in level
                   if admissible(proposer, target, engine, beliefs)]
        if targets:
            return q, targets
    return None, []


def is_nash_stable(structure: CoalitionStructure, beliefs: BeliefState,
                   scenario, engine: PayoffEngine
                   ) -> tuple[bool, DeviationWitness | None]:
    """Stable iff no drone has a best reply: a strictly profitable move
    that every member of the target accepts (Bogomolnaia & Jackson 2002).
    The witness is the first such drone, its first best-reply target and
    the gain.  ``scenario`` is unread; callers pass it positionally."""
    for d in structure.members():
        q, targets = best_reply(structure, d, beliefs, engine)
        if targets:
            q_current = engine.expected_payoff(
                d, frozenset(structure.block_of(d)), beliefs)
            return False, DeviationWitness(d, targets[0], q - q_current)
    return True, None
