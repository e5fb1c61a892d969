"""Game-theoretic core: coalition structures, beliefs, expected payoffs,
Nash stability, and Bayesian-core membership."""

from __future__ import annotations

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


def enumerate_structures(drone_ids, cap: int = PARTITION_CAP
                         ) -> list[CoalitionStructure]:
    """All set partitions of the drone ids, in deterministic order."""
    drone_ids = sorted(drone_ids)
    if not 1 <= len(drone_ids) <= cap:
        raise ValueError(
            f"{len(drone_ids)} drones exceeds the enumeration cap {cap}; "
            "raise the cap to enumerate larger partitions")
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
    (subject, observer, coalition, beliefs uid)."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.evaluator = CoalitionEvaluator(scenario)
        self._cache: dict[tuple, float] = {}

    def expected_payoff(self, observer: int, coalition,
                        beliefs: BeliefState) -> float:
        """Observer's expected rate in the coalition: the belief-weighted
        average of its allocated rate over all hypothesized type vectors
        of the other members."""
        return self.expected_payoff_of(observer, observer, coalition, beliefs)

    def expected_payoff_of(self, subject: int, observer: int, coalition,
                           beliefs: BeliefState) -> float:
        coalition = frozenset(coalition)
        if subject not in coalition:
            raise ValueError("subject must belong to the coalition")
        if observer not in coalition:
            raise ValueError("observer must belong to the coalition")
        key = (subject, observer, coalition, beliefs.uid)
        if key not in self._cache:
            self._cache[key] = self._compute(subject, observer, coalition,
                                             beliefs)
        return self._cache[key]

    def _compute(self, subject: int, observer: int, coalition: frozenset,
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
            total += weight * result.per_drone_rate[subject]
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
    its expected payoff with the proposer is no lower than without."""
    if target is None:
        return True
    joined = frozenset(target) | {proposer}
    for j in target:
        before = engine.expected_payoff(j, frozenset(target), beliefs)
        after = engine.expected_payoff(j, joined, beliefs)
        if after < before:
            return False
    return True


def is_nash_stable(structure: CoalitionStructure, beliefs: BeliefState,
                   scenario, engine: PayoffEngine
                   ) -> tuple[bool, DeviationWitness | None]:
    """Deviation scan: the structure is stable iff no drone has a strictly
    profitable move that every member of the target coalition accepts."""
    for d in structure.members():
        current, targets = deviation_candidates(structure, d)
        q_current = engine.expected_payoff(d, frozenset(current), beliefs)
        for target in targets:
            joined = frozenset(target) | {d} if target else frozenset([d])
            q_new = engine.expected_payoff(d, joined, beliefs)
            if q_new <= q_current + _tol(q_current):
                continue
            if admissible(d, target, engine, beliefs):
                return False, DeviationWitness(d, target, q_new - q_current)
    return True, None


def _tol(x: float) -> float:
    return 1e-12 * max(1.0, abs(x))


@dataclass(frozen=True)
class CoreVerdict:
    in_core: bool
    blocking: tuple[int, ...] | None


def bayesian_core(scenario, beliefs: BeliefState, kind: str,
                  engine: PayoffEngine) -> CoreVerdict:
    """Membership of the grand coalition in the weak or strong Bayesian
    core.

    A proper subset S weakly blocks when every member, under its own
    beliefs, expects at least its grand-coalition payoff in S.  The strong
    core additionally excludes the grand coalition when some S exists in
    which every member believes that all of S (including itself) weakly
    prefers S.  Strong-core membership therefore implies weak-core
    membership.
    """
    if kind not in ("weak", "strong"):
        raise ValueError("kind must be 'weak' or 'strong'")
    ids = scenario.drone_ids
    if len(ids) > PARTITION_CAP:
        raise ValueError(f"{len(ids)} drones exceeds the enumeration cap")
    grand = frozenset(ids)

    def weakly_prefers(d, s):
        return (engine.expected_payoff(d, s, beliefs)
                >= engine.expected_payoff(d, grand, beliefs) - 0.0)

    def believes_all_prefer(d, s):
        for j in s:
            q_s = engine.expected_payoff_of(j, d, s, beliefs)
            q_grand = engine.expected_payoff_of(j, d, grand, beliefs)
            if q_s < q_grand:
                return False
        return True

    for size in range(1, len(ids)):
        for s in itertools.combinations(ids, size):
            sub = frozenset(s)
            if all(weakly_prefers(d, sub) for d in s):
                return CoreVerdict(False, s)
            if kind == "strong" and all(believes_all_prefer(d, sub)
                                        for d in s):
                return CoreVerdict(False, s)
    return CoreVerdict(True, None)
