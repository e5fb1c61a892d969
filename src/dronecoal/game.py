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
    """Per-drone probability tables over the type set, as an immutable
    value.

    table[i, j] is observer i's belief vector over observed drone j's
    type; self-rows are point masses on the true type.  The constructor
    copies the table and makes the copy read-only, so ``content_key``,
    (drone_ids, type_ids, table bytes), computed once, is the state's one
    identity.
    """

    def __init__(self, table: np.ndarray, drone_ids, type_ids):
        self.drone_ids = tuple(drone_ids)
        self.type_ids = tuple(type_ids)
        self._index = {d: i for i, d in enumerate(self.drone_ids)}
        self._tindex = {t: i for i, t in enumerate(self.type_ids)}
        table = np.array(table, dtype=float)
        if table.shape != (len(self.drone_ids), len(self.drone_ids),
                           len(self.type_ids)):
            raise ValueError("belief table has wrong shape")
        if np.any(table < 0):
            raise ValueError("belief probabilities must be non-negative")
        # np.allclose(sums, 1.0, atol=1e-12) without its overhead; NaN fails
        sums = table.sum(axis=2)
        if not np.all(np.abs(sums - 1.0) <= 1e-12 + 1e-5):
            raise ValueError("belief vectors must sum to 1")
        table.setflags(write=False)
        self.table = table
        self.content_key = self.drone_ids, self.type_ids, table.tobytes()

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

    def rows(self, observer: int, observed, type_ids) -> list[list[float]]:
        """Observer's belief vectors about each drone in ``observed``, as
        Python floats, with the columns in ``type_ids`` order."""
        table = self.table[self._index[observer]].tolist()
        cols = [self._tindex[t] for t in type_ids]
        return [[table[self._index[j]][k] for k in cols] for j in observed]

    def snapshot_hash(self) -> str:
        return hashlib.sha1(self.content_key[-1]).hexdigest()[:16]


class PayoffEngine:
    """Expected payoffs under belief uncertainty, and the ``best_reply``
    memo ``decisions`` keyed by (structure, proposer, beliefs content key),
    for one scenario.  A payoff is memoized per (observer, coalition,
    beliefs content key), which spares hits the row gather, and on a miss
    there per (observer, coalition, the observer's rows about the other
    members in the scenario's type order), which states that differ only
    in rows the payoff does not read share.  Under both, every state reuses
    one rate per (observer, coalition, type-count multiset), filled for
    every member of a coalition by one batched water-fill."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.evaluator = CoalitionEvaluator(scenario)
        self._type_ids = [t.id for t in scenario.type_set]
        self._cache: dict[tuple, float] = {}
        self._by_rows: dict[tuple, float] = {}
        self._rates: dict[tuple, list[float]] = {}
        self.decisions: dict[tuple, tuple] = {}

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
        key = (observer, coalition, beliefs.content_key)
        q = self._cache.get(key)
        if q is None:
            rows = beliefs.rows(observer, sorted(coalition - {observer}),
                                self._type_ids)
            rkey = (observer, coalition, tuple(map(tuple, rows)))
            if rkey not in self._by_rows:
                self._by_rows[rkey] = self._compute(observer, coalition, rows)
            q = self._cache[key] = self._by_rows[rkey]
        return q

    def _compute(self, observer: int, coalition: frozenset,
                 rows: list[list[float]]) -> float:
        """The plain loop's sum, bit for bit: over the m^k type vectors in
        product order, ``(((1.0 * r0) * r1) * ...) * rate`` added left to
        right (the ufuncs' ``accumulate`` is sequential, while ``.sum()``,
        ``@`` and ``fsum`` reassociate; a zero weight adds +0.0).  A rate
        depends only on the type-count multiset of the other members, whose
        budget is ``fsum([power, *mus])`` as ``evaluate`` keys it.  The first
        miss for a coalition fills every member's rates: one
        ``evaluate_budgets`` call water-fills the coalition's distinct
        budgets at once."""
        sc = self.scenario
        m = len(sc.type_set)
        check_type_space(m, len(rows))
        pick, multisets = _type_vectors(m, len(rows))
        if (observer, coalition) not in self._rates:
            mus = [t.mu for t in sc.type_set]
            others = [[mus[k] for k in ks] for ks in multisets]
            power = {d: sc.true_power(d) for d in coalition}
            budgets = {d: [math.fsum([power[d], *o]) for o in others]
                       for d in coalition}
            filled = self.evaluator.evaluate_budgets(
                coalition, dict.fromkeys(itertools.chain(*budgets.values())))
            for d, row in budgets.items():
                self._rates[d, coalition] = [filled[b][d] for b in row]
        factors = np.array([1.0, *itertools.chain(*rows),
                            *self._rates[observer, coalition]])
        terms = np.multiply.accumulate(factors[pick])[-1]
        return float(np.add.accumulate(terms)[-1])


def check_type_space(m: int, k: int) -> None:
    """Refuse a payoff sum over more than TYPE_SPACE_CAP type vectors."""
    if m ** k > TYPE_SPACE_CAP:
        raise ValueError(f"type space {m}^{k} exceeds cap {TYPE_SPACE_CAP}")


@functools.lru_cache(maxsize=None)
def _type_vectors(m: int, k: int) -> tuple[np.ndarray, tuple]:
    """Per type vector of k members over m types, in product order, the
    positions in ``[1.0, *rows, *rates]`` of its k + 2 factors; and the
    type-count multisets that index ``rates``, as sorted type indices."""
    combos = list(itertools.product(range(m), repeat=k))
    found: dict[tuple[int, ...], int] = {}
    pick = np.array(
        [[0] * len(combos)]
        + [[1 + j * m + c[j] for c in combos] for j in range(k)]
        + [[1 + k * m + found.setdefault(tuple(sorted(c)), len(found))
            for c in combos]], dtype=np.intp)
    pick.setflags(write=False)
    return pick, tuple(found)


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
    through this one function.  Decisions are memoized in
    ``engine.decisions``; each call returns a fresh target list."""
    key = (structure, proposer, beliefs.content_key)
    decision = engine.decisions.get(key)
    if decision is None:
        decision = None, ()
        for q, level in candidate_groups(structure, proposer, beliefs, engine):
            targets = tuple(target for target in level
                            if admissible(proposer, target, engine, beliefs))
            if targets:
                decision = q, targets
                break
        engine.decisions[key] = decision
    return decision[0], list(decision[1])


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
