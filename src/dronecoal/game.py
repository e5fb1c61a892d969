"""Game-theoretic core: coalition structures, beliefs, expected payoffs,
the best-reply decision, and Nash stability."""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .allocation import CoalitionEvaluator

PARTITION_CAP = 8          # Bell(8) = 4140 structures
TYPE_SPACE_CAP = 100_000   # refuse expected-payoff sums larger than this


class CoalitionStructure:
    """A partition of the drone set into disjoint coalitions: ``blocks``,
    and their ``masks``, where bit i is ``ids[i]``, the i-th smallest
    member.  Canonical form: blocks in lowest-bit order (by smallest
    member), members sorted inside each, so equality is structural."""

    __slots__ = ("ids", "masks", "blocks")

    def __init__(self, blocks):
        blocks = [b for b in blocks if len(b)]
        ids = tuple(sorted(d for b in blocks for d in b))
        if len(ids) != len(set(ids)):
            raise ValueError("blocks must be disjoint")
        self._set(ids, sorted((mask_of(ids, b) for b in blocks),
                              key=lambda m: m & -m))

    def _set(self, ids: tuple, masks) -> "CoalitionStructure":
        self.ids, self.masks = ids, tuple(masks)
        self.blocks = tuple(tuple(d for i, d in enumerate(ids) if m >> i & 1)
                            for m in self.masks)
        return self

    @classmethod
    def from_masks(cls, ids: tuple, masks) -> "CoalitionStructure":
        """The structure over sorted ``ids`` with these block masks."""
        return cls.__new__(cls)._set(ids, masks)

    @classmethod
    def singletons(cls, drone_ids) -> "CoalitionStructure":
        return cls([(d,) for d in drone_ids])

    @classmethod
    def grand(cls, drone_ids) -> "CoalitionStructure":
        return cls([tuple(drone_ids)])

    def members(self) -> tuple[int, ...]:
        return self.ids

    def __eq__(self, other):
        return isinstance(other, CoalitionStructure) \
            and self.masks == other.masks and self.ids == other.ids

    def __hash__(self):
        return hash(self.masks)

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


def mask_of(ids: tuple, members) -> int:
    """The bitmask of ``members`` over ``ids``: bit i is ``ids[i]``."""
    return sum(1 << ids.index(d) for d in members)


def moved(masks: tuple, bit: int, target: int) -> tuple:
    """Block masks, in lowest-bit order, after the drone at ``bit`` leaves
    its block and joins the block ``target`` (0: goes singleton)."""
    out = [m & ~bit for m in masks if m != target and m != bit]
    out.append(target | bit)
    return tuple(sorted(out, key=lambda m: m & -m))


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
    ids = tuple(sorted(drone_ids))
    if not 1 <= len(ids) <= PARTITION_CAP:
        raise ValueError(
            f"{len(ids)} drones exceeds the enumeration cap "
            f"{PARTITION_CAP}; raise PARTITION_CAP to enumerate larger "
            "partitions")
    out: list[CoalitionStructure] = []

    def recurse(i, masks):
        if i == len(ids):
            out.append(CoalitionStructure.from_masks(ids, masks))
            return
        bit = 1 << i
        for k in range(len(masks)):
            recurse(i + 1, masks[:k] + (masks[k] | bit,) + masks[k + 1:])
        recurse(i + 1, masks + (bit,))

    recurse(0, ())
    return out


def check_belief_rows(table: np.ndarray) -> None:
    """Refuse belief vectors (the last axis of ``table``) with a negative
    entry or a sum other than 1."""
    if np.any(table < 0):
        raise ValueError("belief probabilities must be non-negative")
    # np.allclose(sums, 1.0, atol=1e-12) without its overhead; NaN fails
    sums = table.sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= 1e-12 + 1e-5):
        raise ValueError("belief vectors must sum to 1")


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
        table = np.array(table, dtype=float)
        if table.shape != (len(drone_ids), len(drone_ids), len(type_ids)):
            raise ValueError("belief table has wrong shape")
        check_belief_rows(table)
        self._set(table, drone_ids, type_ids)

    def _set(self, table: np.ndarray, drone_ids, type_ids) -> "BeliefState":
        self.drone_ids = tuple(drone_ids)
        self.type_ids = tuple(type_ids)
        table.setflags(write=False)
        self.table = table
        self.content_key = self.drone_ids, self.type_ids, table.tobytes()
        return self

    @classmethod
    def checked(cls, table: np.ndarray, drone_ids, type_ids
                ) -> "BeliefState":
        """The state over ``table`` as it is, which its caller owns, has
        shaped (D, D, m) and has passed to ``check_belief_rows``."""
        return cls.__new__(cls)._set(table, drone_ids, type_ids)

    @classmethod
    def uniform(cls, scenario) -> "BeliefState":
        """Uniform priors about others; point mass on own true type."""
        d, m = len(scenario.drones), len(scenario.type_set)
        table = np.full((d, d, m), 1.0 / m)
        table[range(d), range(d)] = 0.0
        table[range(d), range(d), scenario.true_columns] = 1.0
        return cls(table, scenario.drone_ids, scenario.type_ids)

    @classmethod
    def point_mass_truth(cls, scenario) -> "BeliefState":
        """Full information: every drone knows every true type."""
        d, m = len(scenario.drones), len(scenario.type_set)
        table = np.zeros((d, d, m))
        table[:, range(d), scenario.true_columns] = 1.0
        return cls(table, scenario.drone_ids, scenario.type_ids)

    def snapshot_hash(self) -> str:
        return hashlib.sha1(self.content_key[-1]).hexdigest()[:16]


class PayoffEngine:
    """Expected payoffs under belief uncertainty for one scenario, and the
    best-reply decisions read from them, in one ``DecisionTable`` per
    beliefs content key (``tables``), over the scenario's drone and type
    order, the only axes it reads beliefs by.  A payoff a table misses is
    memoized per (observer position, coalition mask, the observer's rows
    about the other members), which states that differ only in rows the
    payoff does not read share.  Every state reuses one rate per
    (position, mask, type-count multiset), filled for every member of a
    coalition by one batched water-fill."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.ids = scenario.drone_ids
        self.evaluator = CoalitionEvaluator(scenario)
        self._by_rows: dict[tuple, float] = {}
        self._rates: dict[tuple, list[float]] = {}
        self.tables: dict[tuple, DecisionTable] = {}

    @functools.cached_property
    def truth(self) -> BeliefState:
        """Full-information beliefs, made once per engine so that every
        full-information query shares one table."""
        return BeliefState.point_mass_truth(self.scenario)

    def table(self, beliefs: BeliefState) -> "DecisionTable":
        """The decision table of the beliefs' content, made on first use;
        its rows must be the scenario's drones and its columns its types."""
        key = beliefs.content_key
        if key not in self.tables:
            for what, got, own in (
                    ("drones", beliefs.drone_ids, self.ids),
                    ("types", beliefs.type_ids, self.scenario.type_ids)):
                if got != own:
                    raise ValueError(f"belief {what} {got} are not the "
                                     f"scenario's {own}")
            self.tables[key] = DecisionTable(self, beliefs)
        return self.tables[key]

    def expected_payoff_of(self, pos: int, mask: int,
                           beliefs: BeliefState) -> float:
        """The payoff a table fills on a miss: the drone at ``pos`` in
        coalition ``mask``, from its rows about the other members."""
        row = beliefs.table[pos].tolist()
        rows = tuple(tuple(row[j]) for j in range(len(row))
                     if mask >> j & 1 and j != pos)
        if (pos, mask, rows) not in self._by_rows:
            self._by_rows[pos, mask, rows] = self._compute(pos, mask, rows)
        return self._by_rows[pos, mask, rows]

    def _compute(self, pos: int, mask: int, rows: tuple) -> float:
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
        if (pos, mask) not in self._rates:
            mus = [t.mu for t in sc.type_set]
            others = [[mus[k] for k in ks] for ks in multisets]
            budgets = {i: [math.fsum([mu, *o]) for o in others]
                       for i, mu in enumerate(sc.true_mus) if mask >> i & 1}
            filled = self.evaluator.evaluate_budgets(
                mask, dict.fromkeys(itertools.chain(*budgets.values())))
            for i, row in budgets.items():
                self._rates[i, mask] = [filled[b][i] for b in row]
        factors = np.array([1.0, *itertools.chain(*rows),
                            *self._rates[pos, mask]])
        terms = np.multiply.accumulate(factors[pick])[-1]
        return float(np.add.accumulate(terms)[-1])


def check_engine(scenario, engine: PayoffEngine) -> None:
    """Refuse an engine of another scenario; its own passes on identity."""
    if scenario is not engine.scenario and scenario != engine.scenario:
        raise ValueError("the payoff engine is not the scenario's")


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


class DecisionTable:
    """One belief content's payoffs, vetoes and best-reply decisions over
    bitmasks of the engine's ``ids``, the scenario's (a target of 0 is going
    singleton), filled on first read and shared by every reader."""

    def __init__(self, engine: PayoffEngine, beliefs: BeliefState):
        # a proxy: an engine and its tables form no reference cycle
        self.engine, self.beliefs = weakref.proxy(engine), beliefs
        self.ids = engine.ids
        self._payoffs: list[dict[int, float]] = [{} for _ in self.ids]
        self._accepts: dict[int, bool] = {}
        self._decisions: dict[CoalitionStructure, tuple] = {}

    def payoff(self, pos: int, mask: int) -> float:
        """Expected payoff of the drone at ``pos`` in coalition ``mask``."""
        q = self._payoffs[pos].get(mask)
        if q is None:
            q = self._payoffs[pos][mask] = self.engine.expected_payoff_of(
                pos, mask, self.beliefs)
        return q

    def accepts(self, pos: int, target: int) -> bool:
        """Every member of ``target`` accepts the drone at ``pos``: its
        expected payoff without the drone is not strictly better."""
        key = target * len(self.ids) + pos
        if key not in self._accepts:
            self._accepts[key] = not any(
                strictly_better(self.payoff(j, target),
                                self.payoff(j, target | 1 << pos))
                for j in range(len(self.ids)) if target >> j & 1)
        return self._accepts[key]

    def levels(self, structure: CoalitionStructure, pos: int) -> list:
        """The strictly improving targets of the drone at ``pos`` (in block
        order, then going singleton) by payoff level, descending, as
        (payoff, [target, ...]); a target joins the last level unless that
        level's payoff is strictly better than its own."""
        if structure.ids != self.ids:
            raise ValueError(f"{structure} does not partition {self.ids}")
        masks, bit, qs = structure.masks, 1 << pos, self._payoffs[pos]
        current = next(m for m in masks if m & bit)
        # a miss (or a payoff of 0.0) reads through payoff()
        q_current = qs.get(current) or self.payoff(pos, current)
        scored = [(q, m) for m in masks + ((0,) if current != bit else ())
                  if m != current
                  for q in (qs.get(m | bit) or self.payoff(pos, m | bit),)
                  if strictly_better(q, q_current)]
        scored.sort(key=lambda e: -e[0])
        levels: list = []
        for q, m in scored:
            if levels and not strictly_better(levels[-1][0], q):
                levels[-1][1].append(m)
            else:
                levels.append((q, [m]))
        return levels

    def decisions(self, structure: CoalitionStructure) -> tuple:
        """Per drone position, (payoff, targets): the accepted targets of
        the best level not wholly vetoed, with its payoff, or (None, ())."""
        out = self._decisions.get(structure)
        if out is None:
            out = self._decisions[structure] = tuple(
                self._decide(structure, pos) for pos in range(len(self.ids)))
        return out

    def _decide(self, structure: CoalitionStructure, pos: int) -> tuple:
        for q, level in self.levels(structure, pos):
            targets = tuple(m for m in level if self.accepts(pos, m))
            if targets:
                return q, targets
        return None, ()


@dataclass(frozen=True)
class DeviationWitness:
    drone: int
    target: tuple[int, ...] | None   # None is the singleton deviation
    payoff_gain: float


def _blocks(structure: CoalitionStructure) -> dict:
    """Target mask -> block; going singleton (0) reads None."""
    return dict(zip(structure.masks, structure.blocks))


def admissible(proposer: int, target: tuple[int, ...] | None,
               engine: PayoffEngine, beliefs: BeliefState) -> bool:
    """All members of the target accept (``DecisionTable.accepts``)."""
    table = engine.table(beliefs)
    return target is None or table.accepts(engine.ids.index(proposer),
                                           mask_of(engine.ids, target))


def candidate_groups(structure: CoalitionStructure, proposer: int,
                     beliefs: BeliefState, engine: PayoffEngine):
    """``DecisionTable.levels`` of the proposer as (payoff,
    [target_block_or_None, ...]); vetoes are left to the decision."""
    table, blocks = engine.table(beliefs), _blocks(structure)
    levels = table.levels(structure, engine.ids.index(proposer))
    return [(q, [blocks.get(m) for m in level]) for q, level in levels]


def is_nash_stable(structure: CoalitionStructure, beliefs: BeliefState,
                   scenario, engine: PayoffEngine
                   ) -> tuple[bool, DeviationWitness | None]:
    """Stable iff no drone has a best reply (Bogomolnaia & Jackson 2002);
    the witness is the first such drone, its first target and the gain.
    ``scenario`` must be the engine's (``check_engine``)."""
    check_engine(scenario, engine)
    table = engine.table(beliefs)
    for pos, (q, targets) in enumerate(table.decisions(structure)):
        if targets:
            current = next(m for m in structure.masks if m >> pos & 1)
            return False, DeviationWitness(
                structure.ids[pos], _blocks(structure).get(targets[0]),
                q - table.payoff(pos, current))
    return True, None
