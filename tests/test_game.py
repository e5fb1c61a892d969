import itertools
import math

import numpy as np
import pytest

import oracles
from dronecoal import game
from dronecoal.game import (BeliefState, CoalitionStructure, PayoffEngine,
                            admissible, enumerate_structures, is_nash_stable)
from dronecoal.allocation import CoalitionEvaluator
from dronecoal.dynamics import best_reply_step
from dronecoal.markov import build_chain
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.bench import structure_rates
from dronecoal.scenario import (DEFAULT_TYPE_SET, SETTINGS, TypeSpec,
                                baseline_rates, generate)
from oracles import (block_of, deviation_candidates, payoff, prob,
                     true_spec, with_rows)

URBAN = ENVIRONMENTS["urban"]
FOUR_TYPES = tuple(TypeSpec(k, mu, 3.0)
                   for k, mu in enumerate((12.0, 18.0, 24.0, 30.0)))

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def move(s: CoalitionStructure, drone: int, target) -> CoalitionStructure:
    """``s`` after ``drone`` joins the block ``target`` (None: goes
    singleton), moved by mask with ``game.moved``."""
    mask = 0 if target is None else s.masks[s.blocks.index(target)]
    return CoalitionStructure.from_masks(
        s.ids, game.moved(s.masks, 1 << s.ids.index(drone), mask))


@pytest.fixture(scope="module")
def s1():
    return generate(SETTINGS["S1"], URBAN, seed=8)


@pytest.fixture(scope="module")
def s1_engine(s1):
    return PayoffEngine(s1)


class TestCoalitionStructure:
    def test_canonical_equality(self):
        a = CoalitionStructure([(2, 1), (0,)])
        b = CoalitionStructure([(0,), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a.blocks == ((0,), (1, 2))

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            CoalitionStructure([(0, 1), (1, 2)])

    def test_singletons_and_grand(self):
        s = CoalitionStructure.singletons([3, 1, 2])
        assert s.blocks == ((1,), (2,), (3,))
        g = CoalitionStructure.grand([3, 1, 2])
        assert g.blocks == ((1, 2, 3),)

    def test_move_join(self):
        s = CoalitionStructure.singletons([0, 1, 2])
        moved = move(s, 0, (1,))
        assert moved.blocks == ((0, 1), (2,))
        assert moved.masks == (0b011, 0b100)

    def test_move_to_singleton(self):
        s = CoalitionStructure([(0, 1), (2,)])
        moved = move(s, 1, None)
        assert moved.blocks == ((0,), (1,), (2,))
        assert moved.masks == (0b001, 0b010, 0b100)

    def test_move_preserves_membership(self):
        s = CoalitionStructure([(0, 1, 2), (3, 4)])
        for d in s.members():
            cur, targets = deviation_candidates(s, d)
            for t in targets:
                assert move(s, d, t).members() == s.members()
                assert move(s, d, t) == oracles.move(s, d, t)

    def test_string_round_trip(self):
        for blocks in [[(0,)], [(0, 2), (1,)], [(0, 1, 2, 3)]]:
            s = CoalitionStructure(blocks)
            assert CoalitionStructure.from_string(s.to_string()) == s
        assert CoalitionStructure([(0,), (1, 2)]).to_string() == "{0}{1,2}"

    def test_malformed_string(self):
        with pytest.raises(ValueError):
            CoalitionStructure.from_string("0,1")

    def test_masks_follow_sorted_ids(self):
        s = CoalitionStructure([(9, 2), (5,)])
        assert s.ids == (2, 5, 9)
        assert s.masks == (0b101, 0b010)
        assert s.blocks == ((2, 9), (5,))
        joined = move(s, 5, (2, 9))
        assert (joined.masks, joined.blocks) == ((0b111,), ((2, 5, 9),))
        # equal masks over other drones are another structure
        assert CoalitionStructure.singletons([0, 1]) != \
            CoalitionStructure.singletons([1, 2])


class TestEnumeration:
    def test_bell_numbers(self):
        for d, count in BELL.items():
            structures = enumerate_structures(range(d))
            assert len(structures) == count
            assert len(set(structures)) == count

    def test_three_drone_partitions(self):
        got = {s.to_string() for s in enumerate_structures([0, 1, 2])}
        assert got == {"{0,1,2}", "{0,1}{2}", "{0,2}{1}", "{0}{1,2}",
                       "{0}{1}{2}"}

    def test_cap_enforced(self, monkeypatch):
        with pytest.raises(ValueError):
            enumerate_structures(range(9))
        monkeypatch.setattr(game, "PARTITION_CAP", 9)
        assert len(enumerate_structures(range(9))) == 21147

    def test_deterministic_order(self):
        a = [s.to_string() for s in enumerate_structures(range(4))]
        b = [s.to_string() for s in enumerate_structures(range(4))]
        assert a == b


class TestBeliefState:
    def test_uniform(self, s1):
        b = BeliefState.uniform(s1)
        for i in s1.drone_ids:
            for j in s1.drone_ids:
                if i == j:
                    assert prob(b, i, i, true_spec(s1, i).id) == 1.0
                else:
                    for t in s1.type_set:
                        assert prob(b, i, j, t.id) == pytest.approx(0.5)

    def test_point_mass_truth(self, s1):
        b = BeliefState.point_mass_truth(s1)
        for i in s1.drone_ids:
            for j in s1.drone_ids:
                assert prob(b, i, j, true_spec(s1, j).id) == 1.0

    def test_table_sums_checked(self, s1):
        ids, tids = s1.drone_ids, [t.id for t in s1.type_set]
        base = BeliefState.uniform(s1).table
        for bad in (math.nan, 1.0 + 2e-5, 1.0 - 2e-5):
            table = base.copy()
            table[0, 1] = [bad, 0.0]
            with pytest.raises(ValueError, match="sum to 1"):
                BeliefState(table, ids, tids)
        table = base.copy()
        table[0, 1] = [1.0 + 5e-6, 0.0]
        assert prob(BeliefState(table, ids, tids), 0, 1, 0) == 1.0 + 5e-6

    def test_table_is_a_frozen_copy(self, s1):
        table = BeliefState.uniform(s1).table.copy()
        b = BeliefState(table, s1.drone_ids, [t.id for t in s1.type_set])
        with pytest.raises(ValueError):
            b.table[0, 1] = [1.0, 0.0]
        warm = PayoffEngine(s1)
        key, digest = b.content_key, b.snapshot_hash()
        ids = s1.drone_ids
        coalitions = [frozenset(c) for k in range(1, len(ids) + 1)
                      for c in itertools.combinations(ids, k)]

        def answers(engine):
            payoffs = [payoff(engine, d, c, b).hex()
                       for c in coalitions for d in sorted(c)]
            replies = [engine.table(b).decisions(s)
                       for s in enumerate_structures(ids)]
            return payoffs, replies

        before = answers(warm)
        # editing the caller's array leaves the state as it was built
        table[:, :, 0] = 1.0
        table[:, :, 1:] = 0.0
        assert (b.content_key, b.snapshot_hash()) == (key, digest)
        assert b.table.tobytes() == key[-1]
        assert answers(warm) == answers(PayoffEngine(s1)) == before

    def test_snapshot_hash_tracks_content(self, s1):
        a = BeliefState.uniform(s1)
        b = BeliefState.uniform(s1)
        assert a.snapshot_hash() == b.snapshot_hash()
        b = with_rows(b, {(0, 1): [0.9, 0.1]})
        assert a.snapshot_hash() != b.snapshot_hash()


class TestPayoffEngine:
    def test_singleton_equals_baseline(self, s1, s1_engine):
        base = baseline_rates(CoalitionEvaluator(s1))
        b = BeliefState.uniform(s1)
        for d in s1.drone_ids:
            q = payoff(s1_engine, d, [d], b)
            assert q == pytest.approx(base[d])

    def test_point_mass_equals_deterministic(self):
        # full-information payoffs are the true-power rates bit for bit, so
        # the full_info walk decides on the numbers its results report
        pairs = 0
        for types in (DEFAULT_TYPE_SET, FOUR_TYPES):
            for name in ("S1", "S2", "S3", "S4"):
                for seed in range(6):
                    sc = generate(SETTINGS[name], URBAN, types, seed=seed)
                    engine = PayoffEngine(sc)
                    table = engine.table(engine.truth)
                    for s in enumerate_structures(sc.drone_ids):
                        rates = structure_rates(s, engine.evaluator)
                        for mask in s.masks:
                            for pos, d in enumerate(sc.drone_ids):
                                if mask >> pos & 1:
                                    assert rates[d].hex() == \
                                        table.payoff(pos, mask).hex()
                                    pairs += 1
        assert pairs == 18_636

    def test_uniform_two_drone_expansion(self, s1, s1_engine):
        # a two-member coalition under uniform beliefs averages the rates
        # over the other member's two hypothesized types
        b = BeliefState.uniform(s1)
        coalition = frozenset([0, 1])
        mus = {t.id: t.mu for t in s1.type_set}
        expected = 0.0
        for t, w in ((0, 0.5), (1, 0.5)):
            rates = CoalitionEvaluator(s1).evaluate(
                0b11, [true_spec(s1, 0).mu, mus[t]])
            expected += w * rates[0]
        assert payoff(s1_engine, 0, coalition, b) == \
            pytest.approx(expected)

    def test_skewed_beliefs_weighting(self, s1, s1_engine):
        b = with_rows(BeliefState.uniform(s1), {(0, 1): [0.9, 0.1]})
        mus = {t.id: t.mu for t in s1.type_set}
        coalition = frozenset([0, 1])
        expected = sum(w * CoalitionEvaluator(s1).evaluate(
            0b11, [true_spec(s1, 0).mu, mus[t]])[0]
            for t, w in ((0, 0.9), (1, 0.1)))
        assert payoff(s1_engine, 0, coalition, b) == \
            pytest.approx(expected)

    def test_structure_over_other_drones_refused(self, s1, s1_engine):
        # an engine's bitmasks are over its scenario's drones
        b = BeliefState.uniform(s1)
        other = CoalitionStructure.singletons([d + 1 for d in s1.drone_ids])
        with pytest.raises(ValueError):
            s1_engine.table(b).decisions(other)
        with pytest.raises(ValueError):
            best_reply_step(other, 1, b, s1_engine, np.random.default_rng(0))
        with pytest.raises(ValueError):
            is_nash_stable(other, b, s1, s1_engine)

    def test_beliefs_over_other_types_refused(self, s1):
        # an engine reads belief rows and columns by position in the
        # scenario's drone and type order, so beliefs over any other drone
        # or type axis are refused before a table is made
        b = BeliefState.uniform(s1)
        engine = PayoffEngine(s1)
        perm = [2, 0, 1]
        for table, dids, tids, what in (
                (b.table[..., ::-1], b.drone_ids, b.type_ids[::-1], "types"),
                (b.table, b.drone_ids, b.type_ids[::-1], "types"),
                (b.table, b.drone_ids, (5, 6), "types"),
                (b.table[np.ix_(perm, perm)],
                 [b.drone_ids[i] for i in perm], b.type_ids, "drones")):
            other = BeliefState(table, dids, tids)
            with pytest.raises(ValueError, match=f"belief {what}"):
                payoff(engine, 0, [0, 1], other)
            with pytest.raises(ValueError, match=f"belief {what}"):
                engine.table(other)
            with pytest.raises(ValueError, match=f"belief {what}"):
                build_chain(s1, other, engine)
            assert other.content_key not in engine.tables
        assert engine.tables == {}

    def test_type_space_cap(self, s1, monkeypatch):
        monkeypatch.setattr(game, "TYPE_SPACE_CAP", 1)
        engine = PayoffEngine(s1)
        b = BeliefState.uniform(s1)
        with pytest.raises(ValueError):
            payoff(engine, 0, s1.drone_ids, b)

    def test_memoization_respects_belief_version(self, s1, s1_engine):
        b = BeliefState.uniform(s1)
        coalition = frozenset([0, 1])
        before = payoff(s1_engine, 0, coalition, b)
        b = with_rows(b, {(0, 1): [1.0, 0.0]})
        after = payoff(s1_engine, 0, coalition, b)
        assert before != after


def _independent_stability_scan(structure, beliefs, scenario, engine):
    """Literal re-derivation of the deviation scan from the expected
    payoffs, without using is_nash_stable."""
    for d in structure.members():
        current = block_of(structure, d)
        q_cur = payoff(engine, d, current, beliefs)
        options = [b for b in structure.blocks if b != current]
        if len(current) > 1:
            options.append(None)
        for target in options:
            joined = frozenset(target) | {d} if target else frozenset([d])
            q_new = payoff(engine, d, joined, beliefs)
            if q_new <= q_cur + 1e-12 * max(1.0, abs(q_cur)):
                continue
            vetoed = False
            if target is not None:
                for j in target:
                    if payoff(engine, j, joined, beliefs) < \
                            payoff(engine, j, target, beliefs):
                        vetoed = True
                        break
            if not vetoed:
                return False
    return True


class TestNashStability:
    def test_unstable_singletons_with_witness(self, s1, s1_engine):
        b = BeliefState.point_mass_truth(s1)
        singles = CoalitionStructure.singletons(s1.drone_ids)
        stable, witness = is_nash_stable(singles, b, s1, s1_engine)
        assert not stable
        assert witness is not None
        assert witness.payoff_gain > 0
        # the witnessed move must be strictly profitable and admissible
        joined = frozenset(witness.target) | {witness.drone} \
            if witness.target else frozenset([witness.drone])
        q_new = payoff(s1_engine, witness.drone, joined, b)
        q_old = payoff(s1_engine, witness.drone,
                       block_of(singles, witness.drone), b)
        assert q_new - q_old == pytest.approx(witness.payoff_gain)
        assert admissible(witness.drone, witness.target, s1_engine, b)

    def test_stable_structure_exists(self, s1, s1_engine):
        b = BeliefState.point_mass_truth(s1)
        stable_set = [s for s in enumerate_structures(s1.drone_ids)
                      if is_nash_stable(s, b, s1, s1_engine)[0]]
        assert stable_set, "no stable structure found"

    def test_agrees_with_independent_scan(self, s1_engine, s1):
        for beliefs in (BeliefState.point_mass_truth(s1),
                        BeliefState.uniform(s1)):
            for s in enumerate_structures(s1.drone_ids):
                expected = _independent_stability_scan(s, beliefs, s1,
                                                       s1_engine)
                got, _ = is_nash_stable(s, beliefs, s1, s1_engine)
                assert got == expected, s.to_string()

    def test_agreement_across_seeds(self):
        for seed in range(5):
            sc = generate(SETTINGS["S1"], URBAN, seed=100 + seed)
            engine = PayoffEngine(sc)
            b = BeliefState.point_mass_truth(sc)
            for s in enumerate_structures(sc.drone_ids):
                assert is_nash_stable(s, b, sc, engine)[0] == \
                    _independent_stability_scan(s, b, sc, engine)
