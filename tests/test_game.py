import math

import numpy as np
import pytest

from dronecoal import game
from dronecoal.game import (BeliefState, CoalitionStructure, PayoffEngine,
                            admissible, deviation_candidates,
                            enumerate_structures, is_nash_stable)
from dronecoal.allocation import CoalitionEvaluator
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, baseline_rates, generate

URBAN = ENVIRONMENTS["urban"]

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


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
        moved = s.move(0, (1,))
        assert moved.blocks == ((0, 1), (2,))

    def test_move_to_singleton(self):
        s = CoalitionStructure([(0, 1), (2,)])
        moved = s.move(1, None)
        assert moved.blocks == ((0,), (1,), (2,))

    def test_move_preserves_membership(self):
        s = CoalitionStructure([(0, 1, 2), (3, 4)])
        for d in s.members():
            cur, targets = deviation_candidates(s, d)
            for t in targets:
                assert s.move(d, t).members() == s.members()

    def test_string_round_trip(self):
        for blocks in [[(0,)], [(0, 2), (1,)], [(0, 1, 2, 3)]]:
            s = CoalitionStructure(blocks)
            assert CoalitionStructure.from_string(s.to_string()) == s
        assert CoalitionStructure([(0,), (1, 2)]).to_string() == "{0}{1,2}"

    def test_malformed_string(self):
        with pytest.raises(ValueError):
            CoalitionStructure.from_string("0,1")


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
                    assert b.prob(i, i, s1.drone(i).true_type) == 1.0
                else:
                    for t in s1.type_set:
                        assert b.prob(i, j, t.id) == pytest.approx(0.5)

    def test_point_mass_truth(self, s1):
        b = BeliefState.point_mass_truth(s1)
        for i in s1.drone_ids:
            for j in s1.drone_ids:
                assert b.prob(i, j, s1.drone(j).true_type) == 1.0

    def test_set_row_bumps_version(self, s1):
        b = BeliefState.uniform(s1)
        uid = b.uid
        b.set_row(0, 1, [0.7, 0.3])
        assert b.uid != uid
        assert b.prob(0, 1, 0) == pytest.approx(0.7)

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
        assert BeliefState(table, ids, tids).prob(0, 1, 0) == 1.0 + 5e-6

    def test_invalid_rows_rejected(self, s1):
        b = BeliefState.uniform(s1)
        with pytest.raises(ValueError):
            b.set_row(0, 1, [0.7, 0.7])

    def test_snapshot_hash_tracks_content(self, s1):
        a = BeliefState.uniform(s1)
        b = BeliefState.uniform(s1)
        assert a.snapshot_hash() == b.snapshot_hash()
        b.set_row(0, 1, [0.9, 0.1])
        assert a.snapshot_hash() != b.snapshot_hash()


class TestPayoffEngine:
    def test_singleton_equals_baseline(self, s1, s1_engine):
        base = baseline_rates(s1, CoalitionEvaluator(s1))
        b = BeliefState.uniform(s1)
        for d in s1.drone_ids:
            q = s1_engine.expected_payoff(d, frozenset([d]), b)
            assert q == pytest.approx(base[d])

    def test_point_mass_equals_deterministic(self, s1, s1_engine):
        b = BeliefState.point_mass_truth(s1)
        coalition = frozenset([0, 1])
        powers = {d: s1.true_power(d) for d in coalition}
        result = CoalitionEvaluator(s1).evaluate(coalition, powers)
        for d in coalition:
            q = s1_engine.expected_payoff(d, coalition, b)
            assert q == pytest.approx(result.per_drone_rate[d])

    def test_uniform_two_drone_expansion(self, s1, s1_engine):
        # a two-member coalition under uniform beliefs averages the rates
        # over the other member's two hypothesized types
        b = BeliefState.uniform(s1)
        coalition = frozenset([0, 1])
        mus = {t.id: t.mu for t in s1.type_set}
        expected = 0.0
        for t, w in ((0, 0.5), (1, 0.5)):
            result = CoalitionEvaluator(s1).evaluate(
                coalition, {0: s1.true_power(0), 1: mus[t]})
            expected += w * result.per_drone_rate[0]
        assert s1_engine.expected_payoff(0, coalition, b) == \
            pytest.approx(expected)

    def test_skewed_beliefs_weighting(self, s1, s1_engine):
        b = BeliefState.uniform(s1)
        b.set_row(0, 1, [0.9, 0.1])
        mus = {t.id: t.mu for t in s1.type_set}
        coalition = frozenset([0, 1])
        expected = sum(w * CoalitionEvaluator(s1).evaluate(
            coalition, {0: s1.true_power(0), 1: mus[t]}).per_drone_rate[0]
            for t, w in ((0, 0.9), (1, 0.1)))
        assert s1_engine.expected_payoff(0, coalition, b) == \
            pytest.approx(expected)

    def test_membership_required(self, s1, s1_engine):
        b = BeliefState.uniform(s1)
        with pytest.raises(ValueError):
            s1_engine.expected_payoff(0, frozenset([1, 2]), b)

    def test_type_space_cap(self, s1, monkeypatch):
        monkeypatch.setattr(game, "TYPE_SPACE_CAP", 1)
        engine = PayoffEngine(s1)
        b = BeliefState.uniform(s1)
        with pytest.raises(ValueError):
            engine.expected_payoff(0, frozenset(s1.drone_ids), b)

    def test_memoization_respects_belief_version(self, s1, s1_engine):
        b = BeliefState.uniform(s1)
        coalition = frozenset([0, 1])
        before = s1_engine.expected_payoff(0, coalition, b)
        b.set_row(0, 1, [1.0, 0.0])
        after = s1_engine.expected_payoff(0, coalition, b)
        assert before != after


def _independent_stability_scan(structure, beliefs, scenario, engine):
    """Literal re-derivation of the deviation scan from the expected
    payoffs, without using is_nash_stable."""
    for d in structure.members():
        current = structure.block_of(d)
        q_cur = engine.expected_payoff(d, frozenset(current), beliefs)
        options = [b for b in structure.blocks if b != current]
        if len(current) > 1:
            options.append(None)
        for target in options:
            joined = frozenset(target) | {d} if target else frozenset([d])
            q_new = engine.expected_payoff(d, joined, beliefs)
            if q_new <= q_cur + 1e-12 * max(1.0, abs(q_cur)):
                continue
            vetoed = False
            if target is not None:
                for j in target:
                    if engine.expected_payoff(j, joined, beliefs) < \
                            engine.expected_payoff(j, frozenset(target),
                                                   beliefs):
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
        q_new = s1_engine.expected_payoff(witness.drone, joined, b)
        q_old = s1_engine.expected_payoff(
            witness.drone, frozenset(singles.block_of(witness.drone)), b)
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
