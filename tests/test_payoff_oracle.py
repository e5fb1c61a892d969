"""Differential test: ``PayoffEngine.expected_payoff``, which reads the
observer's belief rows once and its rates from one table per (observer,
coalition), against the reference in ``oracles.py``, which looks every
weight up in the table with ``oracles.prob`` and evaluates every type
vector, compared bit for bit."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dronecoal import allocation
from dronecoal.allocation import CoalitionEvaluator
from dronecoal.game import BeliefState, PayoffEngine
from dronecoal.learning import ObservationLog, update_beliefs
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, TypeSpec, generate

URBAN = ENVIRONMENTS["urban"]
# the chain audit's four types: 4^5 = 1024 type vectors per grand-coalition
# payoff on S4
AUDIT_TYPES = tuple(TypeSpec(i, mu, 3.0)
                    for i, mu in enumerate((12.0, 18.0, 24.0, 30.0)))


def learned(sc, rounds: int, seed: int) -> BeliefState:
    """Beliefs learned from power draws that each pair sees in about three
    rounds of four, so some rows stay uniform."""
    rng = np.random.default_rng(seed)
    log = ObservationLog(sc, 1)
    for _ in range(rounds):
        for i, j in itertools.permutations(sc.drone_ids, 2):
            if rng.random() < 0.75:
                t = oracles.true_spec(sc, j)
                x = max(0.0, float(rng.normal(t.mu, t.sigma)))
                oracles.share(log, {j: x}, [(i, j)])
    [beliefs], _ = update_beliefs(log)
    return beliefs


def beliefs_of(sc, kind: str, seed: int, rounds: int = 3) -> BeliefState:
    if kind == "point_mass":
        return BeliefState.point_mass_truth(sc)
    if kind == "uniform":
        return BeliefState.uniform(sc)
    return learned(sc, rounds, seed)


def assert_all_payoffs_equal_reference(sc, beliefs):
    engine = PayoffEngine(sc)
    evaluator = CoalitionEvaluator(sc)
    ids = sorted(sc.drone_ids)
    for k in range(1, len(ids) + 1):
        for members in itertools.combinations(ids, k):
            coalition = frozenset(members)
            for d in members:
                got = oracles.payoff(engine, d, coalition, beliefs)
                ref = oracles.expected_payoff(sc, evaluator, d, coalition,
                                              beliefs)
                assert got.hex() == ref.hex(), (d, members)


@st.composite
def payoff_cases(draw):
    if draw(st.booleans()):
        m = draw(st.integers(2, 4))
        mus = draw(st.lists(st.floats(1.0, 40.0), min_size=m, max_size=m))
        sigmas = draw(st.lists(st.floats(0.5, 8.0), min_size=m,
                               max_size=m))
        base = [TypeSpec(k, mus[k], sigmas[k]) for k in range(m)]
    else:
        base, m = list(AUDIT_TYPES), len(AUDIT_TYPES)
    # the scenario lists its types in a drawn order
    types = tuple(base[k] for k in draw(st.permutations(range(m))))
    sc = generate(SETTINGS[draw(st.sampled_from(["S1", "S2", "S3", "S4"]))],
                  URBAN, type_set=types, seed=draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["point_mass", "uniform", "learned"]))
    beliefs = beliefs_of(sc, kind, draw(st.integers(0, 10_000)),
                         draw(st.integers(1, 6)))
    dperm = draw(st.permutations(range(len(beliefs.drone_ids))))
    return sc, beliefs, dperm, draw(st.permutations(range(m)))


@settings(deadline=None, max_examples=60)
@given(payoff_cases())
def test_payoffs_equal_per_entry_reference(case):
    sc, beliefs, dperm, tperm = case
    assert_all_payoffs_equal_reference(sc, beliefs)
    # the same beliefs with the drone axis in another order are refused
    if list(dperm) != sorted(dperm):
        other = BeliefState(beliefs.table[np.ix_(dperm, dperm)],
                            [beliefs.drone_ids[i] for i in dperm],
                            beliefs.type_ids)
        engine, d = PayoffEngine(sc), sc.drone_ids[0]
        with pytest.raises(ValueError, match="belief drones"):
            oracles.payoff(engine, d, {d}, other)
        assert other.content_key not in engine.tables
    # the same beliefs with the type axis in another order are refused
    if list(tperm) != sorted(tperm):
        other = BeliefState(beliefs.table[..., tperm], beliefs.drone_ids,
                            [beliefs.type_ids[k] for k in tperm])
        d = sc.drone_ids[0]
        with pytest.raises(ValueError, match="belief types"):
            oracles.payoff(PayoffEngine(sc), d, {d}, other)


@pytest.mark.parametrize("kind", ["point_mass", "uniform", "learned"])
def test_audit_shape_payoffs_equal_reference(kind):
    # the chain audit's scenario shape, whose grand-coalition payoffs sum
    # 1024 terms
    sc = generate(SETTINGS["S4"], URBAN, type_set=AUDIT_TYPES, seed=0)
    assert_all_payoffs_equal_reference(sc, beliefs_of(sc, kind, seed=1))


def test_second_belief_state_reads_the_filled_rate_table(monkeypatch):
    sc = generate(SETTINGS["S4"], URBAN, type_set=AUDIT_TYPES, seed=3)
    grand = frozenset(sc.drone_ids)
    observer = min(sc.drone_ids)
    states = (BeliefState.uniform(sc), learned(sc, 2, seed=5))
    evaluator = CoalitionEvaluator(sc)
    refs = [oracles.expected_payoff(sc, evaluator, observer, grand, beliefs)
            for beliefs in states]
    engine = PayoffEngine(sc)
    fills = []
    waterfill = allocation.waterfill
    monkeypatch.setattr(allocation, "waterfill", lambda gains, budgets:
                        fills.append(budgets) or waterfill(gains, budgets))
    payoffs = []
    for beliefs, ref in zip(states, refs):
        payoffs.append(oracles.payoff(engine, observer, grand, beliefs))
        assert payoffs[-1].hex() == ref.hex()
        # one batched fill, made for the first state only
        assert len(fills) == 1
    # its rows are the coalition's distinct budgets: each member's power
    # plus the powers of a type-count multiset of the five others
    budgets = {math.fsum([oracles.true_spec(sc, d).mu, *others])
               for d in grand
               for others in itertools.combinations_with_replacement(
                   [t.mu for t in AUDIT_TYPES], len(grand) - 1)}
    assert sorted(fills[0]) == sorted(budgets)
    # the second state's rows differ, so its payoff was summed anew
    assert payoffs[0] != payoffs[1]
    # the fill also holds every other member's rates
    for d in grand - {observer}:
        oracles.payoff(engine, d, grand, states[0])
    assert len(fills) == 1
