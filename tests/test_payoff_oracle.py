"""Differential test: ``PayoffEngine.expected_payoff``, which reads the
observer's belief rows once, against the reference in ``oracles.py``,
which looks every weight up in the table with ``oracles.prob``, compared
bit for bit."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dronecoal.allocation import CoalitionEvaluator
from dronecoal.game import BeliefState, PayoffEngine
from dronecoal.learning import ObservationLog, update_beliefs
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, TypeSpec, generate

URBAN = ENVIRONMENTS["urban"]


def learned(sc, rounds: int, seed: int) -> BeliefState:
    """Beliefs learned from power draws that each pair sees in about three
    rounds of four, so some rows stay uniform."""
    rng = np.random.default_rng(seed)
    log = ObservationLog()
    for r in range(rounds):
        for i, j in itertools.permutations(sc.drone_ids, 2):
            if rng.random() < 0.75:
                t = sc.type_spec(sc.drone(j).true_type)
                log.add(i, j, max(0.0, float(rng.normal(t.mu, t.sigma))), r)
    beliefs, _ = update_beliefs(log, sc)
    return beliefs


@st.composite
def payoff_cases(draw):
    m = draw(st.integers(2, 4))
    mus = draw(st.lists(st.floats(1.0, 40.0), min_size=m, max_size=m))
    sigmas = draw(st.lists(st.floats(0.5, 8.0), min_size=m, max_size=m))
    # the scenario lists its types in a drawn order
    order = draw(st.permutations(range(m)))
    types = tuple(TypeSpec(k, mus[k], sigmas[k]) for k in order)
    sc = generate(SETTINGS[draw(st.sampled_from(["S1", "S2", "S3"]))],
                  URBAN, type_set=types, seed=draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["point_mass", "uniform", "learned"]))
    if kind == "point_mass":
        beliefs = BeliefState.point_mass_truth(sc)
    elif kind == "uniform":
        beliefs = BeliefState.uniform(sc)
    else:
        beliefs = learned(sc, draw(st.integers(1, 6)),
                          draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        # the same beliefs with the drone and type axes in other orders
        dperm = draw(st.permutations(range(len(beliefs.drone_ids))))
        tperm = draw(st.permutations(range(m)))
        beliefs = BeliefState(beliefs.table[np.ix_(dperm, dperm, tperm)],
                              [beliefs.drone_ids[i] for i in dperm],
                              [beliefs.type_ids[k] for k in tperm])
    return sc, beliefs


@settings(deadline=None, max_examples=60)
@given(payoff_cases())
def test_payoffs_equal_per_entry_reference(case):
    sc, beliefs = case
    engine = PayoffEngine(sc)
    evaluator = CoalitionEvaluator(sc)
    ids = sorted(sc.drone_ids)
    for k in range(1, len(ids) + 1):
        for members in itertools.combinations(ids, k):
            coalition = frozenset(members)
            for d in members:
                got = engine.expected_payoff(d, coalition, beliefs)
                ref = oracles.expected_payoff(sc, evaluator, d, coalition,
                                              beliefs)
                assert got.hex() == ref.hex(), (d, members)
