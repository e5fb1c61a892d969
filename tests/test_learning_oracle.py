"""Differential tests: incremental belief learning and the vectorised
Frobenius norms against the from-scratch reference in ``oracles.py``,
compared bit for bit."""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dronecoal.learning import (ObservationLog, TypePrediction,
                                frobenius_convergence, update_beliefs)
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, TypeSpec, generate

URBAN = ENVIRONMENTS["urban"]
SAMPLES = st.one_of(st.sampled_from([0.0, 12.0, 18.0]),
                    st.floats(0.0, 60.0, allow_nan=False))


@st.composite
def type_sets(draw, m):
    """m types with ids 0..m-1 in a drawn order."""
    mus = draw(st.lists(st.floats(1.0, 40.0), min_size=m, max_size=m))
    sigmas = draw(st.lists(st.floats(0.5, 8.0), min_size=m, max_size=m))
    order = draw(st.permutations(range(m)))
    return tuple(TypeSpec(k, mus[k], sigmas[k]) for k in order)


@st.composite
def learning_cases(draw):
    m = draw(st.integers(2, 4))
    setting = SETTINGS[draw(st.sampled_from(["S1", "S2"]))]
    sc = generate(setting, URBAN, type_set=draw(type_sets(m)),
                  seed=draw(st.integers(0, 10_000)))
    # one scenario, or two of the same setting with other type sets,
    # learning from the same log in turn
    scenarios = [sc]
    if draw(st.booleans()):
        scenarios.append(generate(setting, URBAN, type_set=draw(type_sets(m)),
                                  seed=draw(st.integers(0, 10_000))))
    pairs = [(i, j) for i in sc.drone_ids for j in sc.drone_ids if i != j]
    # some pairs are never observed; the others share in most rounds
    observed = [pair for pair in pairs if draw(st.integers(0, 3))]
    rounds = []
    for _ in range(draw(st.integers(1, 16))):
        active = [pair for pair in observed if draw(st.integers(0, 3))]
        values = draw(st.lists(SAMPLES, min_size=len(active),
                               max_size=len(active)))
        # which scenarios update after this round
        calls = draw(st.lists(st.booleans(), min_size=len(scenarios),
                              max_size=len(scenarios)))
        rounds.append((list(zip(active, values)), calls))
    return scenarios, rounds


def assert_same_prediction(got: TypePrediction, ref: TypePrediction):
    assert got.classified == ref.classified
    assert list(got.classified) == list(ref.classified)


@settings(deadline=None, max_examples=60)
@given(learning_cases())
def test_incremental_beliefs_equal_from_scratch(case):
    scenarios, rounds = case
    log = ObservationLog()
    for r, (shared, calls) in enumerate(rounds):
        for (i, j), x in shared:
            log.add(i, j, x, r)
        for sc, call in zip(scenarios, calls):
            if not call:
                continue
            beliefs, prediction = update_beliefs(log, sc)
            ref_beliefs, ref_prediction = oracles.update_beliefs(log, sc)
            assert beliefs.table.tobytes() == ref_beliefs.table.tobytes()
            assert beliefs.snapshot_hash() == ref_beliefs.snapshot_hash()
            assert_same_prediction(prediction, ref_prediction)
            norms, mean = frobenius_convergence(prediction, sc)
            ref_norms, ref_mean = oracles.frobenius_convergence(
                ref_prediction, sc)
            assert norms.tobytes() == ref_norms.tobytes()
            assert mean == ref_mean


@st.composite
def predictions(draw):
    m = draw(st.integers(2, 4))
    sc = generate(SETTINGS[draw(st.sampled_from(["S1", "S2"]))], URBAN,
                  type_set=draw(type_sets(m)),
                  seed=draw(st.integers(0, 10_000)))
    classified = {(i, j): draw(st.integers(0, m - 1))
                  for i in sc.drone_ids for j in sc.drone_ids if i != j}
    return sc, TypePrediction(classified)


@settings(deadline=None, max_examples=40)
@given(predictions())
def test_frobenius_norms_equal_loop_reference(case):
    sc, prediction = case
    norms, mean = frobenius_convergence(prediction, sc)
    ref_norms, ref_mean = oracles.frobenius_convergence(prediction, sc)
    assert norms.tobytes() == ref_norms.tobytes()
    assert mean == ref_mean
