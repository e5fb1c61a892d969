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
    setting = SETTINGS[draw(st.sampled_from(["S1", "S2", "S3", "S4"]))]
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
    # a constant pair shares one value every time, so every event of it is
    # the same classification and its row stays one point mass
    constant = {pair: draw(SAMPLES) for pair in observed
                if not draw(st.integers(0, 2))}
    seen: set = set()
    rounds = []
    for _ in range(draw(st.integers(1, 16))):
        # a quiet round shares only constant pairs seen before, or nothing
        quiet = draw(st.integers(0, 2)) == 0
        if quiet:
            active = [pair for pair in constant
                      if pair in seen and draw(st.booleans())]
        else:
            active = [pair for pair in observed if draw(st.integers(0, 3))]
        values = [constant[pair] if pair in constant else draw(SAMPLES)
                  for pair in active]
        seen.update(active)
        # which scenarios update after this round
        calls = draw(st.lists(st.booleans(), min_size=len(scenarios),
                              max_size=len(scenarios)))
        rounds.append((list(zip(active, values)), calls, quiet))
    return scenarios, rounds


def assert_same_prediction(got: TypePrediction, ref: TypePrediction):
    assert got.classified == ref.classified
    assert list(got.classified) == list(ref.classified)


@settings(deadline=None, max_examples=60)
@given(learning_cases())
def test_incremental_beliefs_equal_from_scratch(case):
    scenarios, rounds = case
    log = ObservationLog()
    # per scenario: its last answer and the oracle's, and whether samples
    # that may move the table were logged since
    last: dict = {}
    moved_since = {id(sc): True for sc in scenarios}
    last_caller = None
    for r, (shared, calls, quiet) in enumerate(rounds):
        for (i, j), x in shared:
            log.add(i, j, x, r)
        if not quiet:
            moved_since = dict.fromkeys(moved_since, True)
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
            if id(sc) in last and not moved_since[id(sc)]:
                # only unanimous pairs shared, or none: the table is the
                # previous call's, and the same learner returns that state
                before, ref_before = last[id(sc)]
                assert ref_beliefs.content_key == ref_before.content_key
                assert beliefs.content_key == before.content_key
                assert beliefs.content_key == ref_beliefs.content_key
                if last_caller is sc:
                    assert beliefs is before
            last[id(sc)] = beliefs, ref_beliefs
            moved_since[id(sc)] = False
            last_caller = sc


def test_no_new_samples_returns_the_same_state():
    sc = generate(SETTINGS["S4"], URBAN, seed=3)
    log = ObservationLog()
    empty, _ = update_beliefs(log, sc)
    assert update_beliefs(log, sc)[0] is empty
    assert empty.content_key == oracles.update_beliefs(log, sc)[0].content_key
    for r in range(3):
        log.add(0, 1, 12.0, r)
        log.add(2, 3, 30.0 + r, r)
    beliefs, prediction = update_beliefs(log, sc)
    again, again_prediction = update_beliefs(log, sc)
    assert again is beliefs
    assert again.content_key == oracles.update_beliefs(log, sc)[0].content_key
    assert_same_prediction(again_prediction, prediction)
    # each call hands out its own prediction dict
    assert again_prediction.classified is not prediction.classified


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
