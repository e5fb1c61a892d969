"""Differential tests: incremental belief learning and the vectorised
Frobenius norms against the from-scratch reference in ``oracles.py``,
compared bit for bit."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dronecoal.game import BeliefState
from dronecoal.learning import (ObservationLog, frobenius_convergence,
                                update_beliefs)
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
    # the scenario is handed its drones in a drawn order and keeps them
    # in id order, as the log's arrays and the structures do
    sc = dataclasses.replace(sc, drones=tuple(
        draw(st.permutations(sc.drones))))
    ids = sorted(sc.drone_ids)
    pairs = [(i, j) for i in ids for j in ids if i != j]
    # some pairs are never observed; the others share in most rounds
    observed = [pair for pair in pairs if draw(st.integers(0, 3))]
    # a constant drone shares one value every time, so every event of a
    # pair observing it is the same classification and the row stays one
    # point mass
    constant = {j: draw(SAMPLES) for j in ids if not draw(st.integers(0, 2))}
    seen: set = set()
    rounds = []
    for _ in range(draw(st.integers(1, 16))):
        # a quiet round shares only pairs seen before that observe a
        # constant drone, or nothing
        quiet = draw(st.integers(0, 2)) == 0
        if quiet:
            active = [(i, j) for i, j in observed if j in constant
                      and (i, j) in seen and draw(st.booleans())]
        else:
            active = [pair for pair in observed if draw(st.integers(0, 3))]
        powers = {j: constant[j] if j in constant else draw(SAMPLES)
                  for j in ids}
        seen.update(active)
        # whether the learner updates after this round
        rounds.append((powers, active, draw(st.booleans()), quiet))
    return sc, rounds


def assert_same_prediction(got: np.ndarray, ref: np.ndarray, sc):
    # type ids for every pair, in the scenario's drone order
    d = len(sc.drones)
    assert got.shape == ref.shape == (d, d)
    assert got.dtype.kind == "i"
    assert got.tobytes() == ref.tobytes()


@settings(deadline=None, max_examples=60)
@given(learning_cases())
def test_incremental_beliefs_equal_from_scratch(case):
    sc, rounds = case
    log = ObservationLog(sc, 1)
    # the last answer and the oracle's, and whether samples that may move
    # the table were logged since
    last = None
    moved_since = True
    for powers, active, call, quiet in rounds:
        oracles.share(log, powers, active)
        moved_since = moved_since or not quiet
        if not call:
            continue
        [beliefs], [prediction] = update_beliefs(log)
        ref_beliefs, ref_prediction = oracles.update_beliefs(log)
        assert beliefs.table.tobytes() == ref_beliefs.table.tobytes()
        assert beliefs.snapshot_hash() == ref_beliefs.snapshot_hash()
        assert_same_prediction(prediction, ref_prediction, sc)
        norms, mean = frobenius_convergence(prediction, sc)
        ref_norms, ref_mean = oracles.frobenius_convergence(
            ref_prediction, sc)
        assert norms.tobytes() == ref_norms.tobytes()
        assert mean == ref_mean
        if last is not None and not moved_since:
            # only unanimous pairs shared, or none: the table is the
            # previous call's, and the log returns that state
            before, ref_before = last
            assert ref_beliefs.content_key == ref_before.content_key
            assert beliefs is before
        last = beliefs, ref_beliefs
        moved_since = False


def test_no_new_samples_returns_the_same_state():
    sc = generate(SETTINGS["S4"], URBAN, seed=3)
    log = ObservationLog(sc, 1)
    [empty], _ = update_beliefs(log)
    assert update_beliefs(log)[0][0] is empty
    assert empty.content_key == oracles.update_beliefs(log)[0].content_key
    for r in range(3):
        oracles.share(log, {1: 12.0, 3: 30.0 + r}, [(0, 1), (2, 3)])
    # a round without mates shares nothing
    oracles.share(log, {}, [])
    [beliefs], prediction = update_beliefs(log)
    [again], again_prediction = update_beliefs(log)
    assert again is beliefs
    assert again.content_key == oracles.update_beliefs(log)[0].content_key
    assert_same_prediction(again_prediction[0], prediction[0], sc)
    # the same read-only (G, D, D) prediction comes back until new samples
    # arrive
    assert again_prediction is prediction
    assert not prediction.flags.writeable


# two types 6 apart, listed out of id order: a first sample of 12 reads as
# type 0, and the prefix (12, 30) as type 1
TWO_TYPES = (TypeSpec(1, 18.0, 3.0), TypeSpec(0, 12.0, 3.0))


def test_unmoved_rows_return_the_same_state():
    # new samples whose events leave every row where it was
    sc = generate(SETTINGS["S1"], URBAN, type_set=TWO_TYPES, seed=30)
    log = ObservationLog(sc, 1)
    oracles.share(log, {1: 12.0}, [(0, 1)])
    [beliefs], _ = update_beliefs(log)
    for _ in range(1, 4):
        oracles.share(log, {1: 12.0}, [(0, 1)])
        assert update_beliefs(log)[0][0] is beliefs
    oracles.share(log, {1: 30.0}, [(0, 1)])
    assert update_beliefs(log)[0][0] is not beliefs


def test_tied_events_predict_the_lowest_id():
    sc = generate(SETTINGS["S1"], URBAN, type_set=TWO_TYPES, seed=30)
    log = ObservationLog(sc, 1)
    oracles.share(log, {1: 12.0}, [(0, 1)])
    oracles.share(log, {1: 30.0}, [(0, 1)])
    [beliefs], [prediction] = update_beliefs(log)
    assert beliefs.table[0, 1].tolist() == [0.5, 0.5]
    assert prediction[0, 1] == 0
    assert_same_prediction(prediction, oracles.update_beliefs(log)[1], sc)


def test_unobserved_rows_keep_the_prior():
    # uniform rows about unobserved drones, point masses on the diagonal
    sc = generate(SETTINGS["S4"], URBAN, seed=3)
    log = ObservationLog(sc, 1)
    for r in range(4):
        oracles.share(log, {1: 10.0 + 5 * r}, [(0, 1)])
    update_beliefs(log)
    oracles.share(log, {3: 30.0}, [(2, 3)])
    [beliefs], _ = update_beliefs(log)
    uniform = BeliefState.uniform(sc).table
    kept = np.ones(uniform.shape[:2], dtype=bool)
    kept[0, 1] = kept[2, 3] = False
    assert beliefs.table[kept].tobytes() == uniform[kept].tobytes()
    assert not np.array_equal(beliefs.table[0, 1], uniform[0, 1])


@st.composite
def predictions(draw):
    m = draw(st.integers(2, 4))
    sc = generate(SETTINGS[draw(st.sampled_from(["S1", "S2"]))], URBAN,
                  type_set=draw(type_sets(m)),
                  seed=draw(st.integers(0, 10_000)))
    sc = dataclasses.replace(sc, drones=tuple(
        draw(st.permutations(sc.drones))))
    # any type off the diagonal, the true type on it
    prediction = np.array([[draw(st.integers(0, m - 1)) for _ in sc.drones]
                           for _ in sc.drones])
    np.fill_diagonal(prediction, [d.true_type for d in sc.drones])
    return sc, prediction


@settings(deadline=None, max_examples=40)
@given(predictions())
def test_frobenius_norms_equal_loop_reference(case):
    sc, prediction = case
    norms, mean = frobenius_convergence(prediction, sc)
    ref_norms, ref_mean = oracles.frobenius_convergence(prediction, sc)
    assert norms.tobytes() == ref_norms.tobytes()
    assert mean == ref_mean
