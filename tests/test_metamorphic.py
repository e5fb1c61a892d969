"""Metamorphic tests: relabelling or reordering the inputs of a scenario
must not change what the game decides.

- Reordering the type set (ids kept) permutes the type axis of the
  learned beliefs bit for bit, and leaves payoffs, transitions and the
  absorbing set unchanged.
- Reordering the drone and user lists (ids kept) does the same for the
  drone axes.
- Relabelling the drones (each keeps its channels and baseline users)
  maps payoffs, the stable set and the formation probabilities through
  the relabelling.
- Under uniform beliefs, simulated best-reply runs are absorbed with the
  frequencies ``formation_probabilities`` gives.

Every chain built here must have rows that sum to 1.  Payoffs are sums
over type vectors in the scenario's orders, so they may differ in the last
bits; decisions compare them through the 1e-12 rule and must not.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dronecoal.dynamics import best_reply_step
from dronecoal.game import BeliefState, CoalitionStructure, PayoffEngine
from dronecoal.learning import ObservationLog, update_beliefs
from dronecoal.markov import (TrappedClassError, absorbing_states,
                              build_chain, formation_probabilities)
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import (DEFAULT_TYPE_SET, SETTINGS, Scenario,
                                TypeSpec, generate)

URBAN = ENVIRONMENTS["urban"]
REL = 1e-12


@st.composite
def scenarios(draw):
    m = draw(st.integers(2, 4))
    mus = draw(st.lists(st.floats(1.0, 40.0), min_size=m, max_size=m))
    sigmas = draw(st.lists(st.floats(0.5, 8.0), min_size=m, max_size=m))
    types = tuple(TypeSpec(k, mus[k], sigmas[k]) for k in range(m))
    setting = SETTINGS[draw(st.sampled_from(["S1", "S2", "S3"]))]
    return generate(setting, URBAN, type_set=types,
                    seed=draw(st.integers(0, 10_000)))


def draw_samples(sc, rounds: int, seed: int) -> dict:
    """One power draw per (round, drone), as grand-coalition rounds share
    them."""
    rng = np.random.default_rng(seed)
    out = {}
    for r in range(rounds):
        for j in sc.drone_ids:
            t = sc.type_spec(sc.drone(j).true_type)
            out[(r, j)] = max(0.0, float(rng.normal(t.mu, t.sigma)))
    return out


def make_beliefs(sc, kind: str, samples: dict, relabel=None):
    """Point-mass, uniform or learned beliefs; learned ones come from
    ``samples`` with every drone id passed through ``relabel``."""
    if kind == "point_mass":
        return BeliefState.point_mass_truth(sc)
    if kind == "uniform":
        return BeliefState.uniform(sc)
    relabel = relabel or {d: d for d in sc.drone_ids}
    log = ObservationLog()
    for (r, j), x in samples.items():
        for i in sc.drone_ids:
            if i != relabel[j]:
                log.add(i, relabel[j], x, r)
    beliefs, _ = update_beliefs(log, sc.type_set, sc)
    return beliefs


def chain(sc, beliefs, engine, veto: bool):
    model = build_chain(sc, beliefs, engine, veto_self_loop=veto)
    np.testing.assert_allclose(model.transition.sum(axis=1), 1.0,
                               rtol=0, atol=1e-12)
    return model


def formation(model):
    """Formation probabilities keyed by structure string, or None when the
    chain has no absorbing state or a trapped class."""
    try:
        probs = formation_probabilities(model)
    except (TrappedClassError, ValueError):
        return None
    return {model.states[i].to_string(): p for i, p in probs.items()}


def relabelled(structure, relabel) -> str:
    return CoalitionStructure([[relabel[d] for d in b]
                               for b in structure.blocks]).to_string()


def transitions(model, relabel) -> dict:
    """Non-zero transition entries keyed by (from, to) structure string,
    with every drone id passed through ``relabel``."""
    rows, cols = np.nonzero(model.transition)
    return {(relabelled(model.states[i], relabel),
             relabelled(model.states[j], relabel)): model.transition[i, j]
            for i, j in zip(rows.tolist(), cols.tolist())}


def assert_close(got: dict, expected: dict, rel: float = REL):
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert abs(got[key] - value) <= rel * max(1.0, abs(value)), key


def payoffs(sc, beliefs, engine, relabel=None) -> dict:
    """Every member's expected payoff in every coalition, keyed by the
    relabelled (observer, coalition)."""
    relabel = relabel or {d: d for d in sc.drone_ids}
    out = {}
    ids = sorted(sc.drone_ids)
    for k in range(1, len(ids) + 1):
        for coalition in itertools.combinations(ids, k):
            mapped = tuple(sorted(relabel[d] for d in coalition))
            for d in coalition:
                out[(relabel[d], mapped)] = engine.expected_payoff(
                    d, frozenset(coalition), beliefs)
    return out


def assert_same_game(sc, other, kind, samples, relabel=None):
    """``other`` is ``sc`` with its inputs reordered or its drones
    relabelled by ``relabel`` (old id -> new id): payoffs, transitions of
    both chain readings, absorbing states and formation probabilities map
    across, and learned beliefs map bit for bit."""
    relabel = relabel or {d: d for d in sc.drone_ids}
    beliefs = make_beliefs(sc, kind, samples)
    other_beliefs = make_beliefs(other, kind, samples, relabel)
    engine, other_engine = PayoffEngine(sc), PayoffEngine(other)

    for i in sc.drone_ids:
        for j in sc.drone_ids:
            for t in beliefs.type_ids:
                assert other_beliefs.prob(relabel[i], relabel[j], t) \
                    .hex() == beliefs.prob(i, j, t).hex()

    assert_close(payoffs(other, other_beliefs, other_engine),
                 payoffs(sc, beliefs, engine, relabel))
    identity = {d: d for d in other.drone_ids}
    for veto in (False, True):
        model = chain(sc, beliefs, engine, veto)
        other_model = chain(other, other_beliefs, other_engine, veto)
        assert_close(transitions(other_model, identity),
                     transitions(model, relabel))
        assert {relabelled(other_model.states[i], identity)
                for i in absorbing_states(other_model)} == \
            {relabelled(model.states[i], relabel)
             for i in absorbing_states(model)}
        probs, other_probs = formation(model), formation(other_model)
        assert (probs is None) == (other_probs is None)
        if probs is not None:
            assert_close(other_probs, {
                relabelled(CoalitionStructure.from_string(s), relabel): p
                for s, p in probs.items()}, rel=1e-9)


belief_kinds = st.sampled_from(["point_mass", "uniform", "learned"])


@settings(deadline=None, max_examples=25)
@given(scenarios(), belief_kinds, st.integers(1, 4),
       st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_type_set_order_does_not_matter(sc, kind, rounds, seed, rnd):
    d = sc.to_dict()
    reordered = list(d["type_set"])
    if rnd.random() < 0.5:
        reordered.reverse()
    else:
        rnd.shuffle(reordered)
    assume(reordered != d["type_set"])
    d["type_set"] = reordered
    other = Scenario.from_dict(d)
    assert_same_game(sc, other, kind, draw_samples(sc, rounds, seed))


@settings(deadline=None, max_examples=25)
@given(scenarios(), belief_kinds, st.integers(1, 4),
       st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_drone_and_user_list_order_does_not_matter(sc, kind, rounds, seed,
                                                   rnd):
    d = sc.to_dict()
    for key in ("drones", "users"):
        rnd.shuffle(d[key])
    other = Scenario.from_dict(d)
    assume(other.drone_ids != sc.drone_ids)
    assert_same_game(sc, other, kind, draw_samples(sc, rounds, seed))


@settings(deadline=None, max_examples=25)
@given(scenarios(), belief_kinds, st.integers(1, 4),
       st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_relabelled_drones_map_through(sc, kind, rounds, seed, rnd):
    ids = list(sc.drone_ids)
    new_ids = ids[:]
    rnd.shuffle(new_ids)
    assume(new_ids != ids)
    relabel = dict(zip(ids, new_ids))
    d = sc.to_dict()
    for drone in d["drones"]:
        drone["id"] = relabel[drone["id"]]
    for user in d["users"]:
        user["baseline_drone"] = relabel[user["baseline_drone"]]
    other = Scenario.from_dict(d)
    assert_same_game(sc, other, kind, draw_samples(sc, rounds, seed),
                     relabel)


TRAJECTORIES = 2_000
AUDIT_TYPES = tuple(TypeSpec(k, mu, 3.0)
                    for k, mu in enumerate((12.0, 18.0, 24.0, 30.0)))
# topologies whose uniform-belief chain splits the all-singletons start
# over two to four absorbing structures (seeds 0-39 scanned; most absorb
# with probability 1 into one structure, which tests nothing here)
SPLIT_CASES = (("S2", AUDIT_TYPES, 25), ("S2", AUDIT_TYPES, 33),
               ("S3", DEFAULT_TYPE_SET, 9), ("S3", DEFAULT_TYPE_SET, 25),
               ("S3", AUDIT_TYPES, 9))


@pytest.mark.parametrize("setting,types,seed", SPLIT_CASES)
def test_simulated_absorption_matches_the_chain(setting, types, seed):
    sc = generate(SETTINGS[setting], URBAN, type_set=types, seed=seed)
    beliefs = BeliefState.uniform(sc)
    engine = PayoffEngine(sc)
    model = chain(sc, beliefs, engine, veto=False)
    probs = formation(model)
    assert sum(0.01 < p < 0.99 for p in probs.values()) >= 2
    absorbing = {model.states[i] for i in absorbing_states(model)}
    ids = sc.drone_ids
    rng = np.random.default_rng(seed)
    counts = dict.fromkeys(probs, 0)
    for _ in range(TRAJECTORIES):
        s = CoalitionStructure.singletons(ids)
        while s not in absorbing:
            proposer = ids[int(rng.integers(len(ids)))]
            s = best_reply_step(s, proposer, beliefs, engine, rng)
        counts[s.to_string()] += 1
    for s, p in probs.items():
        q = min(max(p, 0.0), 1.0)   # solve may leave p a rounding below 0
        sigma = max(np.sqrt(q * (1.0 - q) / TRAJECTORIES), 1e-9)
        assert abs(counts[s] / TRAJECTORIES - p) <= 4.0 * sigma, s
