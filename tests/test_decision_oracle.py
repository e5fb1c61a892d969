"""Differential tests: the one best-reply decision (``game.best_reply``
behind ``strictly_better`` / ``weakly_better``) against the per-caller
decisions in ``oracles.py``, under point-mass, uniform and learned
beliefs.  The decision checks only the vetoes it reads, so it never
calls ``admissible`` more often than the references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dronecoal import game, markov
from dronecoal.dynamics import best_reply_step
from dronecoal.game import BeliefState, PayoffEngine, enumerate_structures
from dronecoal.learning import ObservationLog, update_beliefs
from dronecoal.markov import absorbing_states, build_chain
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, TypeSpec, generate

URBAN = ENVIRONMENTS["urban"]


def learned_beliefs(sc, rounds: int, seed: int) -> BeliefState:
    """Beliefs after ``rounds`` grand-coalition rounds in which every
    drone shares one draw of its power with every other drone."""
    rng = np.random.default_rng(seed)
    log = ObservationLog()
    for r in range(rounds):
        for j in sc.drone_ids:
            t = sc.type_spec(sc.drone(j).true_type)
            x = max(0.0, float(rng.normal(t.mu, t.sigma)))
            for i in sc.drone_ids:
                if i != j:
                    log.add(i, j, x, r)
    beliefs, _ = update_beliefs(log, sc.type_set, sc)
    return beliefs


@st.composite
def decision_cases(draw):
    m = draw(st.integers(2, 4))
    mus = draw(st.lists(st.floats(1.0, 40.0), min_size=m, max_size=m))
    sigmas = draw(st.lists(st.floats(0.5, 8.0), min_size=m, max_size=m))
    types = tuple(TypeSpec(k, mus[k], sigmas[k]) for k in range(m))
    sc = generate(SETTINGS[draw(st.sampled_from(["S1", "S2"]))], URBAN,
                  type_set=types, seed=draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["point_mass", "uniform", "learned"]))
    if kind == "point_mass":
        beliefs = BeliefState.point_mass_truth(sc)
    elif kind == "uniform":
        beliefs = BeliefState.uniform(sc)
    else:
        beliefs = learned_beliefs(sc, draw(st.integers(1, 4)),
                                  draw(st.integers(0, 2**32 - 1)))
    return sc, beliefs, draw(st.integers(0, 2**32 - 1))


def bits(groups):
    return [(q.hex(), level) for q, level in groups]


def unflagged(groups):
    return [(q.hex(), [target for target, _ in entries])
            for q, entries in groups]


def count_admissible(mp) -> list[int]:
    """Counts every admissible call made through the library or the
    oracles; the returned list holds the running count."""
    calls = [0]

    def counting(fn):
        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return counted

    for module in (game, markov, oracles):
        mp.setattr(module, "admissible", counting(module.admissible))
    return calls


def admissible_calls(calls, fn, *args, **kwargs):
    before = calls[0]
    result = fn(*args, **kwargs)
    return result, calls[0] - before


@settings(deadline=None, max_examples=100)
@given(decision_cases())
def test_one_decision_equals_the_per_caller_decisions(case):
    sc, beliefs, seed = case
    engine = PayoffEngine(sc)
    states = enumerate_structures(sc.drone_ids)

    with pytest.MonkeyPatch.context() as mp:
        calls = count_admissible(mp)
        for s in states:
            for d in sc.drone_ids:
                args = (s, d, beliefs, engine)
                assert bits(game.candidate_groups(*args)) == \
                    unflagged(oracles.flagged_candidate_groups(*args)) == \
                    unflagged(oracles.candidate_groups(*args))
                got, n = admissible_calls(calls, game.best_reply, *args)
                ref, n_ref = admissible_calls(calls,
                                              oracles.flagged_best_reply,
                                              *args)
                assert got == ref
                assert n <= n_ref

        for veto in (False, True):
            got, n = admissible_calls(calls, build_chain, sc, beliefs,
                                      engine, veto_self_loop=veto)
            ref, n_ref = admissible_calls(calls, oracles.build_chain, sc,
                                          beliefs, engine,
                                          veto_self_loop=veto)
            assert got.states == ref.states
            assert got.transition.tobytes() == ref.transition.tobytes()
            assert n <= n_ref

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for s in states:
        for d in sc.drone_ids:
            assert best_reply_step(s, d, beliefs, engine, rng) == \
                oracles.best_reply_step(s, d, beliefs, sc, engine, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    stable = []
    for i, s in enumerate(states):
        ok, witness = game.is_nash_stable(s, beliefs, sc, engine)
        ref_ok, ref_witness = oracles.is_nash_stable(s, beliefs, sc, engine)
        assert ok == ref_ok
        if ok:
            assert witness is None
            stable.append(i)
            continue
        # the same drone deviates; its move is strictly profitable and
        # admissible
        assert witness.drone == ref_witness.drone
        d, target = witness.drone, witness.target
        joined = frozenset(target) | {d} if target else frozenset([d])
        q_new = engine.expected_payoff(d, joined, beliefs)
        q_old = engine.expected_payoff(d, frozenset(s.block_of(d)), beliefs)
        assert game.strictly_better(q_new, q_old)
        assert game.admissible(d, target, engine, beliefs)
        # it is the drone's first best-reply target, at that level's gain
        q_best, targets = game.best_reply(s, d, beliefs, engine)
        assert (target, witness.payoff_gain) == (targets[0], q_best - q_old)
        assert witness.payoff_gain > 0
    assert absorbing_states(build_chain(sc, beliefs, engine)) == \
        tuple(stable)
