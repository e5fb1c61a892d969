"""Differential tests: the one best-reply decision (``DecisionTable.decisions``
over bitmasks, which the walk's step and the chain read, behind
``strictly_better`` / ``weakly_better``) against the per-caller decisions
in ``oracles.py``, under point-mass, uniform and learned beliefs.  The
table decides from its own veto memo, so the library never calls
``admissible`` more often than the references."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dronecoal import game
from dronecoal.allocation import CoalitionEvaluator
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
    log = ObservationLog(sc, 1)
    ids = sc.drone_ids
    for _ in range(rounds):
        draws = {}
        for j in ids:
            t = oracles.true_spec(sc, j)
            draws[j] = max(0.0, float(rng.normal(t.mu, t.sigma)))
        oracles.share(log, draws,
                      [(i, j) for i in ids for j in ids if i != j])
    [beliefs], _ = update_beliefs(log)
    return beliefs


def draw_types(draw) -> list[TypeSpec]:
    m = draw(st.integers(2, 4))
    mus = draw(st.lists(st.floats(1.0, 40.0), min_size=m, max_size=m))
    sigmas = draw(st.lists(st.floats(0.5, 8.0), min_size=m, max_size=m))
    return [TypeSpec(k, mus[k], sigmas[k]) for k in range(m)]


def draw_beliefs(draw, sc) -> BeliefState:
    kind = draw(st.sampled_from(["point_mass", "uniform", "learned"]))
    if kind == "point_mass":
        return BeliefState.point_mass_truth(sc)
    if kind == "uniform":
        return BeliefState.uniform(sc)
    return learned_beliefs(sc, draw(st.integers(1, 4)),
                           draw(st.integers(0, 2**32 - 1)))


@st.composite
def decision_cases(draw):
    types = tuple(draw_types(draw))
    sc = generate(SETTINGS[draw(st.sampled_from(["S1", "S2"]))], URBAN,
                  type_set=types, seed=draw(st.integers(0, 10_000)))
    return sc, draw_beliefs(draw, sc), draw(st.integers(0, 2**32 - 1))


def decision(s, d, beliefs, engine):
    """The table's best reply of drone ``d`` in ``s``, (payoff, targets),
    with its target masks read as blocks (None: going singleton), as the
    references name them."""
    q, targets = engine.table(beliefs).decisions(s)[engine.ids.index(d)]
    blocks = dict(zip(s.masks, s.blocks))
    return q, [blocks.get(m) for m in targets]


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

    for module in (game, oracles):
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
                got, n = admissible_calls(calls, decision, *args)
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
        q_new = oracles.payoff(engine, d, joined, beliefs)
        q_old = oracles.payoff(engine, d, oracles.block_of(s, d), beliefs)
        assert game.strictly_better(q_new, q_old)
        assert game.admissible(d, target, engine, beliefs)
        # it is the drone's first best-reply target, at that level's gain
        q_best, targets = decision(s, d, beliefs, engine)
        assert (target, witness.payoff_gain) == (targets[0], q_best - q_old)
        assert witness.payoff_gain > 0
    assert absorbing_states(build_chain(sc, beliefs, engine)) == \
        tuple(stable)


AUDIT_TYPES = tuple(TypeSpec(k, mu, 3.0)
                    for k, mu in enumerate((12.0, 18.0, 24.0, 30.0)))


def reference_reply(s, d, beliefs, engine):
    """The first payoff level of ``oracles.candidate_groups`` with an
    admitted target, and those targets in level order."""
    for q, entries in oracles.candidate_groups(s, d, beliefs, engine):
        targets = [target for target, admitted in entries if admitted]
        if targets:
            return q, targets
    return None, []


class TieEngine(PayoffEngine):
    """Payoffs that peak at coalitions of three, so a drone ties over
    every block of one size, and that drop by 2 for drones 0 and 1 in a
    coalition with 4 or 5, who are therefore vetoed: tied and vetoed
    targets, which the scenarios' own payoffs never give."""

    def expected_payoff_of(self, pos, mask, beliefs):
        coalition = {d for i, d in enumerate(self.ids) if mask >> i & 1}
        return -abs(len(coalition) - 3.0) \
            - 2.0 * (self.ids[pos] < 2 and not coalition.isdisjoint({4, 5}))


@pytest.mark.parametrize("kind", ["uniform", "learned", "ties"])
@pytest.mark.parametrize("seed", range(3))
def test_six_drone_chain_and_scan_equal_the_references(seed, kind):
    # the audit's setting: six drones, four types, 203 structures; the
    # references decide on an engine of their own
    sc = generate(SETTINGS["S4"], URBAN, type_set=AUDIT_TYPES, seed=seed)
    beliefs = learned_beliefs(sc, rounds=2, seed=seed) \
        if kind == "learned" else BeliefState.uniform(sc)
    make = TieEngine if kind == "ties" else PayoffEngine
    engine, ref_engine = make(sc), make(sc)
    for veto in (False, True):
        got = build_chain(sc, beliefs, engine, veto_self_loop=veto)
        ref = oracles.build_chain(sc, beliefs, ref_engine,
                                  veto_self_loop=veto)
        assert got.states == ref.states
        assert got.transition.tobytes() == ref.transition.tobytes(), veto
    for s in got.states:
        ok, witness = game.is_nash_stable(s, beliefs, sc, engine)
        ref_ok, ref_witness = oracles.is_nash_stable(s, beliefs, sc,
                                                     ref_engine)
        assert ok == ref_ok, s
        replies = {d: decision(s, d, beliefs, engine)
                   for d in sc.drone_ids}
        for d, reply in replies.items():
            assert reply == reference_reply(s, d, beliefs, ref_engine), (s, d)
        if not ok:
            assert witness.drone == ref_witness.drone
            assert witness.target == replies[witness.drone][1][0]


@st.composite
def memo_cases(draw):
    # the scenario lists its types in a drawn order
    types = tuple(draw(st.permutations(draw_types(draw))))
    sc = generate(SETTINGS[draw(st.sampled_from(["S1", "S2", "S3"]))],
                  URBAN, type_set=types, seed=draw(st.integers(0, 10_000)))
    beliefs = draw_beliefs(draw, sc)
    dperm = draw(st.permutations(range(len(sc.drone_ids))))
    tperm = draw(st.permutations(range(len(types))))
    return sc, beliefs, dperm, tperm


def same_content(beliefs: BeliefState) -> BeliefState:
    return BeliefState(beliefs.table.copy(), beliefs.drone_ids,
                       beliefs.type_ids)


def wrong_point_masses(beliefs: BeliefState, sc) -> BeliefState:
    """The beliefs with every row about another drone reset to a point
    mass on the type after the true one in the beliefs' type order."""
    tids = list(beliefs.type_ids)
    rows = {}
    for i in sc.drone_ids:
        for j in sc.drone_ids:
            if i != j:
                row = np.zeros(len(tids))
                t = tids.index(oracles.true_spec(sc, j).id)
                row[(t + 1) % len(tids)] = 1.0
                rows[(i, j)] = row
    return oracles.with_rows(beliefs, rows)


def assert_memos_match(sc, beliefs, shared):
    """Payoffs and decisions of ``shared`` under ``beliefs`` equal a fresh
    engine's and the references', and no caller can change a memoized
    decision: each is a tuple of (payoff, target tuple) rows."""
    fresh, evaluator = PayoffEngine(sc), CoalitionEvaluator(sc)
    ids = sorted(sc.drone_ids)
    for k in range(1, len(ids) + 1):
        for members in itertools.combinations(ids, k):
            coalition = frozenset(members)
            for d in members:
                got = oracles.payoff(shared, d, coalition, beliefs).hex()
                assert got == \
                    oracles.payoff(fresh, d, coalition, beliefs).hex() == \
                    oracles.expected_payoff(sc, evaluator, d, coalition,
                                            beliefs).hex()
    for s in enumerate_structures(ids):
        for d in ids:
            ref = oracles.flagged_best_reply(s, d, beliefs, fresh)
            got = decision(s, d, beliefs, shared)
            assert got == decision(s, d, beliefs, fresh) == ref
            got[1].append(got[1][0] if got[1] else None)
            assert decision(s, d, beliefs, shared) == ref
        rows = shared.table(beliefs).decisions(s)
        assert isinstance(rows, tuple)
        assert all(isinstance(targets, tuple) for _, targets in rows)


@settings(deadline=None, max_examples=40)
@given(memo_cases())
def test_memos_answer_by_belief_content(case):
    sc, beliefs, dperm, tperm = case
    ids, tids = beliefs.drone_ids, beliefs.type_ids
    shared = PayoffEngine(sc)
    # warm the shared engine with a copy, then ask under the original:
    # another state of equal content
    twin = same_content(beliefs)
    assert_memos_match(sc, twin, shared)
    assert twin.content_key == beliefs.content_key
    assert_memos_match(sc, beliefs, shared)
    # a drone axis out of the scenario's order is refused, whether the
    # rows were permuted with it (the same beliefs) or not (equal bytes
    # under a relabelled axis)
    if list(dperm) != sorted(dperm):
        for table in (beliefs.table[np.ix_(dperm, dperm)], beliefs.table):
            other = BeliefState(table, [ids[i] for i in dperm], tids)
            with pytest.raises(ValueError, match="belief drones"):
                oracles.payoff(shared, ids[0], ids, other)
            assert other.content_key not in shared.tables
    # a type axis out of the scenario's order is refused, whether its
    # columns were permuted with it or not
    if list(tperm) != sorted(tperm):
        for table in (beliefs.table[..., tperm], beliefs.table):
            other = BeliefState(table, ids, [tids[k] for k in tperm])
            with pytest.raises(ValueError, match="belief types"):
                oracles.payoff(shared, ids[0], ids, other)
            assert other.content_key not in shared.tables
    # a state built from one the memos have seen, with every row about
    # another drone reset, gets its own answers
    assert_memos_match(sc, wrong_point_masses(twin, sc), shared)
