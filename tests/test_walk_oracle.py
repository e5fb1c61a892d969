"""Differential tests: ``dynamics.run_best_reply``, which reads a mover
mask per structure and draws each closing quiet window in one call,
against the proposal-by-proposal walk in ``oracles.py``.  Both must end
on the same structure with the same counts and leave both generators in
the same state, so the rest of a repeated game draws the same values.  The
one-call draws the walk and a round's power sharing rest on are pinned
against scalar draws."""

import dataclasses
import json

import numpy as np
import pytest

import oracles
from dronecoal import dynamics
from dronecoal.dynamics import NonConvergenceError, run_best_reply
from dronecoal.game import BeliefState, CoalitionStructure, PayoffEngine
from dronecoal.learning import ObservationLog
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, TypeSpec, generate
from test_decision_oracle import learned_beliefs

URBAN = ENVIRONMENTS["urban"]


def belief_kinds(sc, seed):
    return {"truth": BeliefState.point_mass_truth(sc),
            "uniform": BeliefState.uniform(sc),
            "learned": learned_beliefs(sc, rounds=3, seed=seed)}


def walk(fn, start, beliefs, engine, seed, shared_tie):
    """Run one walk on fresh generators; the outcome is the final
    structure and counts, or the raised trace, plus both generators'
    states afterwards."""
    rng = np.random.default_rng(seed)
    tie_rng = rng if shared_tie else np.random.default_rng(seed + 1000)
    try:
        final, stats = fn(start, beliefs, engine, rng, 10, tie_rng=tie_rng)
        result = ("stable", final, stats.proposals, stats.changes)
    except NonConvergenceError as exc:
        result = ("stopped", str(exc), exc.trace)
    return result, rng.bit_generator.state, tie_rng.bit_generator.state


def outcomes(settings, seeds):
    """(case, walk outcome, oracle outcome) over singleton and grand
    starts, the three belief kinds and both tie-stream layouts."""
    for name in settings:
        for seed in seeds:
            sc = generate(SETTINGS[name], URBAN, seed=seed)
            engine, ref_engine = PayoffEngine(sc), PayoffEngine(sc)
            starts = (CoalitionStructure.singletons(sc.drone_ids),
                      CoalitionStructure.grand(sc.drone_ids))
            for kind, beliefs in belief_kinds(sc, seed).items():
                for start in starts:
                    for shared_tie in (False, True):
                        case = (name, seed, kind, start.to_string(),
                                shared_tie)
                        yield (case,
                               walk(run_best_reply, start, beliefs, engine,
                                    seed, shared_tie),
                               walk(oracles.run_best_reply, start, beliefs,
                                    ref_engine, seed, shared_tie))


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4"])
def test_walk_equals_per_proposal_walk(name):
    changed = 0
    for case, got, ref in outcomes([name], range(10)):
        assert got == ref, case
        changed += got[0][0] == "stable" and got[0][3] > 0
    assert changed > 0


def test_walk_stops_where_per_proposal_walk_stops(monkeypatch):
    # caps below a closing quiet window, inside and after the moves
    kinds = set()
    for cap in (7, 20, 45, 70):
        monkeypatch.setattr(dynamics, "STEP_CAP", cap)
        for case, got, ref in outcomes(["S1", "S3"], range(3)):
            assert got == ref, (cap,) + case
            kinds.add(got[0][0])
    assert kinds == {"stable", "stopped"}


class SizeEngine(PayoffEngine):
    """Payoffs that read only the coalition's size and peak at pairs: a
    singleton ties over every partner it could join, so these walks draw
    from ``tie_rng``, which the scenarios above never do.  The engine's
    decision tables fill from them."""

    def expected_payoff_of(self, pos, mask, beliefs):
        return -abs(bin(mask).count("1") - 2.0)


@pytest.mark.parametrize("name", ["S3", "S4"])
def test_walk_draws_ties_where_per_proposal_walk_draws_them(name):
    sc = generate(SETTINGS[name], URBAN, seed=0)
    beliefs = BeliefState.uniform(sc)
    singles = CoalitionStructure.singletons(sc.drone_ids)
    for seed in range(10):
        for shared_tie in (False, True):
            got, ref = (walk(fn, singles, beliefs, SizeEngine(sc), seed,
                             shared_tie)
                        for fn in (run_best_reply, oracles.run_best_reply))
            assert got == ref, (seed, shared_tie)
            assert got[2] != np.random.default_rng(
                seed + (0 if shared_tie else 1000)).bit_generator.state


@pytest.mark.parametrize("d", range(2, 9))
def test_batch_draw_equals_scalar_draws(d):
    # the one-call quiet window rests on this property of numpy's bounded
    # integers; a numpy that breaks it would move every later draw
    for seed in range(300):
        n = 1 + seed % 97
        batch, scalar = (np.random.default_rng(seed) for _ in range(2))
        values = batch.integers(d, size=n)
        assert values.tolist() == [int(scalar.integers(d))
                                   for _ in range(n)], (d, seed)
        assert batch.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("d", range(1, 9))
def test_vector_normal_draw_equals_scalar_draws(d):
    # a repeated-game round draws its D powers in one rng.normal(mus,
    # sigmas) call; a numpy that broke this would move every shared sample
    for seed in range(300):
        spec = np.random.default_rng(1_000 + seed)
        mus = spec.choice([1.0, 12.0, 18.0, 24.0, 30.0], size=d).tolist()
        sigmas = spec.choice([0.5, 3.0, 5.0, 8.0], size=d).tolist()
        batch, scalar = (np.random.default_rng(seed) for _ in range(2))
        values = batch.normal(mus, sigmas).tolist()
        assert values == [float(scalar.normal(mu, sigma))
                          for mu, sigma in zip(mus, sigmas)], (d, seed)
        assert batch.bit_generator.state == scalar.bit_generator.state


def test_shared_samples_are_scalar_draws_truncated_at_zero():
    # type 0 sits near zero Watts, so many raw draws are negative
    types = (TypeSpec(0, 1.0, 3.0), TypeSpec(1, 18.0, 3.0))
    negatives = 0
    for seed in range(30):
        sc = generate(SETTINGS["S4"], URBAN, type_set=types, seed=seed)
        # every other scenario is handed its drones out of id order and
        # keeps them in id order, which draws and the log's arrays follow
        if seed % 2:
            sc = dataclasses.replace(sc, drones=sc.drones[3:] + sc.drones[:3])
        ids = sorted(sc.drone_ids)
        assert sc.drone_ids == tuple(ids)
        # one round of five games on their own generators, one sitting out
        structures = [CoalitionStructure.grand(ids),
                      CoalitionStructure.singletons(ids),
                      CoalitionStructure.from_string("{0,1,2}{3,4}{5}"),
                      None,
                      CoalitionStructure.from_string("{0,4}{1,3,5}{2}")]
        rngs, ref_rngs = ([np.random.default_rng([seed, g])
                           for g in range(len(structures))]
                          for _ in range(2))
        log = ObservationLog(sc, len(structures))
        draws = dynamics._share_samples(structures, log, rngs)
        specs = {d: oracles.true_spec(sc, d) for d in ids}
        pos = {d: k for k, d in enumerate(sc.drone_ids)}
        for g, structure in enumerate(structures):
            rng, ref_rng = rngs[g], ref_rngs[g]
            samples = {(i, j): v for (h, i, j), v in log.samples.items()
                       if h == g}
            if structure is None:
                assert draws[g] is None and samples == {}
                assert not log.sums[:, g].any()
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                continue
            raw = {d: float(ref_rng.normal(t.mu, t.sigma))
                   for d, t in specs.items()}
            negatives += sum(x < 0.0 for x in raw.values())
            assert draws[g] == {d: max(0.0, x) for d, x in raw.items()}
            expected = {(i, j): max(0.0, raw[j])
                        for block in structure.blocks
                        for j in block for i in block if i != j}
            record = dynamics.RoundRecord(0, False, structure, {}, draws[g],
                                          "")
            assert json.loads(record.to_json())["shared_samples"] == {
                f"{i}->{j}": x for (i, j), x in expected.items()}
            assert samples == {pair: [x] for pair, x in expected.items()}
            assert {(sc.drone_ids[a], sc.drone_ids[b]) for a, b
                    in zip(*log.sums[0, g].nonzero())} == \
                set(expected)
            assert all(log.sums[1, g, pos[i], pos[j]] == x
                       for (i, j), x in expected.items())
            assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert negatives > 0


def test_structure_over_other_drones_refused_by_share():
    # the mask's rows are the structure's drones and the log's rows its
    # scenario's, so a round over other drones would credit its samples
    # to the wrong pairs
    sc = generate(SETTINGS["S1"], URBAN, seed=0)
    log = ObservationLog(sc, 1)
    for structure in (CoalitionStructure.grand([1, 2]),
                      CoalitionStructure.grand([0, 1, 2, 3])):
        with pytest.raises(ValueError):
            dynamics._share_samples([structure], log,
                                    [np.random.default_rng(0)])
    assert log.samples == {} and not log.sums.any()
