import numpy as np
import pytest

from dronecoal.dynamics import best_reply_step
from dronecoal.game import (BeliefState, CoalitionStructure, PayoffEngine,
                            enumerate_structures, is_nash_stable)
from dronecoal.markov import (MarkovModel, TrappedClassError,
                              absorbing_states, build_chain,
                              formation_probabilities)
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, SimulationSetting, generate

URBAN = ENVIRONMENTS["urban"]


def _model(states, transition):
    return MarkovModel(states=list(states),
                       transition=np.asarray(transition, dtype=float))


def _fake_states(n):
    # distinct placeholder structures; only identity matters here
    return [CoalitionStructure.singletons(range(i + 1)) for i in range(n)]


class TestAbsorbingStates:
    def test_identity_all_absorbing(self):
        model = _model(_fake_states(3), np.eye(3))
        assert absorbing_states(model) == (0, 1, 2)

    def test_irreducible_two_state_has_none(self):
        model = _model(_fake_states(2), [[0.0, 1.0], [1.0, 0.0]])
        assert absorbing_states(model) == ()

    def test_mixed(self):
        model = _model(_fake_states(3),
                       [[1.0, 0.0, 0.0],
                        [0.2, 0.3, 0.5],
                        [0.0, 0.0, 1.0]])
        assert absorbing_states(model) == (0, 2)


class TestFormationProbabilities:
    def test_single_absorbing_gets_everything(self):
        model = _model(_fake_states(3),
                       [[0.5, 0.25, 0.25],
                        [0.0, 0.5, 0.5],
                        [0.0, 0.0, 1.0]])
        probs = formation_probabilities(model, initial=np.array([1.0, 0, 0]))
        assert probs[2] == pytest.approx(1.0)

    def test_two_absorbing_split(self):
        # from state 0: 0.3 to absorbing 1, 0.7 to absorbing 2
        model = _model(_fake_states(3),
                       [[0.0, 0.3, 0.7],
                        [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0]])
        probs = formation_probabilities(model, initial=np.array([1.0, 0, 0]))
        assert probs[1] == pytest.approx(0.3)
        assert probs[2] == pytest.approx(0.7)

    def test_geometric_self_loop(self):
        # self-loop mass does not change where the chain eventually lands
        model = _model(_fake_states(3),
                       [[0.9, 0.03, 0.07],
                        [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0]])
        probs = formation_probabilities(model, initial=np.array([1.0, 0, 0]))
        assert probs[1] == pytest.approx(0.3)
        assert probs[2] == pytest.approx(0.7)

    def test_no_absorbing_state_raises(self):
        model = _model(_fake_states(2), [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            formation_probabilities(model)

    def test_trapped_class_detected(self):
        # states 1 and 2 cycle forever; absorption from state 0 is partial
        model = _model(_fake_states(4),
                       [[0.0, 0.5, 0.0, 0.5],
                        [0.0, 0.0, 1.0, 0.0],
                        [0.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(TrappedClassError):
            formation_probabilities(model, initial=np.array([1.0, 0, 0, 0]))

    def test_unreachable_trapped_class_harmless(self):
        # states 1 and 2 cycle forever, but they carry no initial mass and
        # are unreachable from state 0, so absorption is still certain
        model = _model(_fake_states(4),
                       [[0.0, 0.0, 0.0, 1.0],
                        [0.0, 0.0, 1.0, 0.0],
                        [0.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 1.0]])
        probs = formation_probabilities(model,
                                        initial=np.array([1.0, 0, 0, 0]))
        assert probs[3] == pytest.approx(1.0)

    def test_initial_mass_on_absorbing_state(self):
        model = _model(_fake_states(2), [[1.0, 0.0], [0.0, 1.0]])
        probs = formation_probabilities(model,
                                        initial=np.array([0.25, 0.75]))
        assert probs[0] == pytest.approx(0.25)
        assert probs[1] == pytest.approx(0.75)


@pytest.fixture(scope="module")
def s1_chain():
    sc = generate(SETTINGS["S1"], URBAN, seed=8)
    engine = PayoffEngine(sc)
    beliefs = BeliefState.point_mass_truth(sc)
    model = build_chain(sc, beliefs, engine)
    return sc, engine, beliefs, model


class TestBuildChain:
    def test_single_drone(self):
        setting = SimulationSetting("one", 1, 3, 3, 3, 3)
        sc = generate(setting, URBAN, seed=0)
        beliefs = BeliefState.point_mass_truth(sc)
        model = build_chain(sc, beliefs, PayoffEngine(sc))
        assert model.transition.shape == (1, 1)
        assert model.transition[0, 0] == 1.0
        assert formation_probabilities(model) == {0: 1.0}

    def test_rows_stochastic(self, s1_chain):
        _, _, _, model = s1_chain
        assert model.transition.shape == (5, 5)
        assert np.allclose(model.transition.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(model.transition >= 0.0)

    def test_absorbing_equals_nash_stable_set(self, s1_chain):
        sc, engine, beliefs, model = s1_chain
        absorbing = set(absorbing_states(model))
        stable = {i for i, s in enumerate(model.states)
                  if is_nash_stable(s, beliefs, sc, engine)[0]}
        assert absorbing == stable

    def test_absorbing_matches_stable_across_seeds(self):
        for seed in range(4):
            sc = generate(SETTINGS["S2"], URBAN, seed=seed)
            engine = PayoffEngine(sc)
            for beliefs in (BeliefState.point_mass_truth(sc),
                            BeliefState.uniform(sc)):
                model = build_chain(sc, beliefs, engine)
                assert np.allclose(model.transition.sum(axis=1), 1.0)
                absorbing = set(absorbing_states(model))
                stable = {i for i, s in enumerate(model.states)
                          if is_nash_stable(s, beliefs, sc, engine)[0]}
                assert absorbing == stable

    def test_formation_probs_sum_to_one(self, s1_chain):
        # under uniform beliefs S3 seed 9 cannot reach {0,1,2,3,4}, which
        # the solve alone puts at -6.2e-18
        sc = generate(SETTINGS["S3"], URBAN, seed=9)
        uniform = build_chain(sc, BeliefState.uniform(sc), PayoffEngine(sc))
        for model in (s1_chain[3], uniform):
            probs = formation_probabilities(model)
            assert sum(probs.values()) == pytest.approx(1.0)
            assert all(p >= 0.0 for p in probs.values())

    def test_transitions_match_simulated_step(self, s1_chain):
        # Monte Carlo: empirical one-step frequencies of the simulated
        # best-reply step agree with the analytic rows within 4 sigma
        sc, engine, beliefs, model = s1_chain
        rng = np.random.default_rng(11)
        ids = sc.drone_ids
        n = 4000
        for i, state in enumerate(model.states):
            counts = {j: 0 for j in range(len(model.states))}
            for _ in range(n):
                proposer = ids[int(rng.integers(len(ids)))]
                new = best_reply_step(state, proposer, beliefs, engine, rng)
                counts[model.index(new)] += 1
            for j in range(len(model.states)):
                p = model.transition[i, j]
                se = np.sqrt(max(p * (1 - p), 1e-12) / n)
                assert abs(counts[j] / n - p) < 4 * se + 5e-3

    def test_veto_self_loop_variant_still_stochastic(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=0)
        beliefs = BeliefState.point_mass_truth(sc)
        engine = PayoffEngine(sc)
        default = build_chain(sc, beliefs, engine)
        variant = build_chain(sc, beliefs, engine, veto_self_loop=True)
        assert np.allclose(variant.transition.sum(axis=1), 1.0)
        # seed 0 contains a vetoed maximizer, so the two readings differ
        assert not np.allclose(default.transition, variant.transition)

    def test_cap_enforced(self):
        # nine drones exceed the partition enumeration cap of eight
        setting = SimulationSetting("nine", 9, 27, 27, 3, 3)
        sc = generate(setting, URBAN, seed=0)
        beliefs = BeliefState.point_mass_truth(sc)
        with pytest.raises(ValueError, match="enumeration cap"):
            build_chain(sc, beliefs, PayoffEngine(sc))


class TestExportText:
    def test_export_contains_states_and_rows(self, tmp_path, s1_chain):
        _, _, _, model = s1_chain
        formation_probabilities(model)
        path = tmp_path / "chain.txt"
        model.export_text(path)
        text = path.read_text()
        assert "states" in text
        assert "transition" in text
        assert "{0}{1}{2}" in text
        assert "formation_probs" in text

    def test_export_byte_stable(self, tmp_path, s1_chain):
        _, _, _, model = s1_chain
        formation_probabilities(model)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        model.export_text(a)
        model.export_text(b)
        assert a.read_bytes() == b.read_bytes()
