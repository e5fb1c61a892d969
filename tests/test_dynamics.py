import json

import numpy as np
import pytest

from dronecoal import dynamics
from dronecoal.dynamics import (DynamicsConfig, NonConvergenceError,
                                RoundRecord, best_reply_step, run_best_reply,
                                run_repeated_game)
from dronecoal.game import (BeliefState, CoalitionStructure, PayoffEngine,
                            admissible, candidate_groups,
                            enumerate_structures, is_nash_stable)
from dronecoal.propagation import ENVIRONMENTS, Position3D
from dronecoal.scenario import (DEFAULT_TYPE_SET, SETTINGS, DroneSpec,
                                Scenario, TypeSpec, UserSpec, baseline_rates,
                                generate)
from oracles import block_of, move, payoff, true_spec

URBAN = ENVIRONMENTS["urban"]


def swap_scenario():
    """Two drones whose baseline users sit under the other drone; merging
    lets the matching give each user its overhead channel, so the merge is
    strictly profitable for both."""
    drones = (DroneSpec(0, Position3D(0, 0, 1000), (0,), 1),
              DroneSpec(1, Position3D(3000, 0, 1000), (1,), 1))
    users = (UserSpec(0, Position3D(3000, 0, 0), 0),
             UserSpec(1, Position3D(0, 0, 0), 1))
    return Scenario(drones, users, DEFAULT_TYPE_SET, URBAN, 4000.0, 0)


class TestDynamicsConfig:
    def test_defaults(self):
        c = DynamicsConfig()
        assert c.epsilon == 0.1
        assert c.init_grand_rounds == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicsConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            DynamicsConfig(max_rounds=0)
        for bad in ({"epsilon": "x"}, {"epsilon": True},
                    {"stability_window": 2.0}, {"init_grand_rounds": True}):
            with pytest.raises(ValueError):
                DynamicsConfig(**bad)


class TestCandidateGroups:
    def test_empty_when_no_improvement(self):
        sc = swap_scenario()
        engine = PayoffEngine(sc)
        beliefs = BeliefState.point_mass_truth(sc)
        grand = CoalitionStructure.grand(sc.drone_ids)
        for d in sc.drone_ids:
            assert candidate_groups(grand, d, beliefs, engine) == []

    def test_merge_candidate_found(self):
        sc = swap_scenario()
        engine = PayoffEngine(sc)
        beliefs = BeliefState.point_mass_truth(sc)
        singles = CoalitionStructure.singletons(sc.drone_ids)
        groups = candidate_groups(singles, 0, beliefs, engine)
        assert len(groups) == 1
        q, level = groups[0]
        assert level == [(1,)]
        assert admissible(0, (1,), engine, beliefs)
        assert q > payoff(engine, 0, [0], beliefs)

    def test_descending_payoff_order(self):
        sc = generate(SETTINGS["S2"], URBAN, seed=0)
        engine = PayoffEngine(sc)
        beliefs = BeliefState.point_mass_truth(sc)
        for s in enumerate_structures(sc.drone_ids):
            for d in sc.drone_ids:
                groups = candidate_groups(s, d, beliefs, engine)
                payoffs = [q for q, _ in groups]
                assert payoffs == sorted(payoffs, reverse=True)


class TestBestReplyStep:
    def test_stable_structure_unchanged(self):
        sc = swap_scenario()
        beliefs = BeliefState.point_mass_truth(sc)
        grand = CoalitionStructure.grand(sc.drone_ids)
        rng = np.random.default_rng(0)
        assert best_reply_step(grand, 0, beliefs, PayoffEngine(sc),
                               rng) == grand

    def test_profitable_merge_taken(self):
        sc = swap_scenario()
        beliefs = BeliefState.point_mass_truth(sc)
        singles = CoalitionStructure.singletons(sc.drone_ids)
        rng = np.random.default_rng(0)
        new = best_reply_step(singles, 0, beliefs, PayoffEngine(sc), rng)
        assert new == CoalitionStructure.grand(sc.drone_ids)

    def test_veto_falls_through_to_next_group(self):
        # proposer 1's best move (joining drone 0) is vetoed; the veto
        # falls through to the next payoff level, leaving the coalition
        sc = generate(SETTINGS["S1"], URBAN, seed=0)
        engine = PayoffEngine(sc)
        beliefs = BeliefState.point_mass_truth(sc)
        structure = CoalitionStructure.from_string("{0}{1,2}")
        groups = candidate_groups(structure, 1, beliefs, engine)
        assert len(groups) >= 2
        top_ok = [t for t in groups[0][1]
                  if admissible(1, t, engine, beliefs)]
        assert top_ok == []   # fixture precondition: best group vetoed
        rng = np.random.default_rng(0)
        new = best_reply_step(structure, 1, beliefs, engine, rng)
        assert new != structure
        taken = [t for _, level in groups[1:] for t in level
                 if admissible(1, t, engine, beliefs)]
        expected = {move(structure, 1, t) for t in taken}
        assert new in expected

    def test_vetoed_move_never_taken(self):
        sc = generate(SETTINGS["S2"], URBAN, seed=0)
        engine = PayoffEngine(sc)
        beliefs = BeliefState.point_mass_truth(sc)
        rng = np.random.default_rng(1)
        for s in enumerate_structures(sc.drone_ids):
            for d in sc.drone_ids:
                new = best_reply_step(s, d, beliefs, engine, rng)
                if new == s:
                    continue
                target = tuple(x for x in block_of(new, d) if x != d) \
                    or None
                assert admissible(d, target, engine, beliefs)
                # and the move strictly improves the proposer
                q_old = payoff(engine, d, block_of(s, d), beliefs)
                q_new = payoff(engine, d, block_of(new, d), beliefs)
                assert q_new > q_old


class TestRunBestReply:
    def test_terminal_is_nash_stable(self):
        for seed in range(6):
            sc = generate(SETTINGS["S1"], URBAN, seed=seed)
            engine = PayoffEngine(sc)
            beliefs = BeliefState.point_mass_truth(sc)
            rng = np.random.default_rng(seed)
            final, stats = run_best_reply(
                CoalitionStructure.singletons(sc.drone_ids), beliefs,
                engine, rng)
            assert is_nash_stable(final, beliefs, sc, engine)[0]
            assert stats.proposals >= stats.changes

    def test_stable_start_returns_immediately_unchanged(self):
        sc = swap_scenario()
        beliefs = BeliefState.point_mass_truth(sc)
        grand = CoalitionStructure.grand(sc.drone_ids)
        final, stats = run_best_reply(grand, beliefs, PayoffEngine(sc),
                                      np.random.default_rng(0))
        assert final == grand
        assert stats.changes == 0

    def test_deterministic_for_fixed_stream(self):
        sc = generate(SETTINGS["S2"], URBAN, seed=3)
        beliefs = BeliefState.point_mass_truth(sc)
        engine = PayoffEngine(sc)
        singles = CoalitionStructure.singletons(sc.drone_ids)
        runs = [run_best_reply(singles, beliefs, engine,
                               np.random.default_rng(7))[0]
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_full_info_individual_rationality(self):
        # starting from singletons, nobody ends below its baseline rate
        for seed in (8, 17, 40):
            sc = generate(SETTINGS["S1"], URBAN, seed=seed)
            engine = PayoffEngine(sc)
            beliefs = BeliefState.point_mass_truth(sc)
            base = baseline_rates(engine.evaluator)
            final, _ = run_best_reply(
                CoalitionStructure.singletons(sc.drone_ids), beliefs,
                engine, np.random.default_rng(0))
            for d in sc.drone_ids:
                q = payoff(engine, d, block_of(final, d), beliefs)
                assert q >= base[d] - 1e-9 * max(1.0, base[d])

    def test_step_cap_raises(self, monkeypatch):
        sc = generate(SETTINGS["S1"], URBAN, seed=8)
        beliefs = BeliefState.point_mass_truth(sc)
        monkeypatch.setattr(dynamics, "STEP_CAP", 1)
        with pytest.raises(NonConvergenceError):
            run_best_reply(CoalitionStructure.singletons(sc.drone_ids),
                           beliefs, PayoffEngine(sc),
                           np.random.default_rng(0))


class TestRoundRecord:
    def test_json_round_trip(self):
        record = RoundRecord(
            index=3, grand_coalition=False,
            structure=CoalitionStructure.from_string("{0}{1,2}"),
            payoffs={0: 1.5, 1: 2.25, 2: 0.75},
            draws={0: 3.0, 1: 17.0, 2: 11.5},
            belief_hash="abc123", type_norms=(0.0, 1.0), mean_norm=0.5)
        assert json.loads(record.to_json()) == {
            "index": 3, "grand_coalition": False, "structure": "{0}{1,2}",
            "payoffs": {"0": 1.5, "1": 2.25, "2": 0.75},
            "shared_samples": {"1->2": 11.5, "2->1": 17.0},
            "belief_hash": "abc123", "type_norms": [0.0, 1.0],
            "mean_norm": 0.5}

    def test_json_is_single_line(self):
        record = RoundRecord(0, True, CoalitionStructure.grand([0, 1]),
                             {0: 1.0, 1: 2.0}, {0: 12.0, 1: 18.0}, "x")
        assert "\n" not in record.to_json()
        assert json.loads(record.to_json())["structure"] == "{0,1}"


class TestRepeatedGame:
    def _run(self, seed=42, **kw):
        sc = generate(SETTINGS["S1"], URBAN, seed=8)
        config = DynamicsConfig(seed=seed, **kw)
        return sc, run_repeated_game(config, PayoffEngine(sc))

    def test_converges_and_is_stable(self):
        sc, result = self._run()
        assert result.converged
        assert result.stall is None
        engine = PayoffEngine(sc)
        assert is_nash_stable(result.structure, result.beliefs, sc,
                              engine)[0]

    def test_initial_rounds_are_grand(self):
        sc, result = self._run()
        config_init = 5
        for record in result.rounds[:config_init]:
            assert record.grand_coalition
            assert record.structure == CoalitionStructure.grand(sc.drone_ids)

    def test_round_indices_sequential(self):
        _, result = self._run()
        assert [r.index for r in result.rounds] == \
            list(range(len(result.rounds)))

    def test_deterministic(self):
        _, a = self._run(seed=5)
        _, b = self._run(seed=5)
        assert a.structure == b.structure
        assert len(a.rounds) == len(b.rounds)
        assert [r.to_json() for r in a.rounds] == \
            [r.to_json() for r in b.rounds]
        _, c = self._run(seed=6)
        assert [r.to_json() for r in c.rounds] != \
            [r.to_json() for r in a.rounds]

    def test_epsilon_one_always_grand(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=8)
        config = DynamicsConfig(epsilon=1.0, max_rounds=20, seed=0)
        result = run_repeated_game(config, PayoffEngine(sc))
        assert all(r.grand_coalition for r in result.rounds)
        assert not result.converged   # a repeating non-grand never occurs

    def test_single_type_set_learns_instantly(self):
        # with one type there is nothing to learn: beliefs are exact from
        # the start and the norms are zero in every round
        one_type = (TypeSpec(0, 15.0, 3.0),)
        sc = generate(SETTINGS["S1"], URBAN, type_set=one_type, seed=8)
        config = DynamicsConfig(seed=0, max_rounds=50)
        result = run_repeated_game(config, PayoffEngine(sc))
        assert result.converged
        assert all(r.mean_norm == 0.0 for r in result.rounds)

    def test_samples_shared_within_blocks_only(self):
        _, result = self._run()
        for record in result.rounds:
            for pair in json.loads(record.to_json())["shared_samples"]:
                observer, observed = map(int, pair.split("->"))
                block = block_of(record.structure, observed)
                assert observer in block
                assert observer != observed

    def test_learning_reaches_truth(self):
        sc, result = self._run()
        truth = [true_spec(sc, j).id for j in sc.drone_ids]
        assert result.prediction.tolist() == [truth] * len(truth)
        assert result.rounds[-1].mean_norm == 0.0

    def test_trace_round_trip(self, tmp_path):
        _, result = self._run()
        path = tmp_path / "trace.jsonl"
        result.write_trace(path)
        with open(path) as f:
            lines = [l for l in f if l.strip()]
        assert lines == [r.to_json() + "\n" for r in result.rounds]
        assert json.loads(lines[-1])["structure"] == \
            result.rounds[-1].structure.to_string()
