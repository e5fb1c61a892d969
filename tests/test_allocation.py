import itertools
import math

import numpy as np
import pytest

from dronecoal.allocation import (CoalitionEvaluator, max_weight_matching,
                                  waterfill)
from dronecoal.propagation import ENVIRONMENTS, to_linear
from dronecoal.scenario import SETTINGS, baseline_rates, generate

URBAN = ENVIRONMENTS["urban"]


def _brute_force_matching_value(weights):
    n_rows, n_cols = weights.shape
    best = -math.inf
    if n_rows <= n_cols:
        for perm in itertools.permutations(range(n_cols), n_rows):
            best = max(best, sum(weights[r, c] for r, c in enumerate(perm)))
    else:
        for perm in itertools.permutations(range(n_rows), n_cols):
            best = max(best, sum(weights[r, c] for c, r in enumerate(perm)))
    return best


class TestMatching:
    def test_single_entry(self):
        assert max_weight_matching(np.array([[5.0]])) == [(0, 0)]

    def test_dominant_diagonal(self):
        w = np.eye(4) * 10.0 + 0.1
        assert max_weight_matching(w) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_empty(self):
        assert max_weight_matching(np.zeros((0, 0))) == []

    def test_matches_brute_force_value(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            w = rng.uniform(0, 1, size=(5, 5))
            pairs = max_weight_matching(w)
            value = sum(w[r, c] for r, c in pairs)
            assert value == pytest.approx(_brute_force_matching_value(w))

    def test_rectangular_matches_smaller_side(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0, 1, size=(3, 5))
        pairs = max_weight_matching(w)
        assert len(pairs) == 3
        assert sum(v for v in (w[r, c] for r, c in pairs)) == \
            pytest.approx(_brute_force_matching_value(w))

    def test_identical_rows_canonical_order(self):
        # all rows equal: every permutation is optimal; the canonical
        # result pairs row i with column i
        w = np.tile(np.array([3.0, 2.0, 1.0]), (3, 1))
        assert max_weight_matching(w) == [(0, 0), (1, 1), (2, 2)]

    def test_identical_row_groups(self):
        w = np.array([[9.0, 9.0, 1.0, 1.0],
                      [9.0, 9.0, 1.0, 1.0],
                      [1.0, 1.0, 9.0, 9.0],
                      [1.0, 1.0, 9.0, 9.0]])
        pairs = max_weight_matching(w)
        assert pairs == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            max_weight_matching(np.array([[1.0, -1.0]]))
        with pytest.raises(ValueError):
            max_weight_matching(np.array([[np.inf, 1.0]]))


class TestWaterfill:
    def test_single_channel_gets_budget(self):
        p, mu = waterfill(np.array([2.0]), 5.0)
        assert p[0] == pytest.approx(5.0)
        assert mu == pytest.approx(5.5)

    def test_equal_gains_split_evenly(self):
        p, _ = waterfill(np.full(4, 3.0), 8.0)
        assert np.allclose(p, 2.0)

    def test_two_channel_example(self):
        p, mu = waterfill(np.array([1.0, 0.5]), 3.0)
        assert mu == pytest.approx(3.0)
        assert p[0] == pytest.approx(2.0)
        assert p[1] == pytest.approx(1.0)

    def test_weak_channel_shut_off(self):
        # budget too small to clear the weak channel's noise floor
        p, mu = waterfill(np.array([10.0, 0.01]), 0.5)
        assert p[1] == 0.0
        assert p[0] == pytest.approx(0.5)

    def test_zero_gains(self):
        p, mu = waterfill(np.zeros(3), 4.0)
        assert np.all(p == 0.0)
        assert mu == 0.0

    def test_zero_budget(self):
        p, mu = waterfill(np.array([1.0, 2.0]), 0.0)
        assert np.all(p == 0.0)

    def test_budget_exhausted(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            gains = rng.uniform(0.01, 10.0, size=rng.integers(1, 8))
            budget = float(rng.uniform(0.1, 30.0))
            p, _ = waterfill(gains, budget)
            assert math.fsum(p) == pytest.approx(budget, rel=1e-10)
            assert np.all(p >= 0.0)

    def test_kkt_conditions(self):
        # active channels share one water level; inactive channels have a
        # noise floor above it
        rng = np.random.default_rng(9)
        for _ in range(50):
            gains = rng.uniform(0.001, 10.0, size=6)
            budget = float(rng.uniform(0.01, 20.0))
            p, mu = waterfill(gains, budget)
            for g, pw in zip(gains, p):
                if pw > 1e-12:
                    assert pw + 1.0 / g == pytest.approx(mu, rel=1e-9)
                else:
                    assert 1.0 / g >= mu - 1e-9

    def test_beats_random_feasible_allocations(self):
        rng = np.random.default_rng(10)
        gains = rng.uniform(0.05, 5.0, size=5)
        budget = 10.0
        p, _ = waterfill(gains, budget)
        opt = np.sum(np.log2(1.0 + p * gains))
        for _ in range(200):
            alt = rng.dirichlet(np.ones(5)) * budget
            val = np.sum(np.log2(1.0 + alt * gains))
            assert val <= opt + 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            waterfill(np.array([-1.0]), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([1.0]), -1.0)


class TestWeightMatrix:
    def test_inverse_linear_loss(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=14)
        ev = CoalitionEvaluator(sc)
        coalition = frozenset([0])
        w = ev.weight_matrix(coalition)
        channels, users = ev.coalition_members(coalition)
        assert w.shape == (3, 3)
        for j, u in enumerate(users):
            expected = 1.0 / to_linear(ev.mean_loss_db(0, u))
            assert np.allclose(w[:, j], expected)

    def test_rows_identical_per_drone(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=14)
        ev = CoalitionEvaluator(sc)
        coalition = frozenset([0, 1])
        w = ev.weight_matrix(coalition)
        channels, _ = ev.coalition_members(coalition)
        owners = [d for _, d in channels]
        for i in range(1, len(owners)):
            if owners[i] == owners[i - 1]:
                assert np.array_equal(w[i], w[i - 1])

    def test_empty_coalition_rejected(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=14)
        with pytest.raises(ValueError):
            CoalitionEvaluator(sc).weight_matrix(frozenset())


class TestEvaluateCoalition:
    def test_singleton_matches_baseline(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=15)
        base = baseline_rates(sc, CoalitionEvaluator(sc))
        for d in sc.drone_ids:
            result = CoalitionEvaluator(sc).evaluate(
                frozenset([d]), {d: sc.true_power(d)})
            assert result.per_drone_rate[d] == pytest.approx(base[d])
            assert result.total_rate == pytest.approx(base[d])

    def test_missing_power_rejected(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=15)
        with pytest.raises(ValueError):
            CoalitionEvaluator(sc).evaluate(frozenset([0, 1]), {0: 12.0})

    def test_total_rate_is_sum(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=15)
        result = CoalitionEvaluator(sc).evaluate(
            frozenset([0, 1, 2]), {d: sc.true_power(d) for d in sc.drone_ids})
        assert result.total_rate == \
            pytest.approx(math.fsum(result.per_drone_rate.values()))
        assert len(result.matching) == 9
        assert math.fsum(result.powers.powers.values()) <= \
            result.powers.total_budget + 1e-9

    def test_monotone_in_budget(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=16)
        ev = CoalitionEvaluator(sc)
        lo = ev.evaluate(frozenset([0, 1]), {0: 6.0, 1: 6.0})
        hi = ev.evaluate(frozenset([0, 1]), {0: 12.0, 1: 12.0})
        assert hi.total_rate > lo.total_rate

    def test_deterministic_across_evaluators(self):
        sc = generate(SETTINGS["S2"], URBAN, seed=17)
        powers = {d: sc.true_power(d) for d in sc.drone_ids}
        grand = frozenset(sc.drone_ids)
        a = CoalitionEvaluator(sc).evaluate(grand, powers)
        b = CoalitionEvaluator(sc).evaluate(grand, powers)
        assert a.matching == b.matching
        assert a.per_drone_rate == b.per_drone_rate

    def test_independent_recomputation_two_drones(self):
        # end-to-end oracle: weights from scratch, brute-force matching,
        # analytic water level over the matched gains
        sc = generate(SETTINGS["S1"], URBAN, seed=18)
        ev = CoalitionEvaluator(sc)
        coalition = frozenset([0, 2])
        powers = {0: sc.true_power(0), 2: sc.true_power(2)}
        result = ev.evaluate(coalition, powers)

        channels, users = ev.coalition_members(coalition)
        w = np.array([[1.0 / to_linear(ev.mean_loss_db(d, u))
                       for u in users] for _, d in channels])
        best_val = _brute_force_matching_value(w)
        pairs = max_weight_matching(w)
        assert sum(w[r, c] for r, c in pairs) == pytest.approx(best_val)
        gains = np.array([ev.slope(channels[r][1], users[c])
                          for r, c in pairs])
        budget = powers[0] + powers[2]
        p, _ = waterfill(gains, budget)
        expected_total = float(np.sum(np.log2(1.0 + p * gains)))
        assert result.total_rate == pytest.approx(expected_total, rel=1e-9)

    def test_matching_independent_of_power(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=19)
        ev = CoalitionEvaluator(sc)
        a = ev.evaluate(frozenset([0, 1]), {0: 12.0, 1: 18.0})
        b = ev.evaluate(frozenset([0, 1]), {0: 1.0, 1: 2.0})
        assert a.matching == b.matching
