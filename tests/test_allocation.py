import itertools
import math

import numpy as np
import pytest

from dronecoal.allocation import (CoalitionEvaluator, max_weight_matching,
                                  waterfill)
from dronecoal.propagation import (ENVIRONMENTS, path_loss, sinr_slope,
                                   to_linear)
from dronecoal.scenario import SETTINGS, baseline_rates, generate
from oracles import baseline_users, drone, true_spec

URBAN = ENVIRONMENTS["urban"]


def _mean_loss_db(sc, drone_id, user_id):
    """A pair's mean path loss, straight from the propagation model."""
    user = next(u for u in sc.users if u.id == user_id)
    return path_loss(drone(sc, drone_id).position, user.position,
                     sc.env).mean_loss_db


def _table_index(sc, drone_id, user_id):
    """The pair's (row, column) in the evaluator's link table."""
    return (sc.drone_ids.index(drone_id),
            [u.id for u in sc.users].index(user_id))


def _reference_links(sc, ev, members):
    """The matched links of the coalition of drone ids ``members``, from
    ``max_weight_matching`` over the link table's weights: the sorted
    (channel, owner id) rows, the sorted user ids, the weight matrix, and
    each matched link's owner position and SINR slope in channel order."""
    channels = sorted((q, d) for d in members
                      for q in drone(sc, d).channels)
    users = sorted(u for d in members for u in baseline_users(sc, d))
    w = np.array([[ev.weights[_table_index(sc, d, u)] for u in users]
                  for _, d in channels])
    pairs = max_weight_matching(w)
    owners = [sc.drone_ids.index(channels[r][1]) for r, _ in pairs]
    slopes = [ev.slopes[_table_index(sc, channels[r][1], users[c])]
              for r, c in pairs]
    return channels, users, w, owners, slopes


def _mask(sc, members) -> int:
    """The coalition bitmask of the drone ids ``members``."""
    return sum(1 << sc.drone_ids.index(d) for d in members)


def _links(ev, mask):
    """The evaluator's cached links of ``mask``: each link's owner
    position and SINR slope, in channel order."""
    _, owners, slopes = ev._matched(mask)
    return owners, slopes.tolist()


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
        assert ev.weights.shape == (3, 9)
        for u in baseline_users(sc, 0):
            expected = 1.0 / to_linear(_mean_loss_db(sc, 0, u))
            assert ev.weights[_table_index(sc, 0, u)] == \
                pytest.approx(expected)

    def test_rows_identical_per_drone(self):
        # a coalition's channel x user matrix repeats its owner's table row
        # for each of the owner's channels; the matching reads that matrix
        sc = generate(SETTINGS["S1"], URBAN, seed=14)
        ev = CoalitionEvaluator(sc)
        channels, _, w, owners, slopes = _reference_links(sc, ev, [0, 1])
        for i in range(1, len(channels)):
            if channels[i][1] == channels[i - 1][1]:
                assert np.array_equal(w[i], w[i - 1])
        assert _links(ev, _mask(sc, [0, 1])) == (owners, slopes)

    def test_empty_coalition_rejected(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=14)
        with pytest.raises(ValueError):
            CoalitionEvaluator(sc).evaluate_budgets(0, [12.0])
        with pytest.raises(ValueError):
            CoalitionEvaluator(sc).evaluate(0, [])

    def test_table_is_propagation_bit_for_bit(self):
        sc = generate(SETTINGS["S2"], URBAN, seed=20)
        ev = CoalitionEvaluator(sc)
        assert ev.weights.shape == ev.slopes.shape == (4, 12)
        for d in sc.drone_ids:
            for u in sc.users:
                loss = _mean_loss_db(sc, d, u.id)
                ij = _table_index(sc, d, u.id)
                assert ev.weights[ij] == 1.0 / to_linear(loss)
                assert ev.slopes[ij] == sinr_slope(loss, sc.env)


class TestEvaluateCoalition:
    def test_singleton_matches_baseline(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=15)
        base = baseline_rates(CoalitionEvaluator(sc))
        for i, d in enumerate(sc.drone_ids):
            rates = CoalitionEvaluator(sc).evaluate(1 << i,
                                                    [true_spec(sc, d).mu])
            assert rates == {i: pytest.approx(base[d])}

    def test_missing_power_rejected(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=15)
        with pytest.raises(ValueError):
            CoalitionEvaluator(sc).evaluate(0b11, [12.0])
        with pytest.raises(ValueError):
            CoalitionEvaluator(sc).evaluate(0b11, [12.0, 12.0, 12.0])

    def test_mask_outside_the_drones_rejected(self):
        # S1 has three drones: bits 0-2 are the only coalition members
        sc = generate(SETTINGS["S1"], URBAN, seed=15)
        ev = CoalitionEvaluator(sc)
        with pytest.raises(ValueError):
            ev.evaluate(0, [])
        for mask in (1 << 3, 0b1001, 1 << 10):
            with pytest.raises(ValueError):
                ev.evaluate(mask, [12.0] * mask.bit_count())
        assert not ev._results and not ev._matchings

    def test_total_rate_is_sum(self):
        # the member rates add up to the rate of the water-filled matched
        # links, which spend at most the pooled budget
        sc = generate(SETTINGS["S1"], URBAN, seed=15)
        ev = CoalitionEvaluator(sc)
        powers = [true_spec(sc, d).mu for d in sc.drone_ids]
        rates = ev.evaluate(0b111, powers)
        assert set(rates) == {0, 1, 2}
        _, _, _, owners, slopes = _reference_links(sc, ev, [0, 1, 2])
        assert len(owners) == 9
        assert _links(ev, 0b111) == (owners, slopes)
        gains = np.array(slopes)
        p, _ = waterfill(gains, math.fsum(powers))
        assert math.fsum(p) <= math.fsum(powers) + 1e-9
        total = sc.env.bandwidth_hz * math.fsum(np.log2(1.0 + p * gains))
        assert math.fsum(rates.values()) == pytest.approx(total)

    def test_monotone_in_budget(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=16)
        ev = CoalitionEvaluator(sc)
        lo = ev.evaluate(0b11, [6.0, 6.0])
        hi = ev.evaluate(0b11, [12.0, 12.0])
        assert math.fsum(hi.values()) > math.fsum(lo.values())

    def test_deterministic_across_evaluators(self):
        sc = generate(SETTINGS["S2"], URBAN, seed=17)
        powers = [true_spec(sc, d).mu for d in sc.drone_ids]
        grand = _mask(sc, sc.drone_ids)
        a, b = CoalitionEvaluator(sc), CoalitionEvaluator(sc)
        rates_a = a.evaluate(grand, powers)
        # the powers pool into one budget, so their order does not matter
        rates_b = b.evaluate(grand, powers[::-1])
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.slopes, b.slopes)
        assert _links(a, grand) == _links(b, grand)
        assert list(rates_a.items()) == list(rates_b.items())

    def test_independent_recomputation_two_drones(self):
        # end-to-end oracle: weights from scratch, brute-force matching,
        # analytic water level over the matched gains
        sc = generate(SETTINGS["S1"], URBAN, seed=18)
        ev = CoalitionEvaluator(sc)
        coalition = frozenset([0, 2])
        powers = {0: true_spec(sc, 0).mu, 2: true_spec(sc, 2).mu}
        rates = ev.evaluate(_mask(sc, coalition), list(powers.values()))

        channels = sorted((q, d) for d in coalition
                          for q in drone(sc, d).channels)
        users = sorted(u for d in coalition for u in baseline_users(sc, d))
        w = np.array([[1.0 / to_linear(_mean_loss_db(sc, d, u))
                       for u in users] for _, d in channels])
        best_val = _brute_force_matching_value(w)
        pairs = max_weight_matching(w)
        assert sum(w[r, c] for r, c in pairs) == pytest.approx(best_val)
        gains = np.array([sinr_slope(_mean_loss_db(sc, channels[r][1],
                                                   users[c]), sc.env)
                          for r, c in pairs])
        budget = powers[0] + powers[2]
        p, _ = waterfill(gains, budget)
        expected_total = float(np.sum(np.log2(1.0 + p * gains)))
        assert math.fsum(rates.values()) == \
            pytest.approx(expected_total, rel=1e-9)

    def test_matching_independent_of_power(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=19)
        a, b = CoalitionEvaluator(sc), CoalitionEvaluator(sc)
        a.evaluate(0b11, [12.0, 18.0])
        b.evaluate(0b11, [1.0, 2.0])
        assert _links(a, 0b11) == _links(b, 0b11)
