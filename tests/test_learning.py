import math

import numpy as np
import pytest

from dronecoal.learning import (ObservationLog, frobenius_convergence,
                                update_beliefs)
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, TypeSpec, generate
from oracles import (classify, kl_gaussian, mle_gaussian, prob, share,
                     true_spec)

URBAN = ENVIRONMENTS["urban"]
TYPES = (TypeSpec(0, 12.0, 3.0), TypeSpec(1, 18.0, 3.0))


class TestMleGaussian:
    def test_three_samples(self):
        mu, sigma2 = mle_gaussian([1.0, 2.0, 3.0])
        assert mu == pytest.approx(2.0)
        assert sigma2 == pytest.approx(2.0 / 3.0)   # biased 1/N variance

    def test_single_sample(self):
        mu, sigma2 = mle_gaussian([5.0])
        assert mu == 5.0
        assert sigma2 == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mle_gaussian([])

    def test_consistency(self):
        rng = np.random.default_rng(20)
        samples = rng.normal(12.0, 3.0, size=100_000)
        mu, sigma2 = mle_gaussian(samples)
        assert mu == pytest.approx(12.0, abs=0.05)
        assert math.sqrt(sigma2) == pytest.approx(3.0, abs=0.05)


class TestKlGaussian:
    def test_identical_is_zero(self):
        assert kl_gaussian((12.0, 3.0), (12.0, 3.0)) == 0.0

    def test_default_type_pair(self):
        # equal stds: KL reduces to (mu1-mu2)^2 / (2 sigma^2) = 36/18
        assert kl_gaussian((12.0, 3.0), (18.0, 3.0)) == pytest.approx(2.0)
        assert kl_gaussian((18.0, 3.0), (12.0, 3.0)) == pytest.approx(2.0)

    def test_asymmetry(self):
        a = kl_gaussian((0.0, 1.0), (0.0, 2.0))
        b = kl_gaussian((0.0, 2.0), (0.0, 1.0))
        assert a == pytest.approx(math.log(2.0) + 1.0 / 8.0 - 0.5)
        assert b == pytest.approx(-math.log(2.0) + 4.0 / 2.0 - 0.5)
        assert a != b

    def test_non_negative(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = (float(rng.normal(0, 10)), float(rng.uniform(0.1, 5)))
            q = (float(rng.normal(0, 10)), float(rng.uniform(0.1, 5)))
            assert kl_gaussian(p, q) >= -1e-12

    def test_invalid_std(self):
        with pytest.raises(ValueError):
            kl_gaussian((0.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            kl_gaussian((0.0, 1.0), (0.0, 0.0))


class TestClassify:
    def test_near_first_type(self):
        # KL to (12,3): ln(3/3) + (9+8.41)/18 - 0.5 = 0.4672...
        # KL to (18,3): ln(3/3) + (9+9.61)/18 - 0.5 = 0.5339...
        assert classify((14.9, 9.0), TYPES) == 0

    def test_near_second_type(self):
        assert classify((17.5, 9.0), TYPES) == 1

    def test_midpoint_tie_goes_to_lowest_id(self):
        assert classify((15.0, 9.0), TYPES) == 0

    def test_degenerate_variance_reduces_to_nearest_mean(self):
        assert classify((12.2, 0.0), TYPES) == 0
        assert classify((17.8, 0.0), TYPES) == 1

    def test_empty_type_set(self):
        with pytest.raises(ValueError):
            classify((12.0, 9.0), ())

    def test_misclassification_rare_with_enough_samples(self):
        rng = np.random.default_rng(22)
        wrong = 0
        trials = 1000
        for _ in range(trials):
            samples = rng.normal(12.0, 3.0, size=30)
            if classify(mle_gaussian(samples), TYPES) != 0:
                wrong += 1
        assert wrong / trials < 0.05


S1 = generate(SETTINGS["S1"], URBAN, type_set=TYPES, seed=30)


class TestObservationLog:
    def test_self_observation_rejected(self):
        log = ObservationLog(S1, 1)
        counts = log.counts.copy()
        with pytest.raises(ValueError):
            share(log, {0: 12.0, 1: 13.0}, [(0, 0), (0, 1)])
        assert (log.counts == counts).all() and not log.samples

    def test_pairs_independent(self):
        log = ObservationLog(S1, 1)
        share(log, {0: 18.0, 1: 12.0}, [(0, 1), (1, 0)])
        share(log, {0: 19.0, 1: 13.0}, [(0, 1)])
        assert log.samples == {(0, 0, 1): [12.0, 13.0], (0, 1, 0): [18.0]}
        # one event per sample, and each drone's own type on the diagonal
        assert (log.counts[0].sum(axis=2) - np.eye(3)).tolist() == \
            log.sums[0, 0].tolist() == [[0, 2, 0], [1, 0, 0], [0, 0, 0]]
        assert log.sums[:, 0, 0, 1].tolist() == [2.0, 25.0, 313.0]
        assert log.sums[:, 0, 1, 0].tolist() == [1.0, 18.0, 324.0]


class TestUpdateBeliefs:
    def _scenario(self, seed=30):
        return generate(SETTINGS["S1"], URBAN, type_set=TYPES, seed=seed)

    def test_empty_log_keeps_uniform(self):
        sc = self._scenario()
        log = ObservationLog(sc, 1)
        [beliefs], [prediction] = update_beliefs(log)
        for i in sc.drone_ids:
            for j in sc.drone_ids:
                if i != j:
                    assert prob(beliefs, i, j, 0) == pytest.approx(0.5)
                    assert prediction[i, j] == 0

    def test_hand_counted_frequencies(self):
        # prefix classifications of [12, 12, 30]:
        #  after 1 sample: mean 12 -> type 0
        #  after 2 samples: mean 12 -> type 0
        #  after 3 samples: mean 18, var 72 -> KL favors type 1
        sc = self._scenario()
        log = ObservationLog(sc, 1)
        for v in [12.0, 12.0, 30.0]:
            share(log, {1: v}, [(0, 1)])
        [beliefs], [prediction] = update_beliefs(log)
        assert prob(beliefs, 0, 1, 0) == pytest.approx(2.0 / 3.0)
        assert prob(beliefs, 0, 1, 1) == pytest.approx(1.0 / 3.0)
        assert prediction[0, 1] == 0
        assert beliefs.table[0, 1].tolist() == [2.0 / 3.0, 1.0 / 3.0]

    def test_unanimous_observations(self):
        sc = self._scenario()
        log = ObservationLog(sc, 1)
        for r in range(5):
            share(log, {1: 18.0 + 0.1 * r}, [(0, 1)])
        [beliefs], [prediction] = update_beliefs(log)
        assert prob(beliefs, 0, 1, 1) == pytest.approx(1.0)
        assert prediction[0, 1] == 1

    def test_simplex_invariant(self):
        sc = self._scenario()
        rng = np.random.default_rng(23)
        log = ObservationLog(sc, 1)
        ids = sc.drone_ids
        for _ in range(20):
            share(log, dict(zip(ids, rng.normal(15, 5, size=len(ids)))),
                  [(i, j) for i in ids for j in ids if i != j])
        [beliefs], _ = update_beliefs(log)
        assert np.allclose(beliefs.table.sum(axis=2), 1.0)
        assert np.all(beliefs.table >= 0.0)

    def test_beliefs_follow_the_scenario_type_order(self):
        # a type set listed out of id order: the scenario sorts it, so the
        # belief table's type axis and the classification follow the ids
        types = (TypeSpec(1, 18.0, 3.0), TypeSpec(0, 12.0, 3.0))
        sc = generate(SETTINGS["S1"], URBAN, type_set=types, seed=30)
        assert sc.type_set == types[::-1]
        log = ObservationLog(sc, 1)
        for _ in range(5):
            share(log, {1: 12.0}, [(0, 1)])
        [beliefs], [prediction] = update_beliefs(log)
        assert prediction[0, 1] == 0
        assert prob(beliefs, 0, 1, 0) == 1.0
        assert prob(beliefs, 0, 1, 1) == 0.0

    def test_true_types_learned_from_sampled_powers(self):
        sc = self._scenario(seed=31)
        rng = np.random.default_rng(24)
        log = ObservationLog(sc, 1)
        ids = sc.drone_ids
        for _ in range(40):
            draws = {}
            for j in ids:
                t = true_spec(sc, j)
                draws[j] = max(0.0, float(rng.normal(t.mu, t.sigma)))
            share(log, draws, [(i, j) for i in ids for j in ids if i != j])
        _, [prediction] = update_beliefs(log)
        truth = [true_spec(sc, j).id for j in ids]
        assert prediction.tolist() == [truth] * len(ids)


class TestFrobeniusConvergence:
    def _scenario(self):
        return generate(SETTINGS["S1"], URBAN, type_set=TYPES, seed=32)

    def _prediction(self, sc, overrides=None):
        # S1 lists drones 0..2 in id order, so ids are positions
        prediction = np.array([[true_spec(sc, j).id for j in sc.drone_ids]
                               for _ in sc.drone_ids])
        for (i, j), t in (overrides or {}).items():
            prediction[i, j] = t
        return prediction

    def test_all_correct_is_zero(self):
        sc = self._scenario()
        norms, mean = frobenius_convergence(self._prediction(sc), sc)
        assert np.all(norms == 0.0)
        assert mean == 0.0

    def test_single_error(self):
        # one wrong cross-prediction flips one entry in each of the two
        # type-indicator matrices: norm 1 per type, mean 1
        sc = self._scenario()
        wrong = 1 - true_spec(sc, 1).id
        prediction = self._prediction(sc, {(0, 1): wrong})
        norms, mean = frobenius_convergence(prediction, sc)
        assert np.allclose(norms, 1.0)
        assert mean == pytest.approx(1.0)

    def test_two_errors(self):
        sc = self._scenario()
        prediction = self._prediction(sc, {
            (0, 1): 1 - true_spec(sc, 1).id,
            (2, 0): 1 - true_spec(sc, 0).id})
        norms, mean = frobenius_convergence(prediction, sc)
        assert np.allclose(norms, math.sqrt(2.0))
        assert mean == pytest.approx(math.sqrt(2.0))

    def test_zero_iff_all_correct(self):
        sc = self._scenario()
        rng = np.random.default_rng(25)
        for _ in range(20):
            overrides = {}
            for i in sc.drone_ids:
                for j in sc.drone_ids:
                    if i != j and rng.random() < 0.3:
                        overrides[(i, j)] = int(rng.integers(2))
            prediction = self._prediction(sc, overrides)
            wrong = any(prediction[i, j] != true_spec(sc, j).id
                        for i in sc.drone_ids for j in sc.drone_ids
                        if i != j)
            _, mean = frobenius_convergence(prediction, sc)
            assert (mean > 0.0) == wrong
