import json
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from dronecoal import propagation
from dronecoal.allocation import CoalitionEvaluator
from dronecoal.propagation import ENVIRONMENTS, Position3D
from dronecoal.scenario import (DEFAULT_TYPE_SET, SETTINGS, DroneSpec,
                                Scenario, SimulationSetting, TypeSpec,
                                UserSpec, baseline_rates, generate,
                                kmeans_placement)

URBAN = ENVIRONMENTS["urban"]


class TestTypeSpec:
    def test_defaults(self):
        assert DEFAULT_TYPE_SET[0].mu == 12.0
        assert DEFAULT_TYPE_SET[0].sigma == 3.0
        assert DEFAULT_TYPE_SET[1].mu == 18.0
        assert DEFAULT_TYPE_SET[1].sigma == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TypeSpec(0, -1.0, 3.0)
        with pytest.raises(ValueError):
            TypeSpec(0, 12.0, 0.0)


class TestSettings:
    def test_table(self):
        assert (SETTINGS["S1"].d, SETTINGS["S1"].n, SETTINGS["S1"].q) == (3, 9, 9)
        assert (SETTINGS["S4"].d, SETTINGS["S4"].n, SETTINGS["S4"].q) == (6, 18, 18)
        for s in SETTINGS.values():
            assert s.users_per_drone == 3
            assert s.channels_per_drone == 3


class TestKmeans:
    def test_k_equals_n(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        centroids, assignment = kmeans_placement(pts, 3, seed=0)
        assert sorted(assignment.tolist()) == [0, 1, 2]
        recovered = centroids[assignment]
        assert np.allclose(recovered, pts)

    def test_k_one_is_mean(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 100, size=(20, 2))
        centroids, assignment = kmeans_placement(pts, 1, seed=0)
        assert np.allclose(centroids[0], pts.mean(axis=0))
        assert np.all(assignment == 0)

    def test_two_separated_triples(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                        [100.0, 100.0], [101.0, 100.0], [100.0, 101.0]])
        _, assignment = kmeans_placement(pts, 2, seed=0, capacity=3)
        assert len(set(assignment[:3])) == 1
        assert len(set(assignment[3:])) == 1
        assert assignment[0] != assignment[3]

    def test_centroids_are_cluster_means(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 4000, size=(30, 2))
        centroids, assignment = kmeans_placement(pts, 5, seed=1)
        for c in range(5):
            members = pts[assignment == c]
            assert len(members) > 0
            assert np.allclose(centroids[c], members.mean(axis=0))

    def test_capacity_respected(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            pts = rng.uniform(0, 4000, size=(12, 2))
            _, assignment = kmeans_placement(pts, 4, seed=seed, capacity=3)
            counts = np.bincount(assignment, minlength=4)
            assert np.all(counts == 3)

    def test_k_exceeds_n(self):
        with pytest.raises(ValueError):
            kmeans_placement(np.zeros((2, 2)), 3, seed=0)


class TestGenerate:
    def test_counts_and_structure(self):
        for name, setting in SETTINGS.items():
            sc = generate(setting, URBAN, seed=7)
            assert len(sc.drones) == setting.d
            assert len(sc.users) == setting.n
            channels = sorted(q for d in sc.drones for q in d.channels)
            assert channels == list(range(setting.q))
            for d in sc.drones:
                assert len(sc.baseline_users(d.id)) == setting.users_per_drone
                assert len(d.channels) == setting.channels_per_drone
                assert d.position.z == 1000.0
            for u in sc.users:
                assert u.position.z == 0.0
                assert 0.0 <= u.position.x <= 4000.0
                assert 0.0 <= u.position.y <= 4000.0

    def test_deterministic(self):
        a = generate(SETTINGS["S2"], URBAN, seed=11)
        b = generate(SETTINGS["S2"], URBAN, seed=11)
        assert a.to_dict() == b.to_dict()
        c = generate(SETTINGS["S2"], URBAN, seed=12)
        assert a.to_dict() != c.to_dict()

    def test_inconsistent_setting_rejected(self):
        bad = SimulationSetting("bad", 3, 9, 10, 3, 3)
        with pytest.raises(ValueError):
            generate(bad, URBAN, seed=0)

    def test_types_drawn_from_set(self):
        sc = generate(SETTINGS["S3"], URBAN, seed=2)
        ids = {t.id for t in sc.type_set}
        for d in sc.drones:
            assert d.true_type in ids


class TestScenarioValidation:
    def _mini(self, **overrides):
        kw = dict(
            drones=(DroneSpec(0, Position3D(0, 0, 1000), (0,), 0),
                    DroneSpec(1, Position3D(100, 0, 1000), (1,), 1)),
            users=(UserSpec(0, Position3D(0, 0, 0), 0),
                   UserSpec(1, Position3D(100, 0, 0), 1)),
            type_set=DEFAULT_TYPE_SET,
            env=URBAN, area_m=4000.0, seed=0)
        kw.update(overrides)
        return Scenario(**kw)

    def test_valid(self):
        sc = self._mini()
        assert sc.drone_ids == (0, 1)
        assert sc.true_power(0) == 12.0
        assert sc.true_power(1) == 18.0

    def test_duplicate_channels_rejected(self):
        with pytest.raises(ValueError):
            self._mini(drones=(
                DroneSpec(0, Position3D(0, 0, 1000), (0,), 0),
                DroneSpec(1, Position3D(100, 0, 1000), (0,), 1)))

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            self._mini(drones=(
                DroneSpec(0, Position3D(0, 0, 1000), (0,), 9),
                DroneSpec(1, Position3D(100, 0, 1000), (1,), 1)))

    def test_over_capacity_rejected(self):
        with pytest.raises(ValueError):
            self._mini(users=(UserSpec(0, Position3D(0, 0, 0), 0),
                              UserSpec(1, Position3D(1, 0, 0), 0)))

    def test_save_load_round_trip(self, tmp_path):
        sc = generate(SETTINGS["S1"], URBAN, seed=9)
        path = tmp_path / "scenario.json"
        sc.save(path)
        restored = Scenario.load(path)
        assert restored.to_dict() == sc.to_dict()
        # file is valid JSON with the documented top-level keys
        with open(path) as f:
            raw = json.load(f)
        assert set(raw) == {"area_m", "seed", "env", "type_set",
                            "drones", "users"}

    def test_drone_lookup_keeps_field_equality(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=9)
        fresh = Scenario.from_dict(sc.to_dict())
        for d in sc.drones:
            assert sc.drone(d.id) is d
        with pytest.raises(KeyError):
            sc.drone(99)
        # the cached id index is not a field: equality and hashing still
        # compare the fields only
        assert sc == fresh
        assert hash(sc) == hash(fresh)


def _independent_baseline(scenario):
    """Recompute baseline rates from first principles: per-drone inverse
    linear loss weights, scipy matching, bisection water-filling."""
    rates = {}
    for d in scenario.drones:
        users = scenario.baseline_users(d.id)
        w = np.array([[1.0 / 10 ** (propagation.path_loss(
            d.position, next(u for u in scenario.users if u.id == uid).position,
            scenario.env).mean_loss_db / 10.0) for uid in users]
            for _ in d.channels])
        rows, cols = linear_sum_assignment(w, maximize=True)
        served = [users[c] for c in cols]
        gains = np.array([propagation.sinr_slope(propagation.path_loss(
            d.position,
            next(u for u in scenario.users if u.id == uid).position,
            scenario.env).mean_loss_db, scenario.env) for uid in served])
        budget = scenario.true_power(d.id)
        # bisection on the water level
        lo, hi = 0.0, budget + (1.0 / gains).max()
        for _ in range(200):
            mid = (lo + hi) / 2
            spend = np.maximum(mid - 1.0 / gains, 0.0).sum()
            if spend > budget:
                hi = mid
            else:
                lo = mid
        powers = np.maximum(lo - 1.0 / gains, 0.0)
        rates[d.id] = float(np.sum(np.log2(1.0 + powers * gains)))
    return rates


class TestBaselineRates:
    def test_matches_independent_recomputation(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=13)
        got = baseline_rates(sc, CoalitionEvaluator(sc))
        expected = _independent_baseline(sc)
        for d in sc.drone_ids:
            assert got[d] == pytest.approx(expected[d], rel=1e-6)
            assert got[d] > 0.0

    def test_vanishing_power_gives_vanishing_rates(self):
        tiny = (TypeSpec(0, 1e-12, 1.0),)
        sc = generate(SETTINGS["S1"], URBAN, type_set=tiny, seed=1)
        rates = baseline_rates(sc, CoalitionEvaluator(sc))
        assert all(abs(r) < 1e-9 for r in rates.values())

    def test_deterministic(self):
        sc = generate(SETTINGS["S2"], URBAN, seed=21)
        assert baseline_rates(sc, CoalitionEvaluator(sc)) == \
            baseline_rates(sc, CoalitionEvaluator(sc))
