import json
import math

import numpy as np
import pytest

from dronecoal.propagation import (ENVIRONMENTS, Environment, Position3D,
                                   elevation_angle, free_space_loss_db,
                                   los_probability, path_loss, rate,
                                   rician_k, shadow_std, sinr_slope,
                                   to_linear)

URBAN = ENVIRONMENTS["urban"]


class TestElevationAngle:
    def test_directly_below(self):
        assert elevation_angle(Position3D(0, 0, 1000),
                               Position3D(0, 0, 0)) == pytest.approx(math.pi / 2)

    def test_45_degrees(self):
        assert elevation_angle(Position3D(0, 0, 1000),
                               Position3D(1000, 0, 0)) == pytest.approx(math.pi / 4)

    def test_oblique(self):
        # arcsin(1000 / sqrt(3000^2 + 4000^2 + 1000^2))
        theta = elevation_angle(Position3D(0, 0, 1000),
                                Position3D(3000, 4000, 0))
        assert theta == pytest.approx(0.19740, abs=1e-5)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            elevation_angle(Position3D(0, 0, 0), Position3D(0, 0, 0))


class TestLosProbability:
    def test_zero_at_minimum_angle(self):
        for env in ENVIRONMENTS.values():
            theta = math.radians(env.theta_min_deg)
            assert los_probability(theta, env) == 0.0

    def test_urban_zenith(self):
        assert los_probability(math.pi / 2, URBAN) == \
            pytest.approx(0.6 * 75 ** 0.11, rel=1e-12)
        assert los_probability(math.pi / 2, URBAN) == pytest.approx(0.96473, abs=5e-5)

    def test_high_rise_zenith(self):
        p = los_probability(math.pi / 2, ENVIRONMENTS["high_rise_urban"])
        assert p == pytest.approx(0.696, abs=5e-4)

    def test_clamped_to_unit_interval(self):
        for env in ENVIRONMENTS.values():
            for theta in np.linspace(1e-6, math.pi / 2, 200):
                p = los_probability(float(theta), env)
                assert 0.0 <= p <= 1.0


class TestShadowStd:
    def test_low_elevation_limits(self):
        assert shadow_std(1e-12, URBAN, los=True) == pytest.approx(10.39)
        assert shadow_std(1e-12, URBAN, los=False) == pytest.approx(29.06)

    def test_urban_los_zenith(self):
        expected = 10.39 * math.exp(-0.05 * math.pi / 2)
        assert shadow_std(math.pi / 2, URBAN, los=True) == \
            pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(9.606, abs=1e-3)


class TestRicianK:
    def test_anchors(self):
        assert rician_k(0.0, URBAN) == pytest.approx(10 ** 0.3, rel=1e-12)
        assert rician_k(math.pi / 2, URBAN) == pytest.approx(1000.0, rel=1e-12)

    def test_geometric_midpoint(self):
        a = 10 ** 0.3
        assert rician_k(math.pi / 4, URBAN) == \
            pytest.approx(math.sqrt(a * 1000.0), rel=1e-12)
        assert rician_k(math.pi / 4, URBAN) == pytest.approx(44.67, abs=5e-3)


class TestPathLoss:
    def test_free_space_term(self):
        assert free_space_loss_db(1000.0, URBAN) == pytest.approx(98.46, abs=5e-3)

    def test_urban_mean_overhead(self):
        lb = path_loss(Position3D(0, 0, 1000), Position3D(0, 0, 0), URBAN)
        p = los_probability(math.pi / 2, URBAN)
        expected = 98.4624 + p * 1.0 + (1 - p) * 20.0
        assert lb.mean_loss_db == pytest.approx(expected, abs=1e-3)
        assert lb.mean_loss_db == pytest.approx(100.13, abs=5e-3)

    def test_mean_between_conditionals(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            user = Position3D(*rng.uniform(0, 4000, 2), 0.0)
            drone = Position3D(*rng.uniform(0, 4000, 2), 1000.0)
            lb = path_loss(drone, user, URBAN)
            lo = min(lb.loss_los_db, lb.loss_nlos_db)
            hi = max(lb.loss_los_db, lb.loss_nlos_db)
            assert lo <= lb.mean_loss_db <= hi
            assert 0.0 <= lb.p_los <= 1.0

    def test_monotone_in_horizontal_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = np.sort(rng.uniform(1.0, 6000.0, 10))
            losses = [path_loss(Position3D(0, 0, 1000),
                                Position3D(float(x), 0, 0),
                                URBAN).mean_loss_db for x in r]
            assert all(b >= a - 1e-9 for a, b in zip(losses, losses[1:]))


class TestRate:
    def test_zero_power(self):
        assert rate(100.0, 0.0, URBAN) == 0.0

    def test_linear_sinr_chain(self):
        # L=100 dB, p=1 W, G=10 dB, N0+I0=-70 dBm/Hz, Bw=1 Hz:
        # noise = 1e-10 W, SINR = 10 / (1e10 * 1e-10) = 10
        assert sinr_slope(100.0, URBAN) == pytest.approx(10.0, rel=1e-12)
        assert rate(100.0, 1.0, URBAN) == pytest.approx(math.log2(11.0), rel=1e-12)

    def test_sinr_linear_in_power(self):
        g = sinr_slope(105.0, URBAN)
        assert 2.0 * g == pytest.approx(sinr_slope(105.0, URBAN) * 2.0)
        r1 = rate(105.0, 1.0, URBAN)
        r2 = rate(105.0, 2.0, URBAN)
        assert 2 ** r2 - 1 == pytest.approx(2 * (2 ** r1 - 1), rel=1e-9)

    def test_increasing_and_concave_in_power(self):
        powers = np.linspace(0.1, 20.0, 200)
        rates = np.array([rate(102.0, float(p), URBAN) for p in powers])
        d1 = np.diff(rates)
        d2 = np.diff(d1)
        assert np.all(d1 > 0)
        assert np.all(d2 < 1e-9 * np.abs(rates[:-2]).max())


class TestDbConversions:
    def test_round_trip(self):
        # 10 * exp dB is the linear ratio 10 ** exp
        for exp in range(-12, 13):
            assert to_linear(10.0 * exp) == pytest.approx(10.0 ** exp,
                                                          rel=1e-12)


class TestEnvironmentPresets:
    def test_table_values(self):
        u = ENVIRONMENTS["urban"]
        assert (u.alpha, u.gamma) == (0.6, 0.11)
        assert (u.k1, u.k2) == (10.39, 0.05)
        assert (u.g1, u.g2) == (29.06, 0.03)
        assert (u.mu_los, u.mu_nlos) == (1.0, 20.0)
        h = ENVIRONMENTS["high_rise_urban"]
        assert (h.alpha, h.gamma) == (0.05, 0.61)
        assert (h.mu_los, h.mu_nlos) == (2.3, 34.0)

    def test_bit_exact_json_round_trip(self):
        for env in ENVIRONMENTS.values():
            restored = Environment.from_dict(
                json.loads(json.dumps(env.to_dict())))
            assert restored == env

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Environment.from_dict({**URBAN.to_dict(), "alpha": -1.0})
