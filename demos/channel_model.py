"""Walk through the air-to-ground channel model.

Shows how the elevation angle drives the LoS probability, the Rician K
factor, and the mean path loss for each environment preset, then compares
the mean-mode loss against the average of sampled-mode draws on one link,
which add the paper's shadowing and small-scale fading to it.
"""

import math

import numpy as np

from dronecoal.propagation import (ENVIRONMENTS, Position3D, elevation_angle,
                                   free_space_loss_db, los_probability,
                                   path_loss, rate, rician_k, shadow_std)

drone = Position3D(0.0, 0.0, 1000.0)

print("=== LoS probability and Rician K vs elevation ===")
print(f"{'env':<16} {'theta_deg':>9} {'p_los':>7} {'K':>9}")
for name, env in ENVIRONMENTS.items():
    for deg in (20, 45, 90):
        theta = math.radians(deg)
        print(f"{name:<16} {deg:>9} {los_probability(theta, env):>7.3f} "
              f"{rician_k(theta, env):>9.2f}")

print()
print("=== mean path loss vs horizontal distance (urban) ===")
urban = ENVIRONMENTS["urban"]
print(f"{'dist_m':>7} {'theta_deg':>9} {'loss_dB':>8} {'rate@12W':>9}")
for dist in (0, 500, 1000, 2000, 4000):
    user = Position3D(float(dist), 0.0, 0.0)
    lb = path_loss(drone, user, urban)
    theta = math.degrees(elevation_angle(drone, user))
    r = rate(lb.mean_loss_db, 12.0, urban)
    print(f"{dist:>7} {theta:>9.1f} {lb.mean_loss_db:>8.2f} {r:>9.3f}")

print()
print("=== mean mode vs sampled mode on one link ===")


def rician_power(k, rng):
    """|h|^2 with h = sqrt(K/(K+1)) + CN(0, 1/(K+1)): unit mean power."""
    s = math.sqrt(k / (k + 1.0))
    scale = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    re = s + scale * rng.standard_normal()
    im = scale * rng.standard_normal()
    return re * re + im * im


def sampled_loss(lb, env, rng):
    """One sampled-mode loss of the link budget ``lb``: shadowing from the
    elevation-dependent normal law and the small-scale term from a
    unit-mean Rician (LoS) or Rayleigh (NLoS) power, averaged by the LoS
    probability as the mean mode averages its conditional losses."""
    fspl = free_space_loss_db(lb.distance_m, env)
    theta = lb.elevation_rad
    zeta_los = rng.normal(env.mu_los, shadow_std(theta, env, los=True))
    zeta_nlos = rng.normal(env.mu_nlos, shadow_std(theta, env, los=False))
    loss_los = fspl + zeta_los \
        + 10.0 * math.log10(rician_power(rician_k(theta, env), rng))
    loss_nlos = fspl + zeta_nlos + 10.0 * math.log10(rician_power(0.0, rng))
    return lb.p_los * loss_los + (1.0 - lb.p_los) * loss_nlos


user = Position3D(1500.0, 0.0, 0.0)
mean_lb = path_loss(drone, user, urban)
rng = np.random.default_rng(0)
draws = np.array([sampled_loss(mean_lb, urban, rng) for _ in range(5000)])
print(f"mean-mode loss:        {mean_lb.mean_loss_db:.2f} dB")
print(f"sampled-mode average:  {draws.mean():.2f} dB  "
      f"(std {draws.std():.2f} dB over 5000 draws)")
print("shadowing and small-scale fading average out near the mean-mode "
      "value; individual draws vary by tens of dB")
