"""Air-to-ground link quality for drone base stations.

Elevation-dependent path loss (free-space term plus LoS/NLoS excess loss),
line-of-sight probability, shadowing statistics, Rician K factor, SINR and
Shannon rate.  The mean-path-loss mode averages the conditional LoS/NLoS
losses by the LoS probability and is the default for all payoff
computations; the sampled mode draws shadowing and small-scale fading and
exists for channel-model validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s


def to_linear(x_db: float) -> float:
    """dB -> linear power ratio."""
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class Environment:
    """Propagation environment parameters.

    alpha/gamma shape the LoS probability, (k1, k2) and (g1, g2) the
    elevation-dependent shadowing std for LoS and NLoS links, mu_los and
    mu_nlos the mean excess losses (dB).  k0_db and k_half_pi_db pin the
    Rician K factor at elevation 0 and pi/2.
    """

    name: str
    alpha: float
    gamma: float
    k1: float          # dB
    k2: float          # 1/rad
    g1: float          # dB
    g2: float          # 1/rad
    mu_los: float      # dB
    mu_nlos: float     # dB
    k0_db: float       # dB
    k_half_pi_db: float  # dB
    theta_min_deg: float  # degrees
    carrier_hz: float
    noise_plus_interference_dbm_per_hz: float
    antenna_gain_db: float
    bandwidth_hz: float

    def __post_init__(self):
        if self.alpha <= 0 or self.gamma <= 0:
            raise ValueError("alpha and gamma must be positive")
        if self.k1 <= 0 or self.g1 <= 0:
            raise ValueError("k1 and g1 must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Environment":
        return cls(**d)


# Shared radio parameters: 2 GHz carrier, -70 dBm/Hz noise+interference,
# 10 dB antenna gain, 1 Hz channel bandwidth, 15 degree minimum elevation,
# Rician K anchors 3 dB / 30 dB.
_COMMON = dict(
    k0_db=3.0,
    k_half_pi_db=30.0,
    theta_min_deg=15.0,
    carrier_hz=2.0e9,
    noise_plus_interference_dbm_per_hz=-70.0,
    antenna_gain_db=10.0,
    bandwidth_hz=1.0,
)

ENVIRONMENTS = {
    "urban": Environment(
        name="urban", alpha=0.6, gamma=0.11, k1=10.39, k2=0.05,
        g1=29.06, g2=0.03, mu_los=1.0, mu_nlos=20.0, **_COMMON),
    "dense_urban": Environment(
        name="dense_urban", alpha=0.36, gamma=0.21, k1=8.96, k2=0.04,
        g1=35.97, g2=0.04, mu_los=1.6, mu_nlos=23.0, **_COMMON),
    "high_rise_urban": Environment(
        name="high_rise_urban", alpha=0.05, gamma=0.61, k1=7.37, k2=0.03,
        g1=37.08, g2=0.03, mu_los=2.3, mu_nlos=34.0, **_COMMON),
}


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if self.z < 0:
            raise ValueError("altitude must be non-negative")


@dataclass(frozen=True)
class LinkBudget:
    distance_m: float
    elevation_rad: float
    p_los: float
    loss_los_db: float
    loss_nlos_db: float
    mean_loss_db: float


def distance(drone: Position3D, user: Position3D) -> float:
    return math.sqrt((drone.x - user.x) ** 2
                     + (drone.y - user.y) ** 2
                     + (drone.z - user.z) ** 2)


def elevation_angle(drone: Position3D, user: Position3D) -> float:
    """Elevation angle arcsin(h / d) in (0, pi/2], seen from the user."""
    if drone.z <= 0:
        raise ValueError("drone altitude must be positive")
    d = distance(drone, user)
    if d == 0:
        raise ValueError("drone and user positions coincide")
    return math.asin(drone.z / d)


def los_probability(theta: float, env: Environment) -> float:
    """Probability of a line-of-sight link at elevation theta (radians).

    The power-law base is clamped below at 0 and the result above at 1 so
    the value is always a probability.
    """
    base = math.degrees(theta) - env.theta_min_deg
    if base <= 0:
        return 0.0
    return min(1.0, env.alpha * base ** env.gamma)


def shadow_std(theta: float, env: Environment, los: bool) -> float:
    """Shadowing standard deviation (dB) at elevation theta (radians)."""
    if los:
        return env.k1 * math.exp(-env.k2 * theta)
    return env.g1 * math.exp(-env.g2 * theta)


def rician_k(theta: float, env: Environment) -> float:
    """Rician K factor (linear ratio) at elevation theta (radians).

    K(theta) = a * exp(b * theta) with a anchored at theta=0 and the
    exponent chosen so K(pi/2) matches the high-elevation anchor.
    """
    a = to_linear(env.k0_db)
    k_half_pi = to_linear(env.k_half_pi_db)
    b = (2.0 / math.pi) * math.log(k_half_pi / a)
    return a * math.exp(b * theta)


def free_space_loss_db(distance_m: float, env: Environment) -> float:
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    return 20.0 * math.log10(
        4.0 * math.pi * env.carrier_hz * distance_m / SPEED_OF_LIGHT)


def _sample_rician_power(k: float, rng: np.random.Generator) -> float:
    # |h|^2 with h = sqrt(K/(K+1)) + CN(0, 1/(K+1)); unit mean power.
    s = math.sqrt(k / (k + 1.0))
    scale = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    re = s + scale * rng.standard_normal()
    im = scale * rng.standard_normal()
    return re * re + im * im


def path_loss(drone: Position3D, user: Position3D, env: Environment,
              mode: str = "mean",
              rng: np.random.Generator | None = None) -> LinkBudget:
    """Link budget between a drone and a user.

    mode="mean": conditional losses use the mean excess loss and a 0 dB
    small-scale term; the reported mean loss averages them by the LoS
    probability.  mode="sampled": shadowing is drawn from the
    elevation-dependent normal law and the small-scale term from a
    unit-mean Rician (LoS) or Rayleigh (NLoS) power distribution.
    """
    d = distance(drone, user)
    if d == 0:
        raise ValueError("drone and user positions coincide")
    theta = elevation_angle(drone, user)
    p_los = los_probability(theta, env)
    fspl = free_space_loss_db(d, env)

    if mode == "mean":
        loss_los = fspl + env.mu_los
        loss_nlos = fspl + env.mu_nlos
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode requires an rng")
        zeta_los = rng.normal(env.mu_los, shadow_std(theta, env, los=True))
        zeta_nlos = rng.normal(env.mu_nlos, shadow_std(theta, env, los=False))
        omega_los = _sample_rician_power(rician_k(theta, env), rng)
        omega_nlos = _sample_rician_power(0.0, rng)
        loss_los = fspl + zeta_los + 10.0 * math.log10(omega_los)
        loss_nlos = fspl + zeta_nlos + 10.0 * math.log10(omega_nlos)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    mean_loss = p_los * loss_los + (1.0 - p_los) * loss_nlos
    return LinkBudget(distance_m=d, elevation_rad=theta, p_los=p_los,
                      loss_los_db=loss_los, loss_nlos_db=loss_nlos,
                      mean_loss_db=mean_loss)


def sinr_slope(mean_loss_db: float, env: Environment) -> float:
    """Linear SINR per Watt: SINR = p * sinr_slope(loss).

    All dB quantities are converted to linear units; the noise plus
    interference density is given in dBm/Hz, hence the -30 dB shift.
    """
    gain = to_linear(env.antenna_gain_db)
    loss = to_linear(mean_loss_db)
    noise_w_per_hz = to_linear(env.noise_plus_interference_dbm_per_hz - 30.0)
    return gain / (loss * env.bandwidth_hz * noise_w_per_hz)


def rate(mean_loss_db: float, power_w: float, env: Environment) -> float:
    """Shannon rate in bits/s for a link with the given mean loss."""
    if power_w < 0:
        raise ValueError("power must be non-negative")
    sinr = power_w * sinr_slope(mean_loss_db, env)
    return env.bandwidth_hz * math.log2(1.0 + sinr)
