"""Network instances: user placement, k-means drone placement, channel
ownership, type sets, and the non-cooperative baseline."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .propagation import ENVIRONMENTS, Environment, Position3D


@dataclass(frozen=True)
class TypeSpec:
    """A power type: a Gaussian over the available power (Watts)."""
    id: int
    mu: float
    sigma: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


DEFAULT_TYPE_SET = (TypeSpec(0, 12.0, 3.0), TypeSpec(1, 18.0, 3.0))


@dataclass(frozen=True)
class SimulationSetting:
    name: str
    d: int
    q: int
    n: int
    users_per_drone: int
    channels_per_drone: int


SETTINGS = {
    "S1": SimulationSetting("S1", 3, 9, 9, 3, 3),
    "S2": SimulationSetting("S2", 4, 12, 12, 3, 3),
    "S3": SimulationSetting("S3", 5, 15, 15, 3, 3),
    "S4": SimulationSetting("S4", 6, 18, 18, 3, 3),
}


@dataclass(frozen=True)
class DroneSpec:
    id: int
    position: Position3D
    channels: tuple[int, ...]
    true_type: int


@dataclass(frozen=True)
class UserSpec:
    id: int
    position: Position3D
    baseline_drone: int


@dataclass(frozen=True)
class Scenario:
    """Immutable network instance."""
    drones: tuple[DroneSpec, ...]
    users: tuple[UserSpec, ...]
    type_set: tuple[TypeSpec, ...]
    env: Environment
    area_m: float
    seed: int

    def __post_init__(self):
        owned = [q for d in self.drones for q in d.channels]
        if len(owned) != len(set(owned)):
            raise ValueError("channel ownership must be disjoint")
        type_ids = {t.id for t in self.type_set}
        for d in self.drones:
            if d.true_type not in type_ids:
                raise ValueError(f"drone {d.id} has unknown type {d.true_type}")
        counts: dict[int, int] = {}
        for u in self.users:
            counts[u.baseline_drone] = counts.get(u.baseline_drone, 0) + 1
        for d in self.drones:
            if counts.get(d.id, 0) > len(d.channels):
                raise ValueError(
                    f"drone {d.id} has more baseline users than channels")

    @property
    def drone_ids(self) -> tuple[int, ...]:
        return tuple(d.id for d in self.drones)

    def drone(self, drone_id: int) -> DroneSpec:
        return self._drone_index[drone_id]

    @cached_property
    def _drone_index(self) -> dict[int, DroneSpec]:
        # built on first lookup and kept in the instance __dict__; equality
        # and hashing stay on the fields
        return {d.id: d for d in self.drones}

    def type_spec(self, type_id: int) -> TypeSpec:
        for t in self.type_set:
            if t.id == type_id:
                return t
        raise KeyError(type_id)

    def true_power(self, drone_id: int) -> float:
        """Expected available power of a drone: the mean of its true type."""
        return self.type_spec(self.drone(drone_id).true_type).mu

    def baseline_users(self, drone_id: int) -> tuple[int, ...]:
        return tuple(u.id for u in self.users if u.baseline_drone == drone_id)

    # serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "area_m": self.area_m,
            "seed": self.seed,
            "env": self.env.to_dict(),
            "type_set": [
                {"id": t.id, "mu": t.mu, "sigma": t.sigma}
                for t in self.type_set],
            "drones": [
                {"id": d.id,
                 "position": [d.position.x, d.position.y, d.position.z],
                 "channels": list(d.channels),
                 "true_type": d.true_type}
                for d in self.drones],
            "users": [
                {"id": u.id,
                 "position": [u.position.x, u.position.y, u.position.z],
                 "baseline_drone": u.baseline_drone}
                for u in self.users],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(
            drones=tuple(
                DroneSpec(e["id"], Position3D(*e["position"]),
                          tuple(e["channels"]), e["true_type"])
                for e in d["drones"]),
            users=tuple(
                UserSpec(e["id"], Position3D(*e["position"]),
                         e["baseline_drone"])
                for e in d["users"]),
            type_set=tuple(
                TypeSpec(e["id"], e["mu"], e["sigma"]) for e in d["type_set"]),
            env=Environment.from_dict(d["env"]),
            area_m=d["area_m"],
            seed=d["seed"],
        )

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def kmeans_placement(points: np.ndarray, k: int, seed,
                     capacity: int | None = None,
                     max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm over 2-D points with optional equal-capacity repair.

    Returns (centroids, assignment).  Empty clusters are re-seeded at the
    point farthest from its current centroid.  With a capacity, overflow
    points are reassigned to the nearest under-full centroid and the
    centroids recomputed.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if k > n:
        raise ValueError("k must not exceed the number of points")
    rng = np.random.default_rng(seed)
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assignment = np.zeros(n, dtype=int)
    for it in range(max_iter):
        dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :],
                               axis=2)
        new_assignment = dists.argmin(axis=1)
        for c in range(k):
            if not np.any(new_assignment == c):
                # re-seed an empty cluster at the farthest point
                far = dists[np.arange(n), new_assignment].argmax()
                centroids[c] = points[far]
                new_assignment[far] = c
        if it > 0 and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(k):
            members = points[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)

    if capacity is not None:
        assignment = _repair_capacity(points, centroids, assignment, capacity)
        for c in range(k):
            members = points[assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids, assignment


def _repair_capacity(points: np.ndarray, centroids: np.ndarray,
                     assignment: np.ndarray, capacity: int) -> np.ndarray:
    """Move overflow points to the nearest under-full centroid."""
    assignment = assignment.copy()
    k = len(centroids)
    counts = np.bincount(assignment, minlength=k)
    while np.any(counts > capacity):
        over = int(np.argmax(counts))
        members = np.flatnonzero(assignment == over)
        # move the member farthest from its centroid (the first on ties)
        d_own = np.linalg.norm(points[members] - centroids[over], axis=1)
        idx = members[int(np.argmax(d_own))]
        under = np.flatnonzero(counts < capacity)
        if len(under) == 0:
            raise ValueError("total capacity below number of points")
        d = np.linalg.norm(centroids[under] - points[idx], axis=1)
        target = under[int(np.argmin(d))]
        assignment[idx] = target
        counts[over] -= 1
        counts[target] += 1
    return assignment


def generate(setting: SimulationSetting, env: Environment,
             type_set=DEFAULT_TYPE_SET, seed: int = 0,
             area_m: float = 4000.0, altitude_m: float = 1000.0) -> Scenario:
    """Generate a random scenario: uniform users, drones at capacity-equal
    k-means centroids, sequential channel ownership, uniform true types."""
    if setting.d * setting.users_per_drone != setting.n:
        raise ValueError("d * users_per_drone must equal n")
    if setting.d * setting.channels_per_drone != setting.q:
        raise ValueError("d * channels_per_drone must equal q")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, area_m, size=(setting.n, 2))
    centroids, assignment = kmeans_placement(
        pts, setting.d, rng, capacity=setting.users_per_drone)
    true_types = rng.integers(0, len(type_set), size=setting.d)
    type_ids = [t.id for t in type_set]
    drones = tuple(
        DroneSpec(
            id=i,
            position=Position3D(centroids[i][0], centroids[i][1], altitude_m),
            channels=tuple(range(i * setting.channels_per_drone,
                                 (i + 1) * setting.channels_per_drone)),
            true_type=type_ids[true_types[i]])
        for i in range(setting.d))
    users = tuple(
        UserSpec(id=j, position=Position3D(pts[j][0], pts[j][1], 0.0),
                 baseline_drone=int(assignment[j]))
        for j in range(setting.n))
    return Scenario(drones=drones, users=users, type_set=tuple(type_set),
                    env=env, area_m=area_m, seed=seed)


def baseline_rates(scenario: Scenario, evaluator) -> dict[int, float]:
    """Per-drone aggregate rate when every drone serves its own users with
    its own channels and expected power, from the scenario's
    ``CoalitionEvaluator``."""
    rates = {}
    for d in scenario.drones:
        result = evaluator.evaluate(frozenset([d.id]),
                                    {d.id: scenario.true_power(d.id)})
        rates[d.id] = result.per_drone_rate[d.id]
    return rates
