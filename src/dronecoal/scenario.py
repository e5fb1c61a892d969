"""Network instances: user placement, k-means drone placement, channel
ownership, type sets, and the non-cooperative baseline."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np

from .propagation import Environment, Position3D


def is_number(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A finite real number that is not a bool."""
    return is_number(value) and math.isfinite(value)


def check_keys(entries: dict, cls, what: str) -> None:
    """ValueError naming the keys of ``entries`` that are not fields of
    the dataclass ``cls``, or else the required fields it lacks."""
    if not isinstance(entries, dict):
        raise ValueError(f"expected a JSON object of {what}s, got {entries!r}")
    unknown = sorted(set(entries) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what}(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in entries
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {what}(s): {', '.join(missing)}")


@dataclass(frozen=True)
class TypeSpec:
    """A power type: a Gaussian over the available power (Watts)."""
    id: int
    mu: float
    sigma: float

    def __post_init__(self):
        for name in ("mu", "sigma"):
            value = getattr(self, name)
            if not is_number(value) or not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
            if not is_finite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


DEFAULT_TYPE_SET = (TypeSpec(0, 12.0, 3.0), TypeSpec(1, 18.0, 3.0))
AREA_M = 4000.0          # side of the square that generate places users in
ALTITUDE_M = 1000.0      # altitude of every generated drone
KMEANS_MAX_ITER = 100    # Lloyd iterations before kmeans_placement stops


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
        # the one order of every axis: a drone's or type's position here is
        # its bit, row, column and proposer slot everywhere else
        for name in ("drones", "users", "type_set"):
            entries = tuple(sorted(getattr(self, name), key=lambda e: e.id))
            for a, b in zip(entries, entries[1:]):
                if a.id == b.id:
                    raise ValueError(f"ids of {name} must be distinct "
                                     f"integers, got {a.id!r}")
            object.__setattr__(self, name, entries)
        owned = [q for d in self.drones for q in d.channels]
        if len(owned) != len(set(owned)):
            raise ValueError("channel ownership must be disjoint")
        for d in self.drones:
            if d.true_type not in self.type_ids:
                raise ValueError(f"drone {d.id} has unknown type {d.true_type}")
        counts: dict[int, int] = {}
        ids = self.drone_ids
        for u in self.users:
            if u.baseline_drone not in ids:
                raise ValueError(f"baseline_drone of user {u.id} must be a "
                                 f"drone id, got {u.baseline_drone!r}")
            counts[u.baseline_drone] = counts.get(u.baseline_drone, 0) + 1
        for d in self.drones:
            if counts.get(d.id, 0) > len(d.channels):
                raise ValueError(
                    f"drone {d.id} has more baseline users than channels")

    @property
    def drone_ids(self) -> tuple[int, ...]:
        return tuple(d.id for d in self.drones)

    @property
    def type_ids(self) -> tuple[int, ...]:
        return tuple(t.id for t in self.type_set)

    @cached_property
    def true_columns(self) -> tuple[int, ...]:
        """Each drone's true type as its position in ``type_ids``."""
        return tuple(self.type_ids.index(d.true_type) for d in self.drones)

    @cached_property
    def true_mus(self) -> tuple[float, ...]:
        """Each drone's expected available power: its true type's mean."""
        return tuple(self.type_set[c].mu for c in self.true_columns)

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
        if not isinstance(d, dict):
            raise ValueError("a scenario must be a JSON object, got "
                             f"{type(d).__name__}")
        check_keys(d, cls, "scenario key")
        for key, spec, what in (("drones", DroneSpec, "drone key"),
                                ("users", UserSpec, "user key"),
                                ("type_set", TypeSpec, "type key")):
            if not isinstance(d[key], list) \
                    or not all(isinstance(e, dict) for e in d[key]):
                raise ValueError(f"{key} must be a list of JSON objects, "
                                 f"got {d[key]!r}")
            for e in d[key]:
                check_keys(e, spec, what)
                if not is_int(e["id"]):
                    raise ValueError(f"ids of {key} must be distinct "
                                     f"integers, got {e['id']!r}")
        for kind, e in [("drone", e) for e in d["drones"]] \
                + [("user", e) for e in d["users"]]:
            p, c, b = e["position"], e.get("channels", []), \
                e.get("baseline_drone")
            for name, ok, what in (
                    ("position", isinstance(p, list) and 2 <= len(p) <= 3
                     and all(map(is_finite, p)), "a list of 2 or 3 numbers"),
                    ("channels", isinstance(c, list), "a list"),
                    ("channels", isinstance(c, list) and all(map(is_int, c)),
                     "a list of integers"),
                    ("true_type", kind == "user"
                     or is_int(e["true_type"]), "an integer"),
                    ("baseline_drone", kind == "drone"
                     or is_int(b), "a drone id")):
                if not ok:
                    raise ValueError(f"{name} of {kind} {e['id']} must be "
                                     f"{what}, got {e[name]!r}")
        if not is_number(d["area_m"]) or not d["area_m"] > 0:
            raise ValueError(f"area_m must be positive, got {d['area_m']!r}")
        if not is_int(d["seed"]):
            raise ValueError(f"seed must be an integer, got {d['seed']!r}")
        check_keys(d["env"], Environment, "env key")
        for f in fields(Environment)[1:]:   # every field but the name
            if not is_finite(d["env"][f.name]):
                raise ValueError(f"{f.name} must be a finite number, got "
                                 f"{d['env'][f.name]!r}")
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
                     capacity: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
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
    for it in range(KMEANS_MAX_ITER):
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
             type_set=DEFAULT_TYPE_SET, seed: int = 0) -> Scenario:
    """Generate a random scenario: uniform users, drones at capacity-equal
    k-means centroids, sequential channel ownership, uniform true types."""
    if setting.d * setting.users_per_drone != setting.n:
        raise ValueError("d * users_per_drone must equal n")
    if setting.d * setting.channels_per_drone != setting.q:
        raise ValueError("d * channels_per_drone must equal q")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, AREA_M, size=(setting.n, 2))
    centroids, assignment = kmeans_placement(
        pts, setting.d, rng, capacity=setting.users_per_drone)
    true_types = rng.integers(0, len(type_set), size=setting.d)
    drones = tuple(
        DroneSpec(
            id=i,
            position=Position3D(centroids[i][0], centroids[i][1], ALTITUDE_M),
            channels=tuple(range(i * setting.channels_per_drone,
                                 (i + 1) * setting.channels_per_drone)),
            true_type=type_set[true_types[i]].id)
        for i in range(setting.d))
    users = tuple(
        UserSpec(id=j, position=Position3D(pts[j][0], pts[j][1], 0.0),
                 baseline_drone=int(assignment[j]))
        for j in range(setting.n))
    return Scenario(drones=drones, users=users, type_set=tuple(type_set),
                    env=env, area_m=AREA_M, seed=seed)


def baseline_rates(evaluator) -> dict[int, float]:
    """Per-drone aggregate rate when every drone serves its own users with
    its own channels and expected power, from its scenario's
    ``CoalitionEvaluator``."""
    sc = evaluator.scenario
    return {d.id: evaluator.evaluate(1 << i, [mu])[i]
            for i, (d, mu) in enumerate(zip(sc.drones, sc.true_mus))}
