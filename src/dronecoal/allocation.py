"""Resource allocation inside a coalition.

Maximum-weight bipartite matching of channels to users (weights are the
inverse linear mean path loss) and water-filling power allocation over the
matched links, giving each drone's rate from its matched channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import propagation


@dataclass(frozen=True)
class PowerVector:
    powers: dict[int, float]   # user id -> Watts
    total_budget: float


@dataclass(frozen=True)
class AllocationResult:
    matching: tuple[tuple[int, int], ...]   # (channel id, user id) pairs
    powers: PowerVector
    per_drone_rate: dict[int, float]
    total_rate: float


def max_weight_matching(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight matching of a rectangular non-negative matrix.

    Matches the smaller side fully.  Rows with identical weight vectors
    (channels of the same drone) are canonicalized so that lower row
    indices take lower column indices, making the result deterministic.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0:
        return []
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and non-negative")
    rows, cols = linear_sum_assignment(weights, maximize=True)

    # canonical tie-break: within each group of identical rows, pair
    # ascending row indices with ascending matched column indices
    groups: dict[bytes, list[int]] = {}
    match = dict(zip(rows.tolist(), cols.tolist()))
    for r in match:
        groups.setdefault(weights[r].tobytes(), []).append(r)
    pairs: list[tuple[int, int]] = []
    for members in groups.values():
        members.sort()
        assigned = sorted(match[r] for r in members)
        pairs.extend(zip(members, assigned))
    pairs.sort()
    return pairs


def waterfill(gains: np.ndarray, budget: float) -> tuple[np.ndarray, float]:
    """Exact water-filling: maximize sum log2(1 + p_i * g_i) s.t. sum p <= budget.

    Returns (powers, water_level).  Zero-gain entries get zero power; the
    budget is fully spent whenever any gain is positive.
    """
    gains = np.asarray(gains, dtype=float)
    if np.any(gains < 0):
        raise ValueError("gains must be non-negative")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    p = np.zeros_like(gains)
    active = np.flatnonzero(gains > 0)
    if len(active) == 0 or budget == 0:
        return p, 0.0
    inv = 1.0 / gains[active]
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    # try the k best channels; water level mu = (budget + sum inv) / k must
    # clear the worst active channel's noise floor
    csum = np.cumsum(inv_sorted)
    k = len(inv_sorted)
    while k > 1:
        mu = (budget + csum[k - 1]) / k
        if mu > inv_sorted[k - 1]:
            break
        k -= 1
    mu = (budget + csum[k - 1]) / k
    idx = active[order[:k]]
    p[idx] = mu - inv[order[:k]]
    return p, mu


class CoalitionEvaluator:
    """Caches per-scenario link quality and per-coalition allocations.

    The matching inside a coalition depends only on path losses, so it is
    computed once per coalition; rates additionally depend only on the
    total power budget, so allocation results are cached per
    (coalition, budget).
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self._users = {u.id: u for u in scenario.users}
        self._loss: dict[tuple[int, int], float] = {}
        self._slope: dict[tuple[int, int], float] = {}
        self._matchings: dict[frozenset, tuple] = {}
        self._results: dict[tuple[frozenset, float], AllocationResult] = {}

    def mean_loss_db(self, drone_id: int, user_id: int) -> float:
        key = (drone_id, user_id)
        if key not in self._loss:
            sc = self.scenario
            budget = propagation.path_loss(
                sc.drone(drone_id).position, self._users[user_id].position,
                sc.env, mode="mean")
            self._loss[key] = budget.mean_loss_db
        return self._loss[key]

    def slope(self, drone_id: int, user_id: int) -> float:
        key = (drone_id, user_id)
        if key not in self._slope:
            self._slope[key] = propagation.sinr_slope(
                self.mean_loss_db(drone_id, user_id), self.scenario.env)
        return self._slope[key]

    def coalition_members(self, coalition: frozenset) -> tuple:
        sc = self.scenario
        channels = []   # (channel id, owner drone id)
        users = []
        for d in sorted(coalition):
            channels.extend((q, d) for q in sc.drone(d).channels)
            users.extend(sc.baseline_users(d))
        channels.sort()
        users.sort()
        return tuple(channels), tuple(users)

    def weight_matrix(self, coalition: frozenset) -> np.ndarray:
        """Channel x user matrix of inverse linear mean path losses."""
        if not coalition:
            raise ValueError("coalition must be non-empty")
        channels, users = self.coalition_members(coalition)
        w = np.empty((len(channels), len(users)))
        for i, (_, d) in enumerate(channels):
            for j, u in enumerate(users):
                w[i, j] = 1.0 / propagation.to_linear(self.mean_loss_db(d, u))
        return w

    def matching(self, coalition: frozenset):
        if coalition not in self._matchings:
            channels, users = self.coalition_members(coalition)
            w = self.weight_matrix(coalition)
            pairs = max_weight_matching(w)
            matched = tuple((channels[r][0], channels[r][1], users[c])
                            for r, c in pairs)
            self._matchings[coalition] = (channels, users, matched)
        return self._matchings[coalition]

    def evaluate(self, coalition: frozenset,
                 assumed_powers: dict[int, float]) -> AllocationResult:
        missing = coalition - set(assumed_powers)
        if missing:
            raise ValueError(f"missing assumed powers for drones {missing}")
        budget = math.fsum(assumed_powers[d] for d in sorted(coalition))
        key = (coalition, budget)
        if key not in self._results:
            self._results[key] = self._evaluate(coalition, budget)
        return self._results[key]

    def _evaluate(self, coalition: frozenset,
                  budget: float) -> AllocationResult:
        sc = self.scenario
        _, _, matched = self.matching(coalition)
        gains = np.array([self.slope(d, u) for _, d, u in matched])
        powers, _ = waterfill(gains, budget)
        per_drone = {d: 0.0 for d in coalition}
        power_map: dict[int, float] = {}
        total = 0.0
        pairs = []
        for (q, d, u), p in zip(matched, powers):
            r = sc.env.bandwidth_hz * math.log2(1.0 + p * self.slope(d, u))
            per_drone[d] += r
            total += r
            pairs.append((q, u))
            power_map[u] = float(p)
        return AllocationResult(
            matching=tuple(pairs), powers=PowerVector(power_map, budget),
            per_drone_rate=per_drone, total_rate=total)
