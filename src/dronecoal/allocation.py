"""Resource allocation inside a coalition.

Maximum-weight bipartite matching of channels to users (weights are the
inverse linear mean path loss) and water-filling power allocation over the
matched links, giving each drone's rate from its matched channels.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import propagation


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
    """A scenario's link table and its per-coalition allocations.

    The link table is built once, from the mean path loss of every
    (drone, user) pair: a matching weight (inverse linear loss) and an
    SINR slope per pair, indexed by the pair's positions in
    ``scenario.drones`` and ``scenario.users``.  A coalition's matching
    reads only the weights, so it is cached per coalition together with
    its links' slopes; rates additionally depend only on the pooled power
    budget, so they are cached per (coalition, budget).
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self._row = {d.id: i for i, d in enumerate(scenario.drones)}
        self._col = {u.id: j for j, u in enumerate(scenario.users)}
        losses = [[propagation.path_loss(d.position, u.position,
                                         scenario.env).mean_loss_db
                   for u in scenario.users] for d in scenario.drones]
        self.weights = np.array([[1.0 / propagation.to_linear(x) for x in row]
                                 for row in losses])
        self.slopes = np.array([[propagation.sinr_slope(x, scenario.env)
                                 for x in row] for row in losses])
        self.weights.setflags(write=False)
        self.slopes.setflags(write=False)
        self._matchings: dict[frozenset, tuple] = {}
        self._results: dict[tuple[frozenset, float], dict[int, float]] = {}

    def _matched(self, coalition: frozenset) -> tuple:
        if coalition not in self._matchings:
            if not coalition:
                raise ValueError("coalition must be non-empty")
            sc = self.scenario
            channels = sorted((q, d) for d in coalition
                              for q in sc.drone(d).channels)
            users = sorted(u for d in coalition for u in sc.baseline_users(d))
            rows = [self._row[d] for _, d in channels]
            cols = [self._col[u] for u in users]
            pairs = max_weight_matching(self.weights[np.ix_(rows, cols)])
            links = tuple((channels[r][1], users[c]) for r, c in pairs)
            slopes = self.slopes[[rows[r] for r, _ in pairs],
                                 [cols[c] for _, c in pairs]]
            self._matchings[coalition] = links, slopes
        return self._matchings[coalition]

    def matching(self, coalition: frozenset) -> tuple[tuple[int, int], ...]:
        """The coalition's matched links as (drone id, user id) pairs, in
        channel order."""
        return self._matched(coalition)[0]

    def evaluate(self, coalition: frozenset, powers) -> dict[int, float]:
        """Each member's rate when the members' assumed powers, one per
        member in any order, are pooled into the coalition's budget.  The
        dict is cached and shared, so callers must not mutate it."""
        if len(powers) != len(coalition):
            raise ValueError(f"expected {len(coalition)} assumed powers, "
                             f"got {len(powers)}")
        # fsum is correctly rounded, so the budget, and with it the cache
        # key, does not depend on the order of the powers
        key = (coalition, math.fsum(powers))
        if key not in self._results:
            self._results[key] = self._evaluate(*key)
        return self._results[key]

    def _evaluate(self, coalition: frozenset,
                  budget: float) -> dict[int, float]:
        links, gains = self._matched(coalition)
        powers, _ = waterfill(gains, budget)
        bandwidth = self.scenario.env.bandwidth_hz
        per_drone = {d: 0.0 for d in coalition}
        for (d, _), p, g in zip(links, powers, gains):
            per_drone[d] += bandwidth * math.log2(1.0 + p * g)
        return per_drone
