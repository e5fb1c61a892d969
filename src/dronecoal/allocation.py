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


def waterfill(gains: np.ndarray,
              budget) -> tuple[np.ndarray, float | np.ndarray]:
    """Exact water-filling: maximize sum log2(1 + p_i * g_i) s.t. sum p <= budget.

    ``budget`` is one budget or a 1-D array of them.  Returns (powers,
    water_level): a power per gain and a float for one budget, or one row
    of powers and one level per budget for an array, each row the same
    bits as that budget's own fill.  Zero-gain entries get zero power; a
    non-zero budget is fully spent whenever any gain is positive.
    """
    gains = np.asarray(gains, dtype=float)
    budgets = np.asarray(budget, dtype=float)
    if (gains < 0).any():
        raise ValueError("gains must be non-negative")
    if (budgets < 0).any():
        raise ValueError("budget must be non-negative")
    rows = budgets.reshape(-1, 1)
    p = np.zeros((len(rows), len(gains)))
    level = np.zeros(len(rows))
    active = gains.nonzero()[0]
    if len(active):
        inv = 1.0 / gains[active]
        order = inv.argsort(kind="stable")
        inv_sorted = inv[order]
        # active count: the largest k >= 2 whose level (budget + sum inv) / k
        # clears the k-th noise floor inv, else 1; 0 for a zero budget
        count = np.arange(1, len(inv) + 1)
        levels = (rows + inv_sorted.cumsum()) / count
        clears = levels > inv_sorted
        clears[:, 0] = True
        k = (len(inv) - clears[:, ::-1].argmax(axis=1)) * (rows[:, 0] != 0)
        take = count <= k[:, None]
        level = np.where(k > 0, levels[np.arange(len(rows)), k - 1], 0.0)
        p[:, active[order]] = np.where(take, level[:, None] - inv_sorted, 0.0)
    if budgets.ndim == 0:
        return p[0], float(level[0])
    return p, level


class CoalitionEvaluator:
    """A scenario's link table and its per-coalition allocations.

    The link table is built once, from the mean path loss of every
    (drone, user) pair: a matching weight (inverse linear loss) and an
    SINR slope per pair, indexed by the pair's positions in
    ``scenario.drones`` and ``scenario.users``.  A coalition is a bitmask
    over the drone positions (bit i is ``scenario.drones[i]``) and its
    rates are keyed by drone position.  A coalition's matching reads only
    the weights, so it is cached per mask together with its links'
    slopes; rates additionally depend only on the pooled power budget, so
    they are cached per (mask, budget), and the budgets missing from that
    cache are water-filled in one batched call.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        losses = [[propagation.path_loss(d.position, u.position,
                                         scenario.env).mean_loss_db
                   for u in scenario.users] for d in scenario.drones]
        self.weights = np.array([[1.0 / propagation.to_linear(x) for x in row]
                                 for row in losses])
        self.slopes = np.array([[propagation.sinr_slope(x, scenario.env)
                                 for x in row] for row in losses])
        self.weights.setflags(write=False)
        self.slopes.setflags(write=False)
        # per drone position, the positions of its baseline users
        self._users = [[j for j, u in enumerate(scenario.users)
                        if u.baseline_drone == d.id] for d in scenario.drones]
        self._matchings: dict[int, tuple] = {}
        self._results: dict[tuple[int, float], dict[int, float]] = {}

    def _matched(self, mask: int) -> tuple:
        if mask not in self._matchings:
            if not 0 < mask < 1 << len(self._users):
                raise ValueError(f"coalition mask {mask} is not a non-empty "
                                 f"set of the {len(self._users)} drones")
            drones = self.scenario.drones
            members = [i for i in range(len(drones)) if mask >> i & 1]
            # ids are sorted, so positions sort as the channels and users do
            rows = [i for _, i in sorted((q, i) for i in members
                                         for q in drones[i].channels)]
            cols = sorted(j for i in members for j in self._users[i])
            pairs = max_weight_matching(self.weights[np.ix_(rows, cols)])
            owners = [rows[r] for r, _ in pairs]
            slopes = self.slopes[owners, [cols[c] for _, c in pairs]]
            self._matchings[mask] = members, owners, slopes
        return self._matchings[mask]

    def evaluate(self, mask: int, powers) -> dict[int, float]:
        """Each member's rate, by drone position, when the members' assumed
        powers, one per member in any order, are pooled into the
        coalition's budget.  The dict is cached and shared, so callers must
        not mutate it."""
        if len(powers) != mask.bit_count():
            raise ValueError(f"expected {mask.bit_count()} assumed powers, "
                             f"got {len(powers)}")
        # fsum is correctly rounded, so the budget, and with it the cache
        # key, does not depend on the order of the powers
        budget = math.fsum(powers)
        return self.evaluate_budgets(mask, [budget])[budget]

    def evaluate_budgets(self, mask: int,
                         budgets) -> dict[float, dict[int, float]]:
        """``evaluate``'s rates for each of the given pooled budgets, keyed
        by budget, from the same cache."""
        missing = [b for b in dict.fromkeys(budgets)
                   if (mask, b) not in self._results]
        if missing:
            self._evaluate(mask, missing)
        return {b: self._results[mask, b] for b in budgets}

    def _evaluate(self, mask: int, budgets: list[float]) -> None:
        """Cache each member's rate at each budget, from one water-fill
        over all of them: each link's ``bandwidth * math.log2(1.0 + p * g)``,
        summed per drone from 0.0 in link order."""
        members, owners, gains = self._matched(mask)
        powers, _ = waterfill(gains, np.array(budgets))
        bandwidth = self.scenario.env.bandwidth_hz
        for b, row in zip(budgets, (1.0 + powers * gains).tolist()):
            rates = self._results[mask, b] = dict.fromkeys(members, 0.0)
            for i, x in zip(owners, row):
                rates[i] += bandwidth * math.log2(x)
