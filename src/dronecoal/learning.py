"""Belief learning from shared power samples.

Each interaction round a drone re-estimates a Gaussian for every coalition
mate from the cumulative sample history (MLE), classifies the estimate
against the known type set by KL divergence, and maintains per-type
observation frequencies that become its belief vector.

A sample's event depends only on the samples up to it, so the observation
log, bound to one scenario and to the G games that play it in lockstep,
keeps per-pair arrays of running sample sums and event counts: one
``share`` call per round classifies only the round's samples of every
game, in one batch, and ``update_beliefs`` reads beliefs and predictions
off the counts.  Their axes are the games, then the scenario's drones and
types, which the scenario keeps in id order.
"""

from __future__ import annotations

import numpy as np

from .game import BeliefState, check_belief_rows

SIGMA_FLOOR_FACTOR = 1e-6   # degenerate-MLE floor relative to the mean


class _TypeColumns:
    """A type set as (m, 1) columns for the KL kernel."""

    def __init__(self, types):
        if not types:
            raise ValueError("type set must be non-empty")
        self.ids = tuple(t.id for t in types)
        self.mu = np.array([[t.mu] for t in types])
        self.sigma = np.array([[t.sigma] for t in types])
        self.two_var = np.array([[2.0 * t.sigma ** 2] for t in types])


def _classify(mean: np.ndarray, var: np.ndarray,
              types: _TypeColumns) -> np.ndarray:
    """Index into ``types.ids`` of the type minimizing KL(estimate -> type)
    for every estimate (mean, var).

    The variance is clipped at zero and the std floored relative to the
    mean, so a degenerate estimate reduces to nearest-mean; argmin takes
    the lowest index (the lowest id) on ties.
    """
    sigma = np.sqrt(np.maximum(var, 0.0))
    floor = SIGMA_FLOOR_FACTOR * np.maximum(np.abs(mean), 1.0)
    sigma = np.maximum(sigma, floor)
    # KL(N(mean, sigma) -> N(mu, type sigma)) in nats, one row per type
    kls = (np.log(types.sigma / sigma)
           + (sigma ** 2 + (mean - types.mu) ** 2) / types.two_var
           - 0.5)
    return kls.argmin(axis=0)


class ObservationLog:
    """The learning state of G games on one scenario, indexed by game and
    then by position in the scenario's drones (``ids``) and types, both in
    id order: ``sums``, each pair's sample count, sum of x and sum of x * x
    as a (3, G, D, D) float64 array, by the sequential additions from 0.0
    that ``np.cumsum`` makes; ``counts``, the (G, D, D, m) type events,
    with one of each drone's own type on the diagonal; ``table``, the
    (G, D, D, m) belief tables, and ``beliefs``, one ``BeliefState`` per
    game over them; the last ``prediction``, None once new samples came;
    and each (game, observer id, observed id) triple's ``samples``.  The
    true types' power means and deviations, ``mu`` and ``sigma``, are
    read once by drone position.
    """

    def __init__(self, scenario, games: int):
        self.scenario = scenario
        self.types = _TypeColumns(scenario.type_set)
        uniform = BeliefState.uniform(scenario)
        self.beliefs = [uniform] * games
        self.table = np.repeat(uniform.table[None], games, axis=0)
        self.ids = ids = scenario.drone_ids
        true = scenario.true_columns
        self.mu, self.sigma = self.types.mu[true, 0], self.types.sigma[true, 0]
        d = len(ids)
        self.sums = np.zeros((3, games, d, d))
        self.counts = np.zeros((games, d, d, len(self.types.ids)),
                               dtype=np.int64)
        self.counts[:, range(d), range(d), true] = 1
        self.prediction = None
        self.samples: dict[tuple[int, int, int], list[float]] = {}

    def share(self, powers: np.ndarray, pairs: np.ndarray) -> None:
        """One round of every game: for every ``pairs[g, i, j]`` set in
        the (G, D, D) bool mask, observer i of game g takes
        ``powers[g, j]`` as one sample, whose classification event (MLE
        over the pair's history up to it, then KL classification) is added
        to ``counts``."""
        games, rows, cols = pairs.nonzero()
        if not rows.size:
            return
        if (rows == cols).any():
            raise ValueError("a drone does not observe itself")
        x = powers[games, cols]
        sums = self.sums[:, games, rows, cols] + [np.ones_like(x), x, x * x]
        self.sums[:, games, rows, cols] = sums
        n, s1, s2 = sums
        mean = s1 / n
        events = _classify(mean, s2 / n - mean ** 2, self.types)
        self.counts[games, rows, cols, events] += 1
        self.prediction = None
        ids = self.ids
        for g, i, j, v in zip(games.tolist(), rows.tolist(), cols.tolist(),
                              x.tolist()):
            self.samples.setdefault((g, ids[i], ids[j]), []).append(v)


def update_beliefs(log: ObservationLog
                   ) -> tuple[tuple[BeliefState, ...], np.ndarray]:
    """Every game's beliefs and type prediction read off ``log.counts``;
    both come back unchanged until new samples arrive.

    A belief vector is the per-type frequency of its pair's sample events;
    unobserved pairs keep the uniform prior and self rows their point
    mass.  The new rows of all games are checked at once
    (``check_belief_rows``), and a game gets a new ``BeliefState`` only
    when its table moved.  The prediction is a read-only (G, D, D) array
    of type ids over the scenario's drones: each pair's most frequent type
    (the lowest id on ties and for unobserved pairs), and the true types
    on the diagonal.
    """
    if log.prediction is None:
        counts, total = log.counts, log.sums[0, ..., None]
        table = np.divide(counts, total, where=total > 0,
                          out=log.table.copy())
        moved = (table != log.table).any(axis=(1, 2, 3)).nonzero()[0]
        if moved.size:
            check_belief_rows(table)
            for g in moved.tolist():
                log.beliefs[g] = BeliefState.checked(
                    table[g].copy(), log.ids, log.types.ids)
            log.table = table
        log.prediction = np.array(log.types.ids)[counts.argmax(axis=-1)]
        log.prediction.setflags(write=False)
    return tuple(log.beliefs), log.prediction


def frobenius_convergence(prediction: np.ndarray, scenario
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Per-type Frobenius norms of (predicted minus true) type-indicator
    matrices, and their mean, for each (D, D) prediction in the last two
    axes of ``prediction``.

    Entry (i, j) of type m's prediction matrix is 1 iff
    ``prediction[..., i, j]`` (the scenario's drones, true types on the
    diagonal) is m.  The matrices are 0/1, so each norm is the square
    root of the count of entries where they differ.
    """
    types = scenario.type_ids
    truth = [d.true_type for d in scenario.drones]
    flips = (np.equal.outer(prediction, types)
             != np.equal.outer(truth, types)).sum(axis=(-3, -2), dtype=float)
    norms = np.sqrt(flips)
    return norms, norms.sum(axis=-1) / norms.shape[-1]   # np.mean's bits
