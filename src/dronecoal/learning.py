"""Belief learning from shared power samples.

Each interaction round a drone re-estimates a Gaussian for every coalition
mate from the cumulative sample history (MLE), classifies the estimate
against the known type set by KL divergence, and maintains per-type
observation frequencies that become its belief vector.

A sample's classification event depends only on the samples up to it, so
the observation log, bound to one scenario, keeps one running (n, sum,
sum of squares) per pair and queues each new sample's sums.  Each update
classifies everything queued since the previous one in one batched call,
adds the events to one per-pair count array, rebuilds the observed belief
rows from it, and returns the previous belief state when none moved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import BeliefState

SIGMA_FLOOR_FACTOR = 1e-6   # degenerate-MLE floor relative to the mean


def _kl(mu1, sigma1, mu2, sigma2, two_var2):
    """KL divergence (nats) from N(mu1, sigma1) to N(mu2, sigma2),
    elementwise over broadcast numpy arrays; ``two_var2`` is
    ``2.0 * sigma2 ** 2``, which the learner computes once per type."""
    return (np.log(sigma2 / sigma1)
            + (sigma1 ** 2 + (mu1 - mu2) ** 2) / two_var2
            - 0.5)


class _TypeColumns:
    """A type set sorted by id, as (m, 1) columns for the KL kernel."""

    def __init__(self, type_set):
        types = sorted(type_set, key=lambda t: t.id)
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
    kls = _kl(mean, sigma, types.mu, types.sigma, types.two_var)
    return kls.argmin(axis=0)


class ObservationLog:
    """Power samples per (observer, observed) pair of one scenario's
    drones, in strictly increasing round order per pair, and the learning
    state built from them.

    ``add`` keeps one running (n, sum of x, sum of x * x) per pair, by
    sequential float64 additions from 0.0 as ``np.cumsum`` makes them,
    and queues the pair's flat cell with its new sums.  The state is
    ``counts``, the (D, D, m) type-event counts (drones in the scenario's
    order, types in id order), the ``beliefs`` built from them and the
    per-pair prediction ``classified``.  Samples must enter the log
    through ``add``, not by appending to ``samples``.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.types = _TypeColumns(scenario.type_set)
        self.beliefs = BeliefState.uniform(scenario)
        ids = self.beliefs.drone_ids
        # the id-order position of each of the table's type columns
        self.order = [self.types.ids.index(t) for t in self.beliefs.type_ids]
        self.counts = np.zeros((len(ids), len(ids), len(self.types.ids)),
                               dtype=np.int64)
        self._cell = {(i, j): a * len(ids) + b for a, i in enumerate(ids)
                      for b, j in enumerate(ids) if i != j}
        # unobserved pairs predict by the uniform-prior argmax (lowest id)
        self.classified = dict.fromkeys(self._cell, self.types.ids[0])
        self.samples: dict[tuple[int, int], list[float]] = {}
        # pair -> (last round index, n, sum of x, sum of x * x)
        self._running: dict[tuple[int, int], tuple] = {}
        self._queue: list[tuple[int, int, float, float]] = []

    def add(self, observer: int, observed: int, sample: float,
            round_index: int) -> None:
        if observer == observed:
            raise ValueError("a drone does not observe itself")
        key = (observer, observed)
        last, n, s1, s2 = self._running.get(key, (None, 0, 0.0, 0.0))
        if last is not None and round_index <= last:
            raise ValueError("round indices must be strictly increasing")
        x = float(sample)
        sums = n + 1, s1 + x, s2 + x * x
        self._running[key] = (round_index, *sums)
        self.samples.setdefault(key, []).append(x)
        self._queue.append((self._cell[key], *sums))


@dataclass
class TypePrediction:
    """Per-pair classified type."""
    classified: dict[tuple[int, int], int]


def update_beliefs(log: ObservationLog) -> tuple[BeliefState, TypePrediction]:
    """Beliefs from the observation log over its scenario's type set.

    For every pair, each logged sample contributes one classification
    event (MLE over the history up to that sample, then KL
    classification); the belief vector is the per-type frequency of those
    events.  Pairs with no observations keep the uniform prior, and self
    rows their point mass.  An event never changes once its sample is
    logged, so a call classifies the samples queued since the previous
    call in one batch, adds their events to ``log.counts`` and rebuilds
    the observed rows from it; when no row value moved, the previous
    ``BeliefState`` is returned again.  The beliefs equal a from-scratch
    recomputation bit for bit.  The prediction, a fresh dict over every
    pair in the scenario's drone order, is each pair's most frequent type,
    the lowest id on ties (so the lowest id for unobserved pairs).
    """
    if log._queue:
        cells, cnt, sum1, sum2 = np.array(log._queue).T
        log._queue = []
        mean = sum1 / cnt
        events = _classify(mean, sum2 / cnt - mean ** 2, log.types)
        counts = log.counts
        flat = cells.astype(np.int64) * counts.shape[2] + events
        counts += np.bincount(flat, minlength=counts.size).reshape(
            counts.shape)
        total = counts.sum(axis=2, keepdims=True)
        table = np.divide(counts[..., log.order], total, where=total > 0,
                          out=log.beliefs.table.copy())
        if not np.array_equal(table, log.beliefs.table):
            log.beliefs = BeliefState(table, log.beliefs.drone_ids,
                                      log.beliefs.type_ids)
        best = counts.argmax(axis=2).ravel().tolist()
        ids = log.types.ids
        log.classified = {pair: ids[best[c]]
                          for pair, c in log._cell.items()}
    return log.beliefs, TypePrediction(dict(log.classified))


def frobenius_convergence(prediction: TypePrediction, scenario
                          ) -> tuple[np.ndarray, float]:
    """Per-type Frobenius norms of (predicted minus true) type-indicator
    matrices, and their mean.

    For type m, entry (i, j) of the prediction matrix is 1 iff drone i
    currently predicts type m for drone j; diagonals use the true type
    (each drone knows its own).  Zero norm for every type means all
    cross-predictions are correct.  The matrices are 0/1, and a wrong
    prediction of type p for a drone of type q flips one entry of type
    p's matrix and one of type q's, so each norm is the square root of
    its type's count of such flips.
    """
    truth = {d.id: d.true_type for d in scenario.drones}
    col = {t: k for k, t in enumerate(sorted(t.id for t in scenario.type_set))}
    flips = [0] * len(col)
    for (_, j), predicted in prediction.classified.items():
        if predicted != truth[j]:
            flips[col[predicted]] += 1
            flips[col[truth[j]]] += 1
    norms = np.sqrt(np.array(flips, dtype=float))
    return norms, float(norms.mean())
