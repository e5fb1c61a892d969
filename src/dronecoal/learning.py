"""Belief learning from shared power samples.

Each interaction round a drone re-estimates a Gaussian for every coalition
mate from the cumulative sample history (MLE), classifies the estimate
against the known type set by KL divergence, and maintains per-type
observation frequencies that become its belief vector.

A sample's classification event depends only on the samples up to it, so
the observation log keeps one running (n, sum, sum of squares) per pair
and queues each new sample's sums.  Each update classifies everything
queued since the previous one in one batched call, bumps per-pair event
counts, rewrites only the belief rows that moved, and returns the previous
belief state when none did.
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


class _ScenarioLearner:
    """One scenario's learning state over a log.

    It holds the scenario's type set sorted by id, the id-order position
    of each of the table's type columns, how many of the log's queued
    samples it has classified, the per-pair type-event counts (id order),
    the belief table as nested lists (the uniform prior until a pair is
    observed), the last ``BeliefState`` built from it and the per-pair
    prediction.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.types = _TypeColumns(scenario.type_set)
        self.beliefs = BeliefState.uniform(scenario)
        self.table = self.beliefs.table.tolist()
        self.index = {d: i for i, d in enumerate(self.beliefs.drone_ids)}
        self.order = [self.types.ids.index(t) for t in self.beliefs.type_ids]
        self.read = 0
        self.counts: dict[tuple[int, int], list[int]] = {}
        ids = self.beliefs.drone_ids
        # unobserved pairs predict by the uniform-prior argmax (lowest id)
        self.unobserved = {(i, j): self.types.ids[0]
                           for i in ids for j in ids if i != j}
        self.classified = dict(self.unobserved)

    def update(self, log: "ObservationLog") -> None:
        """Classify the log's samples queued since the last call in one
        batch, bump their pairs' counts, and rewrite those pairs'
        predictions and the table rows whose values moved.  ``beliefs``
        is rebuilt only if some row moved."""
        pairs = log._queue_pairs[self.read:]
        if not pairs:
            return
        cnt, sum1, sum2 = np.array(log._queue_sums[self.read:]).T
        self.read = len(log._queue_pairs)
        mean = sum1 / cnt
        events = _classify(mean, sum2 / cnt - mean ** 2, self.types)
        touched, first_seen = {}, False
        for pair, k in zip(pairs, events.tolist()):
            counts = self.counts.get(pair)
            if counts is None:
                counts = self.counts[pair] = [0] * len(self.types.ids)
                first_seen = True
            counts[k] += 1
            touched[pair] = counts
        moved = False
        for (i, j), counts in touched.items():
            total = sum(counts)
            row = [counts[k] / total for k in self.order]
            table_rows = self.table[self.index[i]]
            if row != table_rows[self.index[j]]:
                table_rows[self.index[j]] = row
                moved = True
            self.classified[(i, j)] = \
                self.types.ids[counts.index(max(counts))]
        if first_seen:
            # observed pairs in first-observation order, then the others
            self.classified = {
                **{pair: self.classified[pair] for pair in self.counts},
                **{pair: t for pair, t in self.unobserved.items()
                   if pair not in self.counts}}
        if moved:
            self.beliefs = BeliefState(self.table, self.beliefs.drone_ids,
                                       self.beliefs.type_ids)


class ObservationLog:
    """Power samples per (observer, observed) pair, in strictly increasing
    round order per pair.

    ``add`` keeps one running (n, sum of x, sum of x * x) per pair, by
    sequential float64 additions from 0.0 as ``np.cumsum`` makes them,
    and queues the pair and its new sums for the learner.
    ``update_beliefs`` classifies the queued entries and keeps the
    learning state of the last scenario it was given here, so samples
    must enter the log through ``add``, not by appending to ``samples``.
    """

    def __init__(self):
        self.samples: dict[tuple[int, int], list[float]] = {}
        # pair -> (last round index, n, sum of x, sum of x * x)
        self._running: dict[tuple[int, int], tuple] = {}
        self._queue_pairs: list[tuple[int, int]] = []
        self._queue_sums: list[tuple[int, float, float]] = []
        self._learner: _ScenarioLearner | None = None

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
        self._queue_pairs.append(key)
        self._queue_sums.append(sums)


@dataclass
class TypePrediction:
    """Per-pair classified type."""
    classified: dict[tuple[int, int], int]


def update_beliefs(log: ObservationLog, scenario
                   ) -> tuple[BeliefState, TypePrediction]:
    """Beliefs from the observation log over the scenario's type set.

    For every pair, each logged sample contributes one classification
    event (MLE over the history up to that sample, then KL
    classification); the belief vector is the per-type frequency of those
    events.  Pairs with no observations keep the uniform prior.  An event
    never changes once its sample is logged, so a call classifies the
    samples queued since the previous call with the same scenario in one
    batch and rewrites only the rows of their pairs (another scenario
    starts the log's learning state afresh from the first sample).  When
    no row value moved, the previous ``BeliefState`` is returned again.
    The beliefs equal a from-scratch recomputation bit for bit, and the
    prediction is a fresh dict: observed pairs in first-observation
    order, then the unobserved ones.
    """
    learner = log._learner
    if learner is None or learner.scenario is not scenario:
        learner = log._learner = _ScenarioLearner(scenario)
    learner.update(log)
    return learner.beliefs, TypePrediction(dict(learner.classified))


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
