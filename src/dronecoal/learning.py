"""Belief learning from shared power samples.

Each interaction round a drone re-estimates a Gaussian for every coalition
mate from the cumulative sample history (MLE), classifies the estimate
against the known type set by KL divergence, and maintains per-type
observation frequencies that become its belief vector.

A sample's classification event depends only on the samples up to it, so
the observation log keeps running sums and per-type event counts, and each
update classifies only the samples added since the previous one, batched
over all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import BeliefState

SIGMA_FLOOR_FACTOR = 1e-6   # degenerate-MLE floor relative to the mean


def mle_gaussian(samples) -> tuple[float, float]:
    """Maximum-likelihood Gaussian fit: sample mean and biased (1/N)
    variance."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("at least one sample is required")
    mu = float(samples.mean())
    sigma2 = float(np.mean((samples - mu) ** 2))
    return mu, sigma2


def _kl(mu1, sigma1, mu2, sigma2, two_var2):
    """KL divergence (nats) from N(mu1, sigma1) to N(mu2, sigma2),
    elementwise over broadcast numpy arrays; ``two_var2`` is
    ``2.0 * sigma2 ** 2``, which the learner computes once per type."""
    return (np.log(sigma2 / sigma1)
            + (sigma1 ** 2 + (mu1 - mu2) ** 2) / two_var2
            - 0.5)


def kl_gaussian(p: tuple[float, float], q: tuple[float, float]) -> float:
    """KL divergence (nats) between Gaussians given as (mean, std)."""
    mu1, sigma1 = p
    mu2, sigma2 = q
    if sigma2 <= 0:
        raise ValueError("reference std must be positive")
    if sigma1 <= 0:
        raise ValueError("std of the first argument must be positive")
    return float(_kl(mu1, sigma1, mu2, sigma2, 2.0 * sigma2 ** 2))


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


def classify(estimate: tuple[float, float], type_set) -> int:
    """Type id minimizing KL(estimate -> type); ties go to the lowest id.

    ``estimate`` is (mu_hat, sigma2_hat) as produced by mle_gaussian.  A
    degenerate zero variance is floored so the comparison reduces to
    nearest-mean.
    """
    types = _TypeColumns(type_set)
    mu_hat, sigma2_hat = estimate
    k = _classify(np.array([mu_hat], dtype=float),
                  np.array([sigma2_hat], dtype=float), types)
    return types.ids[int(k[0])]


class _ScenarioLearner:
    """One scenario's learning state over a log: its type set sorted by id,
    the per-pair type-event counts, the uniform prior, and the drone index
    and pairs.

    Row p of ``counts`` belongs to the log's p-th pair; ``done[p]`` is how
    many of that pair's samples have been classified.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.types = _TypeColumns(scenario.type_set)
        self.counts = np.zeros((0, len(self.types.ids)), dtype=np.int64)
        self.done: list[int] = []
        self.prior = BeliefState.uniform(scenario)
        self.index = {d: i for i, d in enumerate(self.prior.drone_ids)}
        self.pairs = [(i, j) for i in self.prior.drone_ids
                      for j in self.prior.drone_ids if i != j]

    def extend(self, sums: list[tuple[list[float], list[float]]]) -> None:
        """Classify every sample added since the last call, for all pairs
        in one pass.  Sample n's event is the KL classification of the MLE
        over samples 1..n, read off the running sums."""
        m = len(self.types.ids)
        grow = len(sums) - len(self.done)
        if grow:
            self.counts = np.vstack(
                [self.counts, np.zeros((grow, m), dtype=np.int64)])
            self.done.extend([0] * grow)
        pair, rows = [], []
        for p, (s1, s2) in enumerate(sums):
            n = len(s1) - 1
            for idx in range(self.done[p] + 1, n + 1):
                pair.append(p)
                rows.append((idx, s1[idx], s2[idx]))
            self.done[p] = n
        if not pair:
            return
        cnt, sum1, sum2 = np.array(rows).T
        mean = sum1 / cnt
        var = sum2 / cnt - mean ** 2
        events = _classify(mean, var, self.types)
        self.counts += np.bincount(
            np.array(pair) * m + events,
            minlength=self.counts.size).reshape(self.counts.shape)


class ObservationLog:
    """Power samples per (observer, observed) pair with round indices.

    ``add`` also extends each pair's running sums of x and x * x
    (sequential float64 additions from 0.0, as ``np.cumsum`` makes them).
    ``update_beliefs`` reads them and keeps the learning state of the last
    scenario it was given here, so samples must enter the log through
    ``add``, not by appending to ``samples``.
    """

    def __init__(self):
        self.samples: dict[tuple[int, int], list[float]] = {}
        self.rounds: dict[tuple[int, int], list[int]] = {}
        self._sums: dict[tuple[int, int], tuple[list[float], list[float]]] = {}
        self._learner: _ScenarioLearner | None = None

    def add(self, observer: int, observed: int, sample: float,
            round_index: int) -> None:
        if observer == observed:
            raise ValueError("a drone does not observe itself")
        key = (observer, observed)
        prev = self.rounds.setdefault(key, [])
        if prev and round_index <= prev[-1]:
            raise ValueError("round indices must be strictly increasing")
        prev.append(round_index)
        x = float(sample)
        self.samples.setdefault(key, []).append(x)
        s1, s2 = self._sums.setdefault(key, ([0.0], [0.0]))
        s1.append(s1[-1] + x)
        s2.append(s2[-1] + x * x)


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
    never changes once its sample is logged, so a call classifies only the
    samples logged since the previous call with the same scenario (another
    scenario starts the log's learning state afresh); the beliefs equal a
    from-scratch recomputation bit for bit.
    """
    learner = log._learner
    if learner is None or learner.scenario is not scenario:
        learner = log._learner = _ScenarioLearner(scenario)
    learner.extend(list(log._sums.values()))

    ids, prior = learner.types.ids, learner.prior
    pairs = list(log._sums)
    counts = learner.counts.astype(float)
    freq = counts / counts.sum(axis=1, keepdims=True)
    # freq columns follow type ids; the table's type axis follows the
    # scenario's type set
    rows = np.zeros((len(pairs), len(prior.type_ids)))
    rows[:, [prior.type_ids.index(t) for t in ids]] = freq
    table = prior.table.copy()
    table[[learner.index[i] for i, _ in pairs],
          [learner.index[j] for _, j in pairs]] = rows
    beliefs = BeliefState(table, prior.drone_ids, prior.type_ids)

    classified = {pair: ids[k]
                  for pair, k in zip(pairs, freq.argmax(axis=1).tolist())}
    # unobserved pairs predict by the uniform-prior argmax (lowest id)
    for pair in learner.pairs:
        classified.setdefault(pair, ids[0])
    return beliefs, TypePrediction(classified)


def frobenius_convergence(prediction: TypePrediction, scenario
                          ) -> tuple[np.ndarray, float]:
    """Per-type Frobenius norms of (predicted minus true) type-indicator
    matrices, and their mean.

    For type m, entry (i, j) of the prediction matrix is 1 iff drone i
    currently predicts type m for drone j; diagonals use the true type
    (each drone knows its own).  Zero norm for every type means all
    cross-predictions are correct.  The matrices are 0/1, so each norm is
    the square root of a mismatch count.
    """
    ids = scenario.drone_ids
    truth = [scenario.drone(j).true_type for j in ids]
    classified = prediction.classified
    pred = np.array([[t if i == j else classified[(i, j)]
                      for j, t in zip(ids, truth)] for i in ids])
    type_ids = np.array(sorted(t.id for t in scenario.type_set))[:, None, None]
    mismatch = (pred == type_ids) != (np.array(truth) == type_ids)
    norms = np.sqrt(np.count_nonzero(mismatch, axis=(1, 2)).astype(float))
    return norms, float(norms.mean())
