"""Slow reference implementations that pin the library's semantics.

These are the from-scratch versions of code that ``src/`` now computes
incrementally or vectorised; the differential tests check the fast code
against them bit for bit.

- ``update_beliefs`` re-learns every pair from its whole sample history
  through ``_prefix_classifications`` (``np.cumsum`` prefix sums, then one
  KL classification per prefix) and writes the rows into a fresh uniform
  ``BeliefState``.
- ``frobenius_convergence`` builds each type's indicator matrices in a
  Python loop and takes ``np.linalg.norm`` of their difference.
"""

from __future__ import annotations

import numpy as np

from dronecoal.game import BeliefState
from dronecoal.learning import (SIGMA_FLOOR_FACTOR, ObservationLog,
                                TypePrediction)


def _prefix_classifications(samples: np.ndarray, type_set,
                            window: int | None) -> np.ndarray:
    """Classified type index after each successive sample."""
    n = len(samples)
    c1 = np.concatenate([[0.0], np.cumsum(samples)])
    c2 = np.concatenate([[0.0], np.cumsum(samples ** 2)])
    idx = np.arange(1, n + 1)
    lo = np.maximum(0, idx - window) if window else np.zeros(n, dtype=int)
    cnt = idx - lo
    mean = (c1[idx] - c1[lo]) / cnt
    var = np.maximum((c2[idx] - c2[lo]) / cnt - mean ** 2, 0.0)
    sigma = np.sqrt(var)
    sigma = np.maximum(sigma, SIGMA_FLOOR_FACTOR * np.maximum(np.abs(mean), 1.0))
    types = sorted(type_set, key=lambda t: t.id)
    kls = np.stack([
        np.log(t.sigma / sigma)
        + (sigma ** 2 + (mean - t.mu) ** 2) / (2.0 * t.sigma ** 2) - 0.5
        for t in types])
    return kls.argmin(axis=0)   # argmin takes the lowest index on ties


def update_beliefs(log: ObservationLog, type_set, scenario,
                   window: int | None = None
                   ) -> tuple[BeliefState, TypePrediction]:
    """Recompute beliefs from the observation log.

    For every pair, each logged round contributes one classification event
    (MLE over the history up to that round, then KL classification); the
    belief vector is the per-type frequency of those events.  Pairs with
    no observations keep the uniform prior.
    """
    beliefs = BeliefState.uniform(scenario)
    types = sorted(type_set, key=lambda t: t.id)
    m = len(types)
    classified: dict[tuple[int, int], int] = {}
    freqs: dict[tuple[int, int], np.ndarray] = {}
    for (observer, observed), samples in log.samples.items():
        events = _prefix_classifications(np.asarray(samples, dtype=float),
                                         types, window)
        counts = np.bincount(events, minlength=m).astype(float)
        freq = counts / counts.sum()
        # freq follows type ids; the belief row follows the scenario's
        # type set
        row = np.zeros(len(beliefs.type_ids))
        for k, t in enumerate(types):
            if t.id not in beliefs.type_ids:
                raise ValueError(f"type id {t.id} is not in the scenario")
            row[beliefs.type_ids.index(t.id)] = freq[k]
        beliefs.set_row(observer, observed, row)
        freqs[(observer, observed)] = freq
        classified[(observer, observed)] = types[int(freq.argmax())].id
    # unobserved pairs predict by the uniform-prior argmax (lowest id)
    ids = scenario.drone_ids
    uniform = np.full(m, 1.0 / m)
    for i in ids:
        for j in ids:
            if i != j and (i, j) not in classified:
                classified[(i, j)] = types[0].id
                freqs[(i, j)] = uniform.copy()
    return beliefs, TypePrediction(classified, freqs)


def frobenius_convergence(prediction: TypePrediction, scenario
                          ) -> tuple[np.ndarray, float]:
    """Per-type Frobenius norms of (predicted minus true) type-indicator
    matrices, and their mean.

    For type m, entry (i, j) of the prediction matrix is 1 iff drone i
    currently predicts type m for drone j; diagonals use the true type
    (each drone knows its own).  Zero norm for every type means all
    cross-predictions are correct.
    """
    ids = scenario.drone_ids
    types = sorted(scenario.type_set, key=lambda t: t.id)
    d = len(ids)
    norms = np.zeros(len(types))
    truth = {i: scenario.drone(i).true_type for i in ids}
    for k, t in enumerate(types):
        pred = np.zeros((d, d))
        true = np.zeros((d, d))
        for a, i in enumerate(ids):
            for b, j in enumerate(ids):
                predicted = truth[j] if i == j \
                    else prediction.classified[(i, j)]
                pred[a, b] = 1.0 if predicted == t.id else 0.0
                true[a, b] = 1.0 if truth[j] == t.id else 0.0
        norms[k] = np.linalg.norm(pred - true)
    return norms, float(norms.mean())
