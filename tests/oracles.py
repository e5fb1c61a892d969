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
- ``candidate_groups``, ``best_reply_step``, ``is_nash_stable`` and
  ``build_chain`` each make the best-reply decision on their own, with
  the comparisons they used before the library put them behind
  ``game.best_reply``, ``strictly_better`` and ``weakly_better``: a
  relative 1e-12 tolerance for improving moves and payoff ties, and an
  exact comparison in ``admissible``.
- ``flagged_candidate_groups`` and ``flagged_best_reply`` are the one
  decision as it was made before ``candidate_groups`` left the vetoes to
  its readers: every payoff level's targets carry their ``admissible``
  flag.  They look ``admissible`` and ``strictly_better`` up on
  ``dronecoal.game`` at call time, so a wrapper there sees their calls.
"""

from __future__ import annotations

import numpy as np

from dronecoal import game
from dronecoal.game import (BeliefState, CoalitionStructure,
                            DeviationWitness, PayoffEngine,
                            deviation_candidates, enumerate_structures)
from dronecoal.learning import (SIGMA_FLOOR_FACTOR, ObservationLog,
                                TypePrediction)
from dronecoal.markov import MarkovModel


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


# -- the best-reply decision, as each caller made it on its own -------------

def admissible(proposer: int, target: tuple[int, ...] | None,
               engine: PayoffEngine, beliefs: BeliefState) -> bool:
    """All members of the target accept: under each member's own beliefs,
    its expected payoff with the proposer is no lower than without."""
    if target is None:
        return True
    joined = frozenset(target) | {proposer}
    for j in target:
        before = engine.expected_payoff(j, frozenset(target), beliefs)
        after = engine.expected_payoff(j, joined, beliefs)
        if after < before:
            return False
    return True


def is_nash_stable(structure: CoalitionStructure, beliefs: BeliefState,
                   scenario, engine: PayoffEngine
                   ) -> tuple[bool, DeviationWitness | None]:
    """Deviation scan: the structure is stable iff no drone has a strictly
    profitable move that every member of the target coalition accepts."""
    for d in structure.members():
        current, targets = deviation_candidates(structure, d)
        q_current = engine.expected_payoff(d, frozenset(current), beliefs)
        for target in targets:
            joined = frozenset(target) | {d} if target else frozenset([d])
            q_new = engine.expected_payoff(d, joined, beliefs)
            if q_new <= q_current + _tol(q_current):
                continue
            if admissible(d, target, engine, beliefs):
                return False, DeviationWitness(d, target, q_new - q_current)
    return True, None


def _tol(x: float) -> float:
    return 1e-12 * max(1.0, abs(x))


def candidate_groups(structure: CoalitionStructure, proposer: int,
                     beliefs: BeliefState, engine: PayoffEngine):
    """Strictly improving move targets for the proposer, grouped by
    expected payoff (descending), with per-target admissibility.

    Shared by the simulated step and the analytic Markov chain so both
    encode the same decision skeleton.  Each group is a list of
    (target_block_or_None, admissible) entries at one payoff level.
    """
    current, targets = deviation_candidates(structure, proposer)
    q_current = engine.expected_payoff(proposer, frozenset(current), beliefs)
    scored = []
    for target in targets:
        joined = frozenset(target) | {proposer} if target \
            else frozenset([proposer])
        q = engine.expected_payoff(proposer, joined, beliefs)
        if q > q_current + _tol(q_current):
            scored.append((q, target))
    scored.sort(key=lambda e: -e[0])
    groups = []
    for q, target in scored:
        ok = admissible(proposer, target, engine, beliefs)
        if groups and abs(groups[-1][0] - q) <= _tol(q):
            groups[-1][1].append((target, ok))
        else:
            groups.append((q, [(target, ok)]))
    return [(q, entries) for q, entries in groups]


def best_reply_step(structure: CoalitionStructure, proposer: int,
                    beliefs: BeliefState, scenario,
                    engine: PayoffEngine,
                    rng: np.random.Generator) -> CoalitionStructure:
    """One proposal: the proposer moves to its best strictly-improving
    admissible option, falling back to the next-best payoff level when
    every maximizer at a level is vetoed.  Ties are broken uniformly at
    random; with no admissible improvement the structure is unchanged.
    """
    for _, entries in candidate_groups(structure, proposer, beliefs, engine):
        ok = [target for target, admitted in entries if admitted]
        if ok:
            target = ok[int(rng.integers(len(ok)))] if len(ok) > 1 else ok[0]
            return structure.move(proposer, target)
    return structure


def build_chain(scenario, beliefs: BeliefState,
                engine: PayoffEngine,
                veto_self_loop: bool = False) -> MarkovModel:
    """Analytic transition matrix of the best-reply process.

    With ``veto_self_loop`` the alternative reading is used: only the top
    payoff group counts, and a vetoed maximizer sends its whole share to
    the self-loop instead of falling through to the next-best group.
    """
    ids = scenario.drone_ids
    states = enumerate_structures(ids)
    index = {s: i for i, s in enumerate(states)}
    d = len(ids)
    t = np.zeros((len(states), len(states)))
    for i, w in enumerate(states):
        for proposer in ids:
            groups = candidate_groups(w, proposer, beliefs, engine)
            share = 1.0 / d
            placed = False
            for gi, (_, entries) in enumerate(groups):
                ok = [target for target, admitted in entries if admitted]
                if veto_self_loop:
                    # every maximizer in the top group gets 1/k; vetoed
                    # picks stay put
                    k = len(entries)
                    for target, admitted in entries:
                        j = index[w.move(proposer, target)] if admitted else i
                        t[i, j] += share / k
                    placed = True
                    break
                if ok:
                    for target in ok:
                        t[i, index[w.move(proposer, target)]] += \
                            share / len(ok)
                    placed = True
                    break
            if not placed:
                t[i, i] += share
    return MarkovModel(states=states, transition=t)


def flagged_candidate_groups(structure: CoalitionStructure, proposer: int,
                             beliefs: BeliefState, engine: PayoffEngine):
    """Strictly improving move targets for the proposer, grouped by
    expected payoff (descending) as (payoff, [(target_block_or_None,
    admissible), ...]); a target joins the last group unless that group's
    payoff is strictly better than its own."""
    current, targets = deviation_candidates(structure, proposer)
    q_current = engine.expected_payoff(proposer, frozenset(current), beliefs)
    scored = []
    for target in targets:
        joined = frozenset(target) | {proposer} if target \
            else frozenset([proposer])
        q = engine.expected_payoff(proposer, joined, beliefs)
        if game.strictly_better(q, q_current):
            scored.append((q, target))
    scored.sort(key=lambda e: -e[0])
    groups = []
    for q, target in scored:
        ok = game.admissible(proposer, target, engine, beliefs)
        if groups and not game.strictly_better(groups[-1][0], q):
            groups[-1][1].append((target, ok))
        else:
            groups.append((q, [(target, ok)]))
    return groups


def flagged_best_reply(structure: CoalitionStructure, proposer: int,
                       beliefs: BeliefState, engine: PayoffEngine
                       ) -> tuple[float | None, list]:
    """The admissible targets of the best payoff level of
    flagged_candidate_groups that is not wholly vetoed, with that level's
    payoff, or ``(None, [])``."""
    for q, entries in flagged_candidate_groups(structure, proposer, beliefs,
                                               engine):
        targets = [target for target, admitted in entries if admitted]
        if targets:
            return q, targets
    return None, []
