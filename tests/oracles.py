"""Slow reference implementations that pin the library's semantics.

These are the from-scratch versions of code that ``src/`` now computes
incrementally or vectorised; the differential tests check the fast code
against them bit for bit.

- ``update_beliefs`` re-learns every pair from its whole sample history
  through ``_prefix_classifications`` (``np.cumsum`` prefix sums, then one
  KL classification per prefix), writes the rows into a copy of the
  uniform table and builds the ``BeliefState`` once.
- ``with_rows`` is a state with some belief vectors replaced, built anew,
  since a ``BeliefState`` never changes.
- ``frobenius_convergence`` builds each type's indicator matrices in a
  Python loop and takes ``np.linalg.norm`` of their difference.
- ``share`` is not a reference: it feeds samples keyed by drone id to a
  one-game ``ObservationLog.share``, whose arrays follow the scenario's
  drone order.
- ``payoff`` is not a reference either: it reads an engine's payoff by
  drone ids, from the decision table's (position, mask) entry.
  ``drone``, ``baseline_users`` and ``true_spec`` find a drone, its
  baseline users and its true type by scanning the scenario, where the
  library reads them by position.
- ``candidate_groups``, ``best_reply_step``, ``is_nash_stable`` and
  ``build_chain`` each make the best-reply decision on their own, with
  the comparisons they used before the library put them behind
  ``DecisionTable.decisions``, ``strictly_better`` and ``weakly_better``:
  a relative 1e-12 tolerance for improving moves and payoff ties, and an
  exact comparison in ``admissible``.  They name coalitions by their
  blocks of drone ids and move a drone with ``move``, which builds the
  new structure from blocks, where the library moves bitmasks.
- ``flagged_candidate_groups`` and ``flagged_best_reply`` are the one
  decision as it was made before ``candidate_groups`` left the vetoes to
  its readers: every payoff level's targets carry their ``admissible``
  flag.  They look ``admissible`` and ``strictly_better`` up on
  ``dronecoal.game`` at call time, so a wrapper there sees their calls.
- ``run_best_reply`` is the best-reply walk one proposal at a time: every
  proposal runs ``best_reply_step``, and each quiet window of
  D * stability_window unchanged proposals runs the ``is_nash_stable``
  scan.  It looks those two, ``BestReplyStats``, ``NonConvergenceError``
  and ``STEP_CAP`` up at call time, so a patched cap holds for both walks.
- ``expected_payoff`` is the payoff sum as it was before it read each
  belief row once: one ``prob`` call per weight and a dict of powers per
  type vector.  ``prob`` reads one belief as a float.
- ``waterfill`` is the water-fill of one budget by a loop that lowers the
  active count from all positive-gain links until the level clears the
  worst active link's noise floor; ``rates`` turns its powers into each
  drone's rate link by link.  The library fills many budgets at once.
- ``mle_gaussian``, ``kl_gaussian`` and ``classify`` are the learner's
  closed forms for one estimate at a time: the MLE fit of a sample list,
  the KL divergence of two Gaussians, and the KL classification of one
  (mean, variance) estimate through the library's batched kernel.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dronecoal import dynamics, game
from dronecoal.game import (BeliefState, CoalitionStructure,
                            DeviationWitness, PayoffEngine,
                            enumerate_structures)
from dronecoal.learning import (SIGMA_FLOOR_FACTOR, ObservationLog,
                                _classify, _TypeColumns)
from dronecoal.markov import MarkovModel


def _prefix_classifications(samples: np.ndarray, type_set) -> np.ndarray:
    """Classified type index after each successive sample."""
    n = len(samples)
    c1 = np.concatenate([[0.0], np.cumsum(samples)])
    c2 = np.concatenate([[0.0], np.cumsum(samples ** 2)])
    idx = np.arange(1, n + 1)
    mean = c1[idx] / idx
    var = np.maximum(c2[idx] / idx - mean ** 2, 0.0)
    sigma = np.sqrt(var)
    sigma = np.maximum(sigma, SIGMA_FLOOR_FACTOR * np.maximum(np.abs(mean), 1.0))
    types = sorted(type_set, key=lambda t: t.id)
    kls = np.stack([
        np.log(t.sigma / sigma)
        + (sigma ** 2 + (mean - t.mu) ** 2) / (2.0 * t.sigma ** 2) - 0.5
        for t in types])
    return kls.argmin(axis=0)   # argmin takes the lowest index on ties


def with_rows(beliefs: BeliefState, rows: dict) -> BeliefState:
    """A new state equal to ``beliefs`` except for the given
    ``{(observer, observed): row}`` belief vectors, in the state's type
    order."""
    table = beliefs.table.copy()
    for (observer, observed), row in rows.items():
        table[beliefs.drone_ids.index(observer),
              beliefs.drone_ids.index(observed)] = row
    return BeliefState(table, beliefs.drone_ids, beliefs.type_ids)


def share(log: ObservationLog, powers: dict, pairs) -> None:
    """One ``log.share`` call on a one-game log: observer i takes
    ``powers[j]`` for every (observer id i, observed id j) in ``pairs``."""
    ids = log.scenario.drone_ids
    mask = np.zeros((1, len(ids), len(ids)), dtype=bool)
    for i, j in pairs:
        mask[0, ids.index(i), ids.index(j)] = True
    log.share(np.array([[float(powers.get(d, 0.0)) for d in ids]]), mask)


def payoff(engine: PayoffEngine, observer: int, coalition,
           beliefs: BeliefState) -> float:
    """The engine's expected payoff of drone ``observer`` in the coalition
    of drone ids ``coalition``: its decision table's entry."""
    ids = engine.ids
    return engine.table(beliefs).payoff(ids.index(observer),
                                        game.mask_of(ids, coalition))


def drone(scenario, drone_id: int):
    """The ``DroneSpec`` with id ``drone_id``."""
    return next(d for d in scenario.drones if d.id == drone_id)


def baseline_users(scenario, drone_id: int) -> tuple[int, ...]:
    """The ids of the users whose baseline drone is ``drone_id``."""
    return tuple(u.id for u in scenario.users if u.baseline_drone == drone_id)


def true_spec(scenario, drone_id: int):
    """The ``TypeSpec`` of the true type of the drone with id ``drone_id``."""
    t = drone(scenario, drone_id).true_type
    return next(spec for spec in scenario.type_set if spec.id == t)


def update_beliefs(log: ObservationLog) -> tuple[BeliefState, np.ndarray]:
    """Recompute beliefs from a one-game observation log over its
    scenario's type set.

    For every pair, each logged round contributes one classification event
    (MLE over the history up to that round, then KL classification); the
    belief vector is the per-type frequency of those events.  Pairs with
    no observations keep the uniform prior.  The prediction is a (D, D)
    array of type ids in the scenario's drone order, with the true types
    on the diagonal.
    """
    scenario = log.scenario
    uniform = BeliefState.uniform(scenario)
    table = uniform.table.copy()
    types = sorted(scenario.type_set, key=lambda t: t.id)
    m = len(types)
    observed_types: dict[tuple[int, int], int] = {}
    assert {game for game, _, _ in log.samples} <= {0}
    for (_, observer, observed), samples in log.samples.items():
        events = _prefix_classifications(np.asarray(samples, dtype=float),
                                         types)
        counts = np.bincount(events, minlength=m).astype(float)
        freq = counts / counts.sum()
        # freq follows type ids; the belief row follows the scenario's
        # type set
        row = table[uniform.drone_ids.index(observer),
                    uniform.drone_ids.index(observed)]
        for k, t in enumerate(types):
            row[uniform.type_ids.index(t.id)] = freq[k]
        observed_types[(observer, observed)] = types[int(freq.argmax())].id
    beliefs = BeliefState(table, uniform.drone_ids, uniform.type_ids)
    # unobserved pairs predict by the uniform-prior argmax (lowest id)
    ids = scenario.drone_ids
    prediction = np.array([
        [true_spec(scenario, j).id if i == j
         else observed_types.get((i, j), types[0].id) for j in ids]
        for i in ids])
    return beliefs, prediction


def frobenius_convergence(prediction: np.ndarray, scenario
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
    truth = {i: true_spec(scenario, i).id for i in ids}
    for k, t in enumerate(types):
        pred = np.zeros((d, d))
        true = np.zeros((d, d))
        for a, i in enumerate(ids):
            for b, j in enumerate(ids):
                predicted = truth[j] if i == j else prediction[a, b]
                pred[a, b] = 1.0 if predicted == t.id else 0.0
                true[a, b] = 1.0 if truth[j] == t.id else 0.0
        norms[k] = np.linalg.norm(pred - true)
    return norms, float(norms.mean())


# -- the best-reply decision, as each caller made it on its own -------------

def block_of(structure: CoalitionStructure, drone: int) -> tuple[int, ...]:
    """The block of ``structure`` that holds ``drone``."""
    return next(b for b in structure.blocks if drone in b)


def move(structure: CoalitionStructure, drone: int,
         target: tuple[int, ...] | None) -> CoalitionStructure:
    """The structure, built anew from blocks, after ``drone`` leaves its
    block and joins the block ``target`` (None: goes singleton)."""
    blocks = [[d for d in b if d != drone] for b in structure.blocks]
    if target is None:
        blocks.append([drone])
    else:
        blocks[structure.blocks.index(target)].append(drone)
    return CoalitionStructure(blocks)


def deviation_candidates(structure: CoalitionStructure, proposer: int):
    """Blocks the proposer could join, plus the singleton option (None)."""
    current = block_of(structure, proposer)
    targets: list[tuple[int, ...] | None] = [
        b for b in structure.blocks if b != current]
    if len(current) > 1:
        targets.append(None)
    return current, targets


def admissible(proposer: int, target: tuple[int, ...] | None,
               engine: PayoffEngine, beliefs: BeliefState) -> bool:
    """All members of the target accept: under each member's own beliefs,
    its expected payoff with the proposer is no lower than without."""
    if target is None:
        return True
    joined = frozenset(target) | {proposer}
    for j in target:
        before = payoff(engine, j, target, beliefs)
        after = payoff(engine, j, joined, beliefs)
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
        q_current = payoff(engine, d, current, beliefs)
        for target in targets:
            joined = frozenset(target) | {d} if target else frozenset([d])
            q_new = payoff(engine, d, joined, beliefs)
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
    q_current = payoff(engine, proposer, current, beliefs)
    scored = []
    for target in targets:
        joined = frozenset(target) | {proposer} if target \
            else frozenset([proposer])
        q = payoff(engine, proposer, joined, beliefs)
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
            return move(structure, proposer, target)
    return structure


def run_best_reply(initial: CoalitionStructure, beliefs: BeliefState,
                   engine: PayoffEngine, rng: np.random.Generator,
                   stability_window: int = 10,
                   tie_rng: np.random.Generator | None = None):
    """Iterate uniformly random proposers until the structure is stable,
    verifying it with the deviation scan after D * stability_window
    consecutive unchanged proposals."""
    tie_rng = tie_rng or rng
    ids = list(initial.members())
    d = len(ids)
    structure = initial
    stats = dynamics.BestReplyStats()
    quiet = 0
    trace = [structure]
    while stats.proposals < dynamics.STEP_CAP:
        proposer = ids[int(rng.integers(d))]
        new = dynamics.best_reply_step(structure, proposer, beliefs, engine,
                                       tie_rng)
        stats.proposals += 1
        if new == structure:
            quiet += 1
            if quiet >= d * stability_window:
                stable, _ = game.is_nash_stable(structure, beliefs,
                                                engine.scenario, engine)
                if stable:
                    return structure, stats
                quiet = 0
        else:
            stats.changes += 1
            quiet = 0
            structure = new
            trace.append(structure)
    raise dynamics.NonConvergenceError(
        f"no stable structure within {dynamics.STEP_CAP} proposals", trace)


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
                        j = index[move(w, proposer, target)] if admitted \
                            else i
                        t[i, j] += share / k
                    placed = True
                    break
                if ok:
                    for target in ok:
                        t[i, index[move(w, proposer, target)]] += \
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
    q_current = payoff(engine, proposer, current, beliefs)
    scored = []
    for target in targets:
        joined = frozenset(target) | {proposer} if target \
            else frozenset([proposer])
        q = payoff(engine, proposer, joined, beliefs)
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


def prob(beliefs: BeliefState, observer: int, observed: int,
         type_id: int) -> float:
    """Observer's belief that ``observed`` has type ``type_id``, indexed
    into the table through its id tuples, not by the engine's positions."""
    return float(beliefs.table[beliefs.drone_ids.index(observer),
                               beliefs.drone_ids.index(observed),
                               beliefs.type_ids.index(type_id)])


def expected_payoff(scenario, evaluator, observer: int, coalition: frozenset,
                    beliefs: BeliefState) -> float:
    """Observer's expected rate in the coalition, one type vector of the
    other members at a time."""
    others = sorted(coalition - {observer})
    ids = scenario.drone_ids
    mask = sum(1 << ids.index(d) for d in coalition)
    own_power = true_spec(scenario, observer).mu
    type_ids = [t.id for t in scenario.type_set]
    mus = {t.id: t.mu for t in scenario.type_set}
    total = 0.0
    for combo in itertools.product(type_ids, repeat=len(others)):
        weight = 1.0
        powers = {observer: own_power}
        for j, t in zip(others, combo):
            weight *= prob(beliefs, observer, j, t)
            powers[j] = mus[t]
        if weight == 0.0:
            continue
        rates = evaluator.evaluate(
            mask, [powers[d] for d in sorted(coalition)])
        total += weight * rates[ids.index(observer)]
    return total


# -- water-filling, one budget at a time ------------------------------------

def waterfill(gains: np.ndarray, budget: float) -> tuple[np.ndarray, float]:
    """Powers and water level of one budget over the gains."""
    gains = np.asarray(gains, dtype=float)
    p = np.zeros_like(gains)
    active = np.flatnonzero(gains > 0)
    if len(active) == 0 or budget == 0:
        return p, 0.0
    inv = 1.0 / gains[active]
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
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
    return p, float(mu)


def rates(members, owners, gains, budget: float,
          bandwidth: float) -> dict[int, float]:
    """Each member's rate at one budget: the rates of the links it owns
    (``owners[k]`` owns link k), in link order, added to 0.0."""
    powers, _ = waterfill(gains, budget)
    per_drone = {d: 0.0 for d in members}
    for d, p, g in zip(owners, powers, gains):
        per_drone[d] += bandwidth * math.log2(1.0 + p * g)
    return per_drone


# -- the learner's closed forms, one estimate at a time ---------------------

def mle_gaussian(samples) -> tuple[float, float]:
    """Maximum-likelihood Gaussian fit: sample mean and biased (1/N)
    variance."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("at least one sample is required")
    mu = float(samples.mean())
    sigma2 = float(np.mean((samples - mu) ** 2))
    return mu, sigma2


def kl_gaussian(p: tuple[float, float], q: tuple[float, float]) -> float:
    """KL divergence (nats) between Gaussians given as (mean, std)."""
    mu1, sigma1 = p
    mu2, sigma2 = q
    if sigma2 <= 0:
        raise ValueError("reference std must be positive")
    if sigma1 <= 0:
        raise ValueError("std of the first argument must be positive")
    return float(math.log(sigma2 / sigma1)
                 + (sigma1 ** 2 + (mu1 - mu2) ** 2) / (2.0 * sigma2 ** 2)
                 - 0.5)


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
