"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from dronecoal.allocation import max_weight_matching, waterfill
from dronecoal.bench import (RunManifest, emit_outputs, run_manifest,
                             run_topology)
from dronecoal.dynamics import (DynamicsConfig, best_reply_step,
                                run_best_reply, run_repeated_game)
from dronecoal.game import (BeliefState, CoalitionStructure, PayoffEngine,
                            enumerate_structures, is_nash_stable)
from dronecoal.learning import kl_gaussian, mle_gaussian
from dronecoal.markov import (absorbing_states, build_chain,
                              formation_probabilities)
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, TypeSpec, generate

URBAN = ENVIRONMENTS["urban"]


def _report(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line, file=sys.stderr)
    assert ok, line


# -- shared heavyweight fixtures ---------------------------------------------

@pytest.fixture(scope="module")
def dominance_runs():
    """Baseline / full-info / social-optimal on 100 topologies per setting."""
    manifest = RunManifest(settings=["S1", "S2", "S3", "S4"],
                           topologies=100, repetitions=1,
                           regimes=["baseline", "full_info",
                                    "social_optimal"])
    runs = {}
    for si, name in enumerate(manifest.settings):
        for topo in range(manifest.topologies):
            sc = generate(SETTINGS[name], URBAN,
                          seed=si * 10_000 + topo)
            runs[(name, topo)] = (
                sc, *run_topology(sc, manifest, name, topo))
    return runs


def test_criterion_1_partition_enumeration():
    t0 = time.time()
    bells = [len(enumerate_structures(range(d))) for d in range(1, 7)]
    elapsed = time.time() - t0
    ok = bells == [1, 2, 5, 15, 52, 203] and elapsed < 1.0
    _report(1, "partition enumeration", ok,
            f"bells={bells}, {elapsed:.2f}s")


def test_criterion_2_matching_oracle():
    t0 = time.time()
    rng = np.random.default_rng(1000)
    mismatches = 0
    for _ in range(1000):
        n_rows = int(rng.integers(1, 7))
        n_cols = int(rng.integers(1, 7))
        w = rng.uniform(0.0, 10.0, size=(n_rows, n_cols))
        pairs = max_weight_matching(w)
        got = sum(w[r, c] for r, c in pairs)
        best = -math.inf
        if n_rows <= n_cols:
            for perm in itertools.permutations(range(n_cols), n_rows):
                best = max(best, sum(w[r, c] for r, c in enumerate(perm)))
        else:
            for perm in itertools.permutations(range(n_rows), n_cols):
                best = max(best, sum(w[r, c] for c, r in enumerate(perm)))
        if abs(got - best) > 1e-9 * max(1.0, abs(best)):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _report(2, "matching oracle", ok,
            f"mismatches={mismatches}/1000, {elapsed:.2f}s")


def test_criterion_3_waterfilling_kkt():
    rng = np.random.default_rng(1001)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        gains = rng.uniform(0.001, 10.0, size=n)
        budget = float(rng.uniform(0.01, 30.0))
        p, mu = waterfill(gains, budget)
        if abs(math.fsum(p) - budget) > 1e-9 * max(1.0, budget):
            violations += 1
            continue
        for g, pw in zip(gains, p):
            if pw > 1e-12:
                if abs(pw + 1.0 / g - mu) > 1e-9 * max(1.0, mu):
                    violations += 1
                    break
            elif 1.0 / g < mu - 1e-9 * max(1.0, mu):
                violations += 1
                break
    hand, hand_mu = waterfill(np.array([1.0, 0.5]), 3.0)
    hand_ok = np.allclose(hand, [2.0, 1.0]) and abs(hand_mu - 3.0) < 1e-12
    ok = violations == 0 and hand_ok
    _report(3, "water-filling KKT", ok,
            f"violations={violations}/1000, hand case {list(hand)}")


def test_criterion_4_kl_mle_closed_forms():
    kl = kl_gaussian((12.0, 3.0), (18.0, 3.0))
    mu, sigma2 = mle_gaussian([1.0, 2.0, 3.0])
    ok = abs(kl - 2.0) <= 1e-12 and mu == 2.0 and sigma2 == 2.0 / 3.0
    _report(4, "KL/MLE closed forms", ok,
            f"kl={kl!r}, mle=({mu!r}, {sigma2!r})")


def test_criterion_5_stability_cross_check():
    t0 = time.time()
    failures = 0
    for name, count in (("S1", 25), ("S2", 25)):
        for seed in range(count):
            sc = generate(SETTINGS[name], URBAN, seed=5000 + seed)
            engine = PayoffEngine(sc)
            beliefs = BeliefState.point_mass_truth(sc)
            model = build_chain(sc, beliefs, engine)
            absorbing = {model.states[i]
                         for i in absorbing_states(model)}
            stable = {s for s in model.states
                      if is_nash_stable(s, beliefs, sc, engine)[0]}
            final, _ = run_best_reply(
                CoalitionStructure.singletons(sc.drone_ids), beliefs, sc,
                engine, np.random.default_rng(seed))
            if absorbing != stable or final not in stable:
                failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 120.0
    _report(5, "stability cross-check", ok,
            f"failures={failures}/50, {elapsed:.1f}s")


def test_criterion_6_markov_oracle():
    fixtures = [("S1", 0), ("S1", 8), ("S1", 17), ("S2", 0), ("S2", 15),
                ("S2", 26), ("S2", 47), ("S2", 59), ("S2", 87), ("S2", 98)]
    trajectories = 10_000
    rng = np.random.default_rng(1002)
    mismatched = []
    multi_absorbing_four_drone = 0
    for name, seed in fixtures:
        sc = generate(SETTINGS[name], URBAN, seed=seed)
        engine = PayoffEngine(sc)
        beliefs = BeliefState.point_mass_truth(sc)
        model = build_chain(sc, beliefs, engine)
        analytic = formation_probabilities(model)
        absorbing = set(absorbing_states(model))
        if name == "S2" and len(absorbing) >= 2:
            multi_absorbing_four_drone += 1
        ids = sc.drone_ids
        start = CoalitionStructure.singletons(ids)
        counts = {a: 0 for a in absorbing}
        for _ in range(trajectories):
            state = start
            idx = model.index(state)
            steps = 0
            while idx not in absorbing:
                proposer = ids[int(rng.integers(len(ids)))]
                state = best_reply_step(state, proposer, beliefs, engine,
                                        rng)
                idx = model.index(state)
                steps += 1
                assert steps < 10_000
            counts[idx] += 1
        for a in absorbing:
            p = analytic[a]
            freq = counts[a] / trajectories
            se = math.sqrt(max(p * (1 - p), 1e-12) / trajectories)
            if abs(freq - p) > 3 * se + 1e-9:
                mismatched.append((name, seed, model.states[a].to_string(),
                                   p, freq))
    ok = not mismatched and multi_absorbing_four_drone >= 1
    _report(6, "Markov oracle", ok,
            f"mismatches={mismatched}, "
            f"4-drone multi-absorbing fixtures="
            f"{multi_absorbing_four_drone}")


def test_criterion_7_dominance_chain(dominance_runs):
    t0 = time.time()
    tol = 1e-9
    violations = []
    for (name, topo), (sc, base, full, social) in dominance_runs.items():
        if not (social.total_rate >= full.best_stable_total - tol
                and full.best_stable_total >= base.total_rate - tol):
            violations.append((name, topo, "total ordering"))
        for d in sc.drone_ids:
            if full.per_drone[d] < base.per_drone[d] - \
                    tol * max(1.0, base.per_drone[d]):
                violations.append((name, topo, f"drone {d} below baseline"))
    # strict mean ordering per setting
    for name in ("S1", "S2", "S3", "S4"):
        entries = [(b, f, s) for (n, _), (_, b, f, s)
                   in dominance_runs.items() if n == name]
        mean_base = np.mean([b.total_rate for b, _, _ in entries])
        mean_full = np.mean([f.best_stable_total for _, f, _ in entries])
        mean_social = np.mean([s.total_rate for _, _, s in entries])
        if not mean_base <= mean_full <= mean_social:
            violations.append((name, "-", "mean ordering"))
    elapsed = time.time() - t0
    ok = not violations
    _report(7, "dominance chain", ok,
            f"violations={violations[:5]}, 400 topologies, {elapsed:.1f}s")


def test_criterion_8_learning_convergence():
    t0 = time.time()
    sharp = (TypeSpec(0, 12.0, 3.0), TypeSpec(1, 18.0, 3.0))
    overlap = (TypeSpec(0, 12.0, 6.0), TypeSpec(1, 18.0, 6.0))
    topologies = 100
    reached_zero = 0
    final_sharp, final_overlap = [], []
    for seed in range(topologies):
        config = DynamicsConfig(epsilon=0.1, max_rounds=100, seed=seed)
        sc = generate(SETTINGS["S1"], URBAN, type_set=sharp, seed=seed)
        result = run_repeated_game(sc, config)
        norms = [r.mean_norm for r in result.rounds]
        if any(n == 0.0 for n in norms):
            reached_zero += 1
        final_sharp.append(norms[-1])
        sc6 = generate(SETTINGS["S1"], URBAN, type_set=overlap, seed=seed)
        final_overlap.append(
            run_repeated_game(sc6, config).rounds[-1].mean_norm)
    frac = reached_zero / topologies
    mean_sharp = float(np.mean(final_sharp))
    mean_overlap = float(np.mean(final_overlap))
    elapsed = time.time() - t0
    ok = frac >= 0.90 and mean_overlap > mean_sharp
    _report(8, "learning convergence", ok,
            f"zero-norm fraction={frac:.2f}, final norms "
            f"sigma3={mean_sharp:.3f} < sigma6={mean_overlap:.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_9_best_reply_budget(dominance_runs):
    changes = [full.structure_changes
               for (_, _, full, _) in dominance_runs.values()]
    within = sum(c <= 50 for c in changes) / len(changes)
    ok = within >= 0.95
    _report(9, "best-reply convergence budget", ok,
            f"within-50 fraction={within:.3f}, max={max(changes)}, "
            f"n={len(changes)}")


def test_criterion_10_determinism(tmp_path):
    manifest = RunManifest(settings=["S1"], topologies=2, repetitions=2,
                           seed=0, max_rounds=120)
    names = ("summary.csv", "per_drone.csv", "convergence.csv",
             "manifest_echo.json")
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        results = run_manifest(manifest)
        emit_outputs(results, manifest, str(out))
        digests.append(tuple((out / n).read_bytes() for n in names))
    ok = digests[0] == digests[1]
    _report(10, "determinism", ok,
            "byte-identical CSVs across re-runs" if ok else "files differ")
