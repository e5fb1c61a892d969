"""Batch execution of the comparison regimes and metric export.

Four regimes per topology: the non-cooperative baseline, best-reply
dynamics with full information, the repeated game under uncertainty
("proposed"), and the exhaustive social optimum.  Results aggregate into
CSV tables; everything is deterministic for a fixed manifest.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from dataclasses import asdict, dataclass, field

import numpy as np

from .allocation import CoalitionEvaluator
from .dynamics import (DynamicsConfig, RepeatedGameResult, run_best_reply,
                       run_repeated_game, run_repeated_games)
from .game import (BeliefState, CoalitionStructure, PayoffEngine,
                   check_engine, check_type_space, enumerate_structures,
                   weakly_better, PARTITION_CAP)
from .markov import build_chain, formation_probabilities
from .propagation import ENVIRONMENTS
from .scenario import (DEFAULT_TYPE_SET, SETTINGS, TypeSpec, baseline_rates,
                       check_keys, generate, is_int, is_number)

REGIMES = ("baseline", "full_info", "proposed", "social_optimal")
AGGREGATE_MODES = ("best_stable", "expected")


@dataclass
class RegimeResult:
    """Outcome of one regime on one (topology, repetition)."""
    regime: str
    setting: str
    topology: int
    repetition: int
    total_rate: float
    per_drone: dict[int, float]
    structure: str
    rounds_to_convergence: int | None = None
    structure_changes: int | None = None
    frobenius_series: list[float] = field(default_factory=list)
    stable_totals: dict[str, float] = field(default_factory=dict)
    formation_probs: dict[str, float] = field(default_factory=dict)
    best_stable_total: float | None = None
    note: str = ""


@dataclass
class RunManifest:
    settings: list[str] = field(default_factory=lambda: ["S1"])
    environment: str = "urban"
    type_set: list[dict] = field(default_factory=lambda: [
        {"id": t.id, "mu": t.mu, "sigma": t.sigma} for t in DEFAULT_TYPE_SET])
    topologies: int = 100
    repetitions: int = 30
    seed: int = 0
    regimes: list[str] = field(default_factory=lambda: list(REGIMES))
    output_dir: str = "out"
    epsilon: float = DynamicsConfig.epsilon
    init_grand_rounds: int = DynamicsConfig.init_grand_rounds
    max_rounds: int = DynamicsConfig.max_rounds
    stability_window: int = DynamicsConfig.stability_window
    aggregate_mode: str = "best_stable"

    def __post_init__(self):
        for name, known in (("settings", SETTINGS), ("regimes", REGIMES)):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
            for v in value:
                if not isinstance(v, str) or v not in known:
                    raise ValueError(f"unknown {name[:-1]} {v!r}")
            if len(set(value)) != len(value):
                raise ValueError(f"{name} must be distinct, got {value!r}")
        if not isinstance(self.type_set, (list, tuple)):
            raise ValueError(f"type_set must be a list, got {self.type_set!r}")
        for t in self.type_set:
            if not isinstance(t, dict) or not is_int(t.get("id")) \
                    or not all(is_number(t.get(k)) for k in ("mu", "sigma")):
                raise ValueError("type_set entries need an integer id and "
                                 f"numeric mu and sigma, got {t!r}")
        ids = [t["id"] for t in self.type_set]
        if len(set(ids)) != len(ids):
            raise ValueError(f"type_set ids must be distinct, got {ids}")
        if not isinstance(self.environment, str) \
                or self.environment not in ENVIRONMENTS:
            raise ValueError(f"unknown environment {self.environment!r}")
        if self.aggregate_mode not in AGGREGATE_MODES:
            raise ValueError(
                f"unknown aggregate_mode {self.aggregate_mode!r}")
        for name, low in (("topologies", 1), ("repetitions", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_int(value) or value < low:
                raise ValueError(
                    f"{name} must be an integer >= {low}, got {value!r}")
        if not isinstance(self.output_dir, str):
            raise ValueError(
                f"output_dir must be a string, got {self.output_dir!r}")
        if not self.output_dir:
            raise ValueError("output_dir must not be empty")
        self.dynamics(0)   # checked before any run starts
        types = self.types()   # each entry checked as a TypeSpec
        if {"full_info", "proposed"} & set(self.regimes):
            # the largest grand coalition's payoff sums m^(D-1) vectors
            check_type_space(len(types), max(
                (SETTINGS[s].d for s in self.settings), default=1) - 1)

    def dynamics(self, seed: int) -> DynamicsConfig:
        """The repeated-game settings of the run seeded ``seed``."""
        return DynamicsConfig(self.epsilon, self.init_grand_rounds,
                              self.max_rounds, self.stability_window, seed)

    def types(self) -> tuple[TypeSpec, ...]:
        return tuple(TypeSpec(t["id"], t["mu"], t["sigma"])
                     for t in self.type_set)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        with open(path) as f:
            entries = json.load(f)
        check_keys(entries, cls, "manifest field")
        return cls(**entries)


def scenario_seed(manifest: RunManifest, setting_index: int,
                  topology: int) -> int:
    return manifest.seed * 1_000_000 + setting_index * 10_000 + topology


def run_seed(manifest: RunManifest, setting_index: int, topology: int,
             repetition: int) -> int:
    return (scenario_seed(manifest, setting_index, topology) * 100
            + repetition + 1)


def structure_rates(structure: CoalitionStructure,
                    evaluator: CoalitionEvaluator) -> dict[int, float]:
    """Per-drone rates of a structure under the true expected powers, from
    its scenario's ``CoalitionEvaluator``."""
    ids, mus = evaluator.scenario.drone_ids, evaluator.scenario.true_mus
    if structure.ids != ids:
        raise ValueError(f"{structure} does not partition {ids}")
    rates: dict[int, float] = {}
    for mask in structure.masks:
        powers = [mu for i, mu in enumerate(mus) if mask >> i & 1]
        rates.update((ids[i], r)
                     for i, r in evaluator.evaluate(mask, powers).items())
    return rates


def stable_set_analysis(engine: PayoffEngine, beliefs: BeliefState):
    """All Nash-stable structures of the engine's scenario, their
    true-power totals, and the analytic formation probabilities from the
    all-singletons start."""
    model = build_chain(engine.scenario, beliefs, engine)
    probs = formation_probabilities(model)
    # a state keeps all its mass exactly when no proposer has a best reply,
    # which is is_nash_stable's definition
    stable = [model.states[i] for i in model.absorbing]
    totals = {}
    for s in stable:
        rates = structure_rates(s, engine.evaluator)
        totals[s.to_string()] = math.fsum(rates.values())
    prob_map = {model.states[i].to_string(): p for i, p in probs.items()}
    return stable, totals, prob_map, model


def _proposed_result(evaluator: CoalitionEvaluator, setting: str,
                     topology: int, repetition: int,
                     outcome: RepeatedGameResult) -> RegimeResult:
    """One repeated game's outcome as the ``proposed`` regime's result."""
    rates = structure_rates(outcome.structure, evaluator)
    return RegimeResult(
        "proposed", setting, topology, repetition,
        math.fsum(rates.values()), rates,
        outcome.structure.to_string(),
        rounds_to_convergence=len(outcome.rounds),
        frobenius_series=[r.mean_norm for r in outcome.rounds],
        note="" if outcome.converged else "non-converged")


def run_regime(scenario, regime: str, manifest: RunManifest,
               setting: str, topology: int, repetition: int,
               engine: PayoffEngine) -> RegimeResult:
    """One regime on one (topology, repetition), on the scenario's payoff
    engine.  run_topology adds the topology-only stable-set analysis to
    full_info results."""
    if setting not in manifest.settings:
        raise ValueError(f"setting {setting!r} is not in the manifest")
    check_engine(scenario, engine)
    evaluator = engine.evaluator
    singles = CoalitionStructure.singletons(scenario.drone_ids)
    seed = run_seed(manifest, manifest.settings.index(setting), topology,
                    repetition)

    if regime == "baseline":
        base = baseline_rates(evaluator)
        return RegimeResult(regime, setting, topology, repetition,
                            math.fsum(base.values()), base,
                            singles.to_string())

    if regime == "full_info":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        final, stats = run_best_reply(
            singles, engine.truth, engine, rng, manifest.stability_window)
        rates = structure_rates(final, evaluator)
        return RegimeResult(
            regime, setting, topology, repetition,
            math.fsum(rates.values()), rates, final.to_string(),
            structure_changes=stats.changes)

    if regime == "proposed":
        outcome = run_repeated_game(manifest.dynamics(seed), engine)
        return _proposed_result(evaluator, setting, topology, repetition,
                                outcome)

    if regime == "social_optimal":
        if len(scenario.drone_ids) > PARTITION_CAP:
            return RegimeResult(regime, setting, topology, repetition,
                                float("nan"), {}, "",
                                note="skipped: enumeration cap exceeded")
        base = baseline_rates(evaluator)
        best_total, best_struct, best_rates = -math.inf, None, None
        unconstrained = (-math.inf, None, None)
        for s in enumerate_structures(scenario.drone_ids):
            rates = structure_rates(s, evaluator)
            total = math.fsum(rates.values())
            if total > unconstrained[0]:
                unconstrained = (total, s, rates)
            feasible = all(weakly_better(rates[d], base[d])
                           for d in scenario.drone_ids)
            if feasible and total > best_total:
                best_total, best_struct, best_rates = total, s, rates
        note = ""
        if best_struct is None:
            best_total, best_struct, best_rates = unconstrained
            note = "fallback: no structure dominates the baseline"
        return RegimeResult(regime, setting, topology, repetition,
                            best_total, best_rates,
                            best_struct.to_string(), note=note)

    raise ValueError(f"unknown regime {regime!r}")


def run_topology(scenario, manifest: RunManifest, setting: str,
                 topology: int) -> list[RegimeResult]:
    """All requested regimes on one topology, sharing one payoff engine
    and one full-information stable-set analysis, which each full_info
    result gets its own copy of.  The proposed regime's repetitions play
    in lockstep (``run_repeated_games``)."""
    if setting not in manifest.settings:
        raise ValueError(f"setting {setting!r} is not in the manifest")
    engine = PayoffEngine(scenario)
    totals = probs = None
    if "full_info" in manifest.regimes \
            and len(scenario.drone_ids) <= PARTITION_CAP:
        _, totals, probs, _ = stable_set_analysis(engine, engine.truth)
    out = []
    for regime in manifest.regimes:
        if regime == "proposed":
            reps = range(manifest.repetitions)
            outcomes = run_repeated_games([manifest.dynamics(run_seed(
                manifest, manifest.settings.index(setting), topology, rep))
                for rep in reps], engine)
            out.extend(_proposed_result(engine.evaluator, setting, topology,
                                        rep, outcome)
                       for rep, outcome in zip(reps, outcomes))
            continue
        reps = manifest.repetitions if regime == "full_info" else 1
        for rep in range(reps):
            result = run_regime(scenario, regime, manifest, setting,
                                topology, rep, engine)
            if regime == "full_info" and totals is not None:
                result.stable_totals = dict(totals)
                result.formation_probs = dict(probs)
                result.best_stable_total = max(totals.values())
            out.append(result)
    return out


def run_manifest(manifest: RunManifest, strict: bool = False
                 ) -> list[RegimeResult]:
    results: list[RegimeResult] = []
    types = manifest.types()
    env = ENVIRONMENTS[manifest.environment]
    for si, name in enumerate(manifest.settings):
        setting = SETTINGS[name]
        for topo in range(manifest.topologies):
            scenario = generate(setting, env, types,
                                seed=scenario_seed(manifest, si, topo))
            results.extend(run_topology(scenario, manifest, name, topo))
    if strict and any(r.note == "non-converged" for r in results):
        raise RuntimeError("non-convergence in at least one run")
    return results


def aggregate(results: list[RegimeResult], mode: str) -> list[dict]:
    """Mean and sample std of the per-topology totals per (setting,
    regime).

    mode="best_stable": full-info entries use the maximum-total stable
    structure; mode="expected": they use the formation-probability-
    weighted total over stable structures.
    """
    if mode not in AGGREGATE_MODES:
        raise ValueError(f"unknown aggregate_mode {mode!r}")
    if not results:
        raise ValueError("no results to aggregate")
    grouped: dict[tuple[str, str], dict[int, list[float]]] = {}
    for r in results:
        if math.isnan(r.total_rate):
            continue
        total = r.total_rate
        if r.regime == "full_info" and r.stable_totals:
            if mode == "best_stable":
                total = max(r.stable_totals.values())
            else:
                total = math.fsum(
                    p * r.stable_totals.get(s, 0.0)
                    for s, p in r.formation_probs.items())
        grouped.setdefault((r.setting, r.regime), {}) \
            .setdefault(r.topology, []).append(total)
    rows = []
    for (setting, regime), by_topo in sorted(grouped.items()):
        topo_means = [statistics.fmean(v) for _, v in sorted(by_topo.items())]
        rows.append({
            "setting": setting,
            "regime": regime,
            "mode": mode,
            "mean_total_rate": statistics.fmean(topo_means),
            "std_total_rate": (statistics.stdev(topo_means)
                               if len(topo_means) > 1 else 0.0),
            "topologies": len(topo_means),
        })
    return rows


def emit_outputs(results: list[RegimeResult], manifest: RunManifest,
                 out_dir: str) -> list[str]:
    """Write summary, per-drone, and convergence CSVs plus the manifest
    echo.  Byte-stable for a fixed manifest."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "manifest_echo.json")
    manifest.save(path)
    written.append(path)

    if not results:
        return written

    path = os.path.join(out_dir, "summary.csv")
    rows = aggregate(results, manifest.aggregate_mode)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["setting", "environment", "regime", "mode",
                        "mean_total_rate", "std_total_rate", "topologies"])
        for row in rows:
            writer.writerow([row["setting"], manifest.environment,
                             row["regime"], row["mode"],
                             repr(row["mean_total_rate"]),
                             repr(row["std_total_rate"]),
                             row["topologies"]])
    written.append(path)

    # per-drone breakdown for the largest configured setting
    largest = max(manifest.settings, key=lambda s: SETTINGS[s].d)
    per_drone: dict[tuple[str, int], list[float]] = {}
    for r in results:
        if r.setting == largest and r.per_drone:
            for d, rate in r.per_drone.items():
                per_drone.setdefault((r.regime, d), []).append(rate)
    if per_drone:
        path = os.path.join(out_dir, "per_drone.csv")
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["setting", "regime", "drone", "mean_rate"])
            for (regime, d), vals in sorted(per_drone.items()):
                writer.writerow([largest, regime, d,
                                 repr(statistics.fmean(vals))])
        written.append(path)

    # convergence series for the proposed regime
    series: dict[tuple[str, int], list[float]] = {}
    for r in results:
        if r.regime == "proposed":
            for i, v in enumerate(r.frobenius_series):
                series.setdefault((r.setting, i), []).append(v)
    if series:
        path = os.path.join(out_dir, "convergence.csv")
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["setting", "round", "mean_norm", "runs"])
            for (setting, rnd), vals in sorted(series.items()):
                writer.writerow([setting, rnd,
                                 repr(statistics.fmean(vals)), len(vals)])
        written.append(path)
    return written
