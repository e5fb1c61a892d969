"""The benchmark's workloads: inputs made from the seed, the units of work
that call into dronecoal, and the checks of their outputs.

Every call into the program goes through a module attribute (for example
``bench.run_topology``), so that the traced run sees it.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from dronecoal import bench, game, markov, scenario
from dronecoal.game import CoalitionStructure
from dronecoal.propagation import ENVIRONMENTS

from harness import NON_CONVERGED, WRONG_OUTPUT, Unit

TOL = 1e-9
PAPER_SETTINGS = ["S1", "S2", "S3", "S4"]
CSV_FILES = ("summary.csv", "per_drone.csv", "convergence.csv")
AUDIT_TYPES = tuple(scenario.TypeSpec(i, mu, 3.0)
                    for i, mu in enumerate((12.0, 18.0, 24.0, 30.0)))


@dataclass(frozen=True)
class Workload:
    name: str
    # seed, scratch directory -> inputs; everything timed as set-up
    setup: Callable[[int, str], Any]
    # inputs -> the units of one pass over the workload's fixed manifest;
    # every pass gets the same inputs and fresh program state
    units: Callable[[Any], Iterator[Unit]]
    # inputs, records -> (report lines, errors) checked once after a run
    finish: Callable[[Any, list], tuple[list[str], list[str]]] = \
        lambda inputs, records: ([], [])


# -- paper_batch ------------------------------------------------------------

@dataclass
class PaperInputs:
    manifest: bench.RunManifest
    topologies: list[tuple[str, int, Any]]   # S1 t0..t4, ..., S4 t0..t4
    out_dir: str
    first_outputs: dict[str, dict[str, bytes]]


def paper_setup(seed: int, scratch: str) -> PaperInputs:
    manifest = bench.RunManifest(settings=list(PAPER_SETTINGS),
                                 topologies=5, repetitions=30, seed=seed)
    env, types = ENVIRONMENTS[manifest.environment], manifest.types()
    topologies = [(name, topo, scenario.generate(
                      scenario.SETTINGS[name], env, types,
                      seed=bench.scenario_seed(manifest, si, topo)))
                  for si, name in enumerate(manifest.settings)
                  for topo in range(manifest.topologies)]
    return PaperInputs(manifest, topologies, scratch, {})


def _paper_unit(inputs: PaperInputs, name: str, topo: int, sc) -> Unit:
    unit_name = f"{name}/t{topo}"

    def run():
        results = bench.run_topology(sc, inputs.manifest, name, topo)
        bench.emit_outputs(results, inputs.manifest, inputs.out_dir)
        files = {}
        for fname in CSV_FILES:
            path = os.path.join(inputs.out_dir, fname)
            if os.path.exists(path):
                with open(path, "rb") as f:
                    files[fname] = f.read()
                os.remove(path)
        return results, files

    def check(out):
        results, files = out
        if inputs.first_outputs.setdefault(unit_name, files) != files:
            return WRONG_OUTPUT, "CSV bytes differ from the first pass"
        return dominance_violation(sc, results)

    return Unit(unit_name, run, check)


def dominance_violation(sc, results) -> tuple[str, str] | None:
    """Acceptance criterion 7 on one topology: social optimum >= best
    stable >= baseline in total, and full-info per-drone >= baseline."""
    by: dict[str, list] = {}
    for r in results:
        by.setdefault(r.regime, []).append(r)
    stalled = [r.repetition for r in by.get("proposed", [])
               if r.note == "non-converged"]
    base, social = by["baseline"][0], by["social_optimal"][0]
    for full in by["full_info"]:
        best = full.best_stable_total
        if not (social.total_rate >= best - TOL
                and best >= base.total_rate - TOL):
            return WRONG_OUTPUT, (
                f"rep {full.repetition}: social {social.total_rate!r} >= "
                f"best stable {best!r} >= baseline {base.total_rate!r} "
                "fails")
        for d in sc.drone_ids:
            floor = base.per_drone[d] - TOL * max(1.0, base.per_drone[d])
            if full.per_drone[d] < floor:
                return WRONG_OUTPUT, (f"rep {full.repetition}: drone {d} "
                                      "below its baseline rate")
    if stalled:
        return NON_CONVERGED, f"proposed reps {stalled} did not converge"
    return None


def paper_units(inputs: PaperInputs):
    return (_paper_unit(inputs, *entry) for entry in inputs.topologies)


def paper_finish(inputs: PaperInputs, records) -> tuple[list, list]:
    """sha256 of each CSV over all topologies of the first pass, and a
    re-run of the first unit, whose bytes must not change (criterion 10)."""
    lines, errors = [], []
    for fname in CSV_FILES:
        h = hashlib.sha256()
        for files in inputs.first_outputs.values():
            h.update(files.get(fname, b""))
        lines.append(f"sha256 {fname} ({len(inputs.first_outputs)} "
                     f"topologies): {h.hexdigest()}")
    name, topo, sc = inputs.topologies[0]
    unit = _paper_unit(inputs, name, topo, sc)
    if unit.name in inputs.first_outputs:
        _, again = unit.run()
        if again != inputs.first_outputs[unit.name]:
            errors.append(f"{unit.name}: CSV bytes differ on a re-run")
    return lines, errors


# -- repeated_game_s4 ---------------------------------------------------------

@dataclass
class RepeatedInputs:
    manifest: bench.RunManifest
    scenarios: list


def repeated_setup(seed: int, scratch: str) -> RepeatedInputs:
    manifest = bench.RunManifest(settings=["S4"], topologies=5,
                                 repetitions=30, seed=seed,
                                 regimes=["proposed"])
    env, types = ENVIRONMENTS[manifest.environment], manifest.types()
    scenarios = [scenario.generate(scenario.SETTINGS["S4"], env, types,
                                   seed=bench.scenario_seed(manifest, 0, t))
                 for t in range(manifest.topologies)]
    return RepeatedInputs(manifest, scenarios)


def repeated_check(sc, result) -> tuple[str, str] | None:
    if result.note == "non-converged":
        return NON_CONVERGED, "repeated game hit max_rounds"
    final = CoalitionStructure.from_string(result.structure)
    if final.members() != tuple(sorted(sc.drone_ids)):
        return WRONG_OUTPUT, f"{result.structure} does not partition the drones"
    rates = [result.total_rate, *result.per_drone.values()]
    if not all(math.isfinite(x) for x in rates):
        return WRONG_OUTPUT, "non-finite rate"
    return None


def repeated_units(inputs: RepeatedInputs):
    """30 proposed-regime repetitions per topology sharing one payoff
    engine, as run_topology shares it."""
    m = inputs.manifest
    for topo, sc in enumerate(inputs.scenarios):
        engine = game.PayoffEngine(sc)
        for rep in range(m.repetitions):
            yield Unit(f"S4/t{topo}/r{rep}",
                       lambda sc=sc, topo=topo, rep=rep, engine=engine:
                           bench.run_regime(sc, "proposed", m, "S4", topo,
                                            rep, engine),
                       lambda result, sc=sc: repeated_check(sc, result))


# -- chain_audit_4type -----------------------------------------------------

AUDITS = 100   # scenario seeds seed .. seed+99


def audit_setup(seed: int, scratch: str) -> list:
    env = ENVIRONMENTS["urban"]
    return [scenario.generate(scenario.SETTINGS["S4"], env, AUDIT_TYPES,
                              seed=seed + i)
            for i in range(AUDITS)]


def audit(sc):
    """The `dronecoal markov --beliefs uniform` path plus a Nash scan of
    every state."""
    engine = game.PayoffEngine(sc)
    beliefs = game.BeliefState.uniform(sc)
    model = markov.build_chain(sc, beliefs, engine)
    probs = markov.formation_probabilities(model)
    stable = tuple(i for i, s in enumerate(model.states)
                   if game.is_nash_stable(s, beliefs, sc, engine)[0])
    return model.absorbing, probs, stable


def audit_check(out) -> tuple[str, str] | None:
    absorbing, probs, stable = out
    if tuple(absorbing) != stable:
        return WRONG_OUTPUT, (f"absorbing states {absorbing} != "
                              f"Nash-stable states {stable}")
    total = math.fsum(probs.values())
    if abs(total - 1.0) > TOL:
        return WRONG_OUTPUT, f"formation probabilities sum to {total!r}"
    return None


def audit_units(scenarios):
    return (Unit(f"audit/seed{sc.seed}", lambda sc=sc: audit(sc), audit_check)
            for sc in scenarios)


WORKLOADS = {w.name: w for w in (
    Workload("paper_batch", paper_setup, paper_units, finish=paper_finish),
    Workload("repeated_game_s4", repeated_setup, repeated_units),
    Workload("chain_audit_4type", audit_setup, audit_units),
)}
