import json
import math
import os

import numpy as np
import pytest

from dronecoal import bench
from dronecoal.allocation import CoalitionEvaluator
from dronecoal.dynamics import NonConvergenceError, run_repeated_game
from dronecoal.bench import (REGIMES, RegimeResult, RunManifest, aggregate,
                             emit_outputs, run_manifest, run_regime,
                             run_seed, run_topology, scenario_seed,
                             stable_set_analysis, structure_rates)
from dronecoal.game import (BeliefState, CoalitionStructure, PayoffEngine,
                            enumerate_structures, is_nash_stable)
from dronecoal.markov import build_chain
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import (SETTINGS, Scenario, SimulationSetting,
                                baseline_rates, generate)

URBAN = ENVIRONMENTS["urban"]


def tiny_manifest(**overrides):
    kw = dict(settings=["S1"], topologies=2, repetitions=2, seed=0,
              max_rounds=120, output_dir="out")
    kw.update(overrides)
    return RunManifest(**kw)


class TestRunManifestConfig:
    def test_defaults(self):
        m = RunManifest()
        assert m.settings == ["S1"]
        assert m.regimes == list(REGIMES)
        assert m.epsilon == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            RunManifest(settings=["S9"])
        with pytest.raises(ValueError):
            RunManifest(environment="ocean")
        with pytest.raises(ValueError):
            RunManifest(regimes=["baseline", "other"])
        with pytest.raises(ValueError):
            RunManifest(topologies=0)

    def test_save_load_round_trip(self, tmp_path):
        m = tiny_manifest(environment="dense_urban", epsilon=0.2)
        path = tmp_path / "manifest.json"
        m.save(path)
        assert RunManifest.load(path) == m

    def test_seed_arithmetic(self):
        m = tiny_manifest(seed=3)
        assert scenario_seed(m, 1, 7) == 3_010_007
        assert run_seed(m, 1, 7, 0) == 301_000_701
        # distinct across (setting, topology, repetition)
        seen = {run_seed(m, si, t, r)
                for si in range(2) for t in range(50) for r in range(30)}
        assert len(seen) == 2 * 50 * 30


class TestStructureRates:
    def test_singletons_match_baseline(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=8)
        engine = PayoffEngine(sc)
        rates = structure_rates(CoalitionStructure.singletons(sc.drone_ids),
                                engine.evaluator)
        base = baseline_rates(CoalitionEvaluator(sc))
        for d in sc.drone_ids:
            assert rates[d] == pytest.approx(base[d])

    def test_every_drone_present(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=8)
        engine = PayoffEngine(sc)
        for s in enumerate_structures(sc.drone_ids):
            rates = structure_rates(s, engine.evaluator)
            assert set(rates) == set(sc.drone_ids)

    def test_rates_keyed_by_drone_id_whatever_the_ids(self):
        # spaced ids in reverse order, so no drone's id is its position:
        # every structure's rates, and the baseline's, map across
        sc = generate(SETTINGS["S2"], URBAN, seed=8)
        relabel = {d: 10 + 7 * (len(sc.drones) - 1 - d) for d in sc.drone_ids}
        data = sc.to_dict()
        for drone in data["drones"]:
            drone["id"] = relabel[drone["id"]]
        for user in data["users"]:
            user["baseline_drone"] = relabel[user["baseline_drone"]]
        other = Scenario.from_dict(data)
        ev, other_ev = CoalitionEvaluator(sc), CoalitionEvaluator(other)
        assert baseline_rates(other_ev) == {
            relabel[d]: r for d, r in baseline_rates(ev).items()}
        for s in enumerate_structures(sc.drone_ids):
            mapped = CoalitionStructure([[relabel[d] for d in b]
                                         for b in s.blocks])
            assert structure_rates(mapped, other_ev) == {
                relabel[d]: r for d, r in structure_rates(s, ev).items()}

    def test_structure_over_other_drones_refused(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=8)
        other = CoalitionStructure.singletons([d + 1 for d in sc.drone_ids])
        with pytest.raises(ValueError, match="does not partition"):
            structure_rates(other, CoalitionEvaluator(sc))


@pytest.fixture(scope="module")
def s1():
    return generate(SETTINGS["S1"], URBAN, seed=8)


def topology_regimes(sc):
    """Baseline, full-info and social-optimum results of one repetition
    on one topology, through run_topology."""
    m = tiny_manifest(repetitions=1,
                      regimes=["baseline", "full_info", "social_optimal"])
    return run_topology(sc, m, "S1", 0)


class TestRunRegime:
    def test_baseline(self, s1):
        m = tiny_manifest()
        r = run_regime(s1, "baseline", m, "S1", 0, 0, PayoffEngine(s1))
        assert r.structure == "{0}{1}{2}"
        base = baseline_rates(CoalitionEvaluator(s1))
        assert r.total_rate == pytest.approx(math.fsum(base.values()))

    def test_full_info_reports_stable_set(self, s1):
        _, r, _ = topology_regimes(s1)
        assert r.regime == "full_info"
        assert r.stable_totals
        assert r.best_stable_total == max(r.stable_totals.values())
        assert sum(r.formation_probs.values()) == pytest.approx(1.0)
        assert r.structure in r.stable_totals
        base = baseline_rates(CoalitionEvaluator(s1))
        assert r.total_rate >= math.fsum(base.values()) - 1e-9

    def test_proposed_records_series(self, s1):
        m = tiny_manifest()
        r = run_regime(s1, "proposed", m, "S1", 0, 0, PayoffEngine(s1))
        assert r.rounds_to_convergence == len(r.frobenius_series)
        assert r.note == ""
        assert r.frobenius_series[-1] == 0.0

    def test_best_reply_cycle_ends_the_run_unconverged(self, monkeypatch):
        # S4 seed 0, topology 2, repetition 23: under one round's learned
        # beliefs no structure is Nash-stable and best reply cycles
        m = RunManifest(settings=["S4"], topologies=5, repetitions=30,
                        seed=0, regimes=["proposed"])
        sc = generate(SETTINGS["S4"], URBAN, m.types(),
                      seed=scenario_seed(m, 0, 2))
        outcomes = []

        def recording(*args):
            outcomes.append(run_repeated_game(*args))
            return outcomes[-1]

        monkeypatch.setattr(bench, "run_repeated_game", recording)
        r = run_regime(sc, "proposed", m, "S4", 2, 23, PayoffEngine(sc))
        assert r.note == "non-converged"
        assert CoalitionStructure.from_string(r.structure).members() == \
            tuple(sorted(sc.drone_ids))
        assert all(math.isfinite(x)
                   for x in [r.total_rate, *r.per_drone.values()])
        stall = outcomes[0].stall
        assert isinstance(stall, NonConvergenceError)
        # the run keeps the last structure that formed, where the stalled
        # best-reply run started
        assert r.structure == stall.trace[0].to_string()
        cycle = ["{0}{1,5}{2}{3,4}", "{0}{1,3,4}{2}{5}",
                 "{0}{1,3}{2}{4,5}", "{0}{1,3,5}{2}{4}"]
        assert [s.to_string() for s in stall.trace[-8:]] == cycle * 2

    def test_social_optimal_dominates(self, s1):
        base, full, social = topology_regimes(s1)
        assert social.total_rate >= full.best_stable_total - 1e-9
        assert full.best_stable_total >= base.total_rate - 1e-9
        # per-drone feasibility unless flagged as a fallback
        if not social.note:
            for d, rate in social.per_drone.items():
                assert rate >= base.per_drone[d] - 1e-6

    def test_unknown_regime(self, s1):
        with pytest.raises(ValueError):
            run_regime(s1, "magic", tiny_manifest(), "S1", 0, 0,
                       PayoffEngine(s1))

    def test_unknown_setting(self, s1):
        # a setting outside the manifest has no seeds of its own
        with pytest.raises(ValueError, match="not in the manifest"):
            run_regime(s1, "baseline", tiny_manifest(), "S2", 0, 0,
                       PayoffEngine(s1))

    def test_engine_of_another_scenario_refused(self, s1):
        # the three entries that take a scenario beside its engine make one
        # check: an engine of another scenario is refused, not read
        engine = PayoffEngine(generate(SETTINGS["S1"], URBAN, seed=9))
        singles = CoalitionStructure.singletons(s1.drone_ids)
        for call in (
                lambda: run_regime(s1, "baseline", tiny_manifest(), "S1",
                                   0, 0, engine),
                lambda: build_chain(s1, engine.truth, engine),
                lambda: is_nash_stable(singles, engine.truth, s1, engine)):
            with pytest.raises(ValueError, match="not the scenario's"):
                call()
        # an equal scenario that is another object is the engine's
        twin = generate(SETTINGS["S1"], URBAN, seed=9)
        assert twin is not engine.scenario
        assert build_chain(twin, engine.truth, engine).states
        assert is_nash_stable(singles, engine.truth, twin, engine) == \
            is_nash_stable(singles, engine.truth, engine.scenario, engine)

    def test_full_info_leaves_analysis_to_run_topology(self, s1):
        r = run_regime(s1, "full_info", tiny_manifest(), "S1", 0, 0,
                       PayoffEngine(s1))
        assert r.stable_totals == {}
        assert r.formation_probs == {}
        assert r.best_stable_total is None

    def test_single_drone_all_regimes_equal(self):
        setting = SimulationSetting("one", 1, 3, 3, 3, 3)
        sc = generate(setting, URBAN, seed=0)
        m = tiny_manifest()
        totals = {}
        for regime in REGIMES:
            r = run_regime(sc, regime, m, "S1", 0, 0, PayoffEngine(sc))
            totals[regime] = r.total_rate
        ref = totals["baseline"]
        for regime, total in totals.items():
            assert total == pytest.approx(ref), regime


class TestStableSetAnalysis:
    def test_consistency(self):
        sc = generate(SETTINGS["S1"], URBAN, seed=8)
        engine = PayoffEngine(sc)
        for beliefs in (BeliefState.point_mass_truth(sc),
                        BeliefState.uniform(sc)):
            stable, totals, probs, model = stable_set_analysis(engine,
                                                               beliefs)
            # the chain's absorbing states are the Nash-stable structures,
            # in enumeration order
            assert stable == [s for s in enumerate_structures(sc.drone_ids)
                              if is_nash_stable(s, beliefs, sc, engine)[0]]
            assert {s.to_string() for s in stable} == set(totals)
            assert set(probs) <= set(totals)
            assert sum(probs.values()) == pytest.approx(1.0)


class TestRunTopology:
    def test_analysis_runs_once_per_topology(self, s1, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].scenario)
            return stable_set_analysis(*args, **kwargs)

        monkeypatch.setattr(bench, "stable_set_analysis", counting)
        m = tiny_manifest(repetitions=3)
        results = run_topology(s1, m, "S1", 0)
        assert calls == [s1]
        assert sum(r.regime == "full_info" for r in results) == 3

    def test_each_full_info_result_owns_the_analysis(self, s1):
        m = tiny_manifest(repetitions=3,
                          regimes=["baseline", "full_info", "social_optimal"])
        results = run_topology(s1, m, "S1", 0)
        full = [r for r in results if r.regime == "full_info"]
        assert len(full) == 3
        _, totals, probs, _ = stable_set_analysis(
            PayoffEngine(s1), BeliefState.point_mass_truth(s1))
        for r in full:
            assert r.stable_totals == totals
            assert r.formation_probs == probs
            assert r.best_stable_total == max(totals.values())
        dicts = [d for r in results
                 for d in (r.stable_totals, r.formation_probs)]
        assert len({id(d) for d in dicts}) == len(dicts)

    def test_no_analysis_without_full_info(self, s1, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("stable_set_analysis called")

        monkeypatch.setattr(bench, "stable_set_analysis", fail)
        m = tiny_manifest(regimes=["baseline", "social_optimal"])
        assert [r.regime for r in run_topology(s1, m, "S1", 0)] == \
            ["baseline", "social_optimal"]


class TestAggregate:
    def _result(self, regime, topo, rep, total, **kw):
        return RegimeResult(regime, "S1", topo, rep, total, {0: total},
                            "{0}", **kw)

    def test_mean_and_std_over_topologies(self):
        results = [self._result("baseline", 0, 0, 10.0),
                   self._result("baseline", 1, 0, 14.0)]
        rows = aggregate(results, "best_stable")
        assert len(rows) == 1
        assert rows[0]["mean_total_rate"] == pytest.approx(12.0)
        assert rows[0]["std_total_rate"] == pytest.approx(
            math.sqrt(8.0))   # sample std of [10, 14]
        assert rows[0]["topologies"] == 2

    def test_repetitions_average_within_topology(self):
        results = [self._result("proposed", 0, 0, 10.0),
                   self._result("proposed", 0, 1, 14.0)]
        rows = aggregate(results, "best_stable")
        assert rows[0]["mean_total_rate"] == pytest.approx(12.0)
        assert rows[0]["topologies"] == 1

    def test_full_info_best_stable_vs_expected(self):
        stable_totals = {"{0,1}": 10.0, "{0}{1}": 6.0}
        probs = {"{0,1}": 0.7, "{0}{1}": 0.3}
        results = [self._result("full_info", 0, 0, 6.0,
                                stable_totals=stable_totals,
                                formation_probs=probs)]
        best = aggregate(results, "best_stable")
        assert best[0]["mean_total_rate"] == pytest.approx(10.0)
        expected = aggregate(results, "expected")
        assert expected[0]["mean_total_rate"] == pytest.approx(
            0.7 * 10.0 + 0.3 * 6.0)   # 8.8

    def test_nan_entries_skipped(self):
        results = [self._result("baseline", 0, 0, 10.0),
                   self._result("social_optimal", 0, 0, float("nan"))]
        rows = aggregate(results, "best_stable")
        assert len(rows) == 1

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            aggregate([self._result("baseline", 0, 0, 1.0)], "median")
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], "best_stable")


@pytest.fixture(scope="module")
def small_run():
    manifest = tiny_manifest(topologies=2, repetitions=1,
                             regimes=["baseline", "full_info", "proposed",
                                      "social_optimal"])
    return manifest, run_manifest(manifest)


class TestRunManifestExecution:
    def test_result_counts(self, small_run):
        manifest, results = small_run
        # per topology: 1 baseline + reps full_info + reps proposed + 1 social
        assert len(results) == manifest.topologies * 4
        regimes = {r.regime for r in results}
        assert regimes == set(REGIMES)

    def test_regime_dominance_per_topology(self, small_run):
        _, results = small_run
        by_key = {(r.regime, r.topology): r for r in results}
        for topo in (0, 1):
            base = by_key[("baseline", topo)]
            full = by_key[("full_info", topo)]
            social = by_key[("social_optimal", topo)]
            assert social.total_rate >= full.best_stable_total - 1e-9
            assert full.best_stable_total >= base.total_rate - 1e-9

    def test_deterministic_rerun(self, small_run):
        manifest, results = small_run
        again = run_manifest(manifest)
        assert [(r.regime, r.topology, r.repetition, r.total_rate,
                 r.structure) for r in results] == \
            [(r.regime, r.topology, r.repetition, r.total_rate,
              r.structure) for r in again]


class TestEmitOutputs:
    def test_files_written(self, small_run, tmp_path):
        manifest, results = small_run
        files = emit_outputs(results, manifest, str(tmp_path))
        names = {os.path.basename(f) for f in files}
        assert {"manifest_echo.json", "summary.csv", "per_drone.csv",
                "convergence.csv"} <= names

    def test_summary_columns(self, small_run, tmp_path):
        manifest, results = small_run
        emit_outputs(results, manifest, str(tmp_path))
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == ("setting,environment,regime,mode,"
                            "mean_total_rate,std_total_rate,topologies")
        assert len(lines) == 1 + 4   # one row per regime

    def test_byte_identical_reruns(self, small_run, tmp_path):
        manifest, results = small_run
        a, b = tmp_path / "a", tmp_path / "b"
        emit_outputs(results, manifest, str(a))
        emit_outputs(run_manifest(manifest), manifest, str(b))
        for name in ("summary.csv", "per_drone.csv", "convergence.csv",
                     "manifest_echo.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_manifest_echo_loads(self, small_run, tmp_path):
        manifest, results = small_run
        emit_outputs(results, manifest, str(tmp_path))
        echoed = RunManifest.load(tmp_path / "manifest_echo.json")
        assert echoed == manifest
