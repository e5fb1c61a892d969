import importlib.metadata as md
import json
import os
from pathlib import Path

import pytest

from dronecoal import cli
from dronecoal.bench import RunManifest
from dronecoal.cli import (EXIT_NON_CONVERGENCE, EXIT_OK, EXIT_VALIDATION,
                           build_parser, main)
from dronecoal.dynamics import NonConvergenceError
from dronecoal.scenario import Scenario

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def _dronecoal_installed():
    try:
        md.distribution("dronecoal")
    except md.PackageNotFoundError:
        return False
    return True


def _write_manifest(path, **overrides):
    kw = dict(settings=["S1"], topologies=1, repetitions=1, seed=0,
              max_rounds=120, output_dir=str(path.parent / "out"))
    kw.update(overrides)
    manifest = RunManifest(**kw)
    manifest.save(path)
    return manifest


class TestGenerate:
    def test_writes_loadable_scenario(self, tmp_path):
        out = tmp_path / "scenario.json"
        code = main(["generate", "--setting", "S2", "--seed", "5",
                     "--out", str(out)])
        assert code == EXIT_OK
        sc = Scenario.load(out)
        assert len(sc.drones) == 4
        assert len(sc.users) == 12

    def test_custom_types(self, tmp_path):
        out = tmp_path / "scenario.json"
        code = main(["generate", "--types", "10:2,20:2,30:2",
                     "--out", str(out)])
        assert code == EXIT_OK
        sc = Scenario.load(out)
        assert [t.mu for t in sc.type_set] == [10.0, 20.0, 30.0]

    @pytest.mark.parametrize("types, message", [
        ("inf:3,18:3", "mu must be finite, got inf"),
        ("12:3,18:inf", "sigma must be finite, got inf"),
        ("nan:3,18:3", "mu must be positive, got nan"),
    ])
    def test_non_finite_type_rejected(self, tmp_path, capsys, types,
                                      message):
        out = tmp_path / "scenario.json"
        assert main(["generate", "--types", types,
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_setting_is_parse_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--setting", "S9",
                  "--out", str(tmp_path / "x.json")])

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--seed", "3", "--out", str(a)])
        main(["generate", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_outputs_and_byte_identical_rerun(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        _write_manifest(manifest_path)
        out_a = tmp_path / "out_a"
        out_b = tmp_path / "out_b"
        assert main(["run", "--manifest", str(manifest_path),
                     "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "--manifest", str(manifest_path),
                     "--out", str(out_b)]) == EXIT_OK
        for name in ("summary.csv", "per_drone.csv", "convergence.csv",
                     "results.json", "manifest_echo.json"):
            assert (out_a / name).exists(), name
            assert (out_a / name).read_bytes() == \
                (out_b / name).read_bytes(), name

    @pytest.mark.parametrize("env", ["", "env_out"])
    def test_every_output_lands_under_out(self, tmp_path, monkeypatch, env):
        # --out wins over the manifest's output_dir, and no environment
        # variable moves any of the five files
        manifest_path = tmp_path / "manifest.json"
        _write_manifest(manifest_path)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("DRONECOAL_OUT", env)
        target = tmp_path / "target"
        assert main(["run", "--manifest", str(manifest_path),
                     "--out", str(target)]) == EXIT_OK
        assert sorted(os.listdir(target)) == sorted([
            "convergence.csv", "manifest_echo.json", "per_drone.csv",
            "results.json", "summary.csv"])
        assert sorted(os.listdir(tmp_path)) == [
            "cwd", "manifest.json", "target"]
        assert os.listdir(cwd) == []

    @pytest.mark.parametrize("manifest, out", [
        ("manifest.json", "file"),
        ("manifest.json", "file/sub"),
        ("dir", "out"),
    ])
    def test_bad_path_exits_2_before_the_batch(self, tmp_path, monkeypatch,
                                               capsys, manifest, out):
        _write_manifest(tmp_path / "manifest.json")
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        monkeypatch.setattr(cli, "run_manifest", lambda *a, **k: pytest.fail(
            "the batch started"))
        assert main(["run", "--manifest", str(tmp_path / manifest),
                     "--out", str(tmp_path / out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (tmp_path / "file").read_text() == ""
        assert not (tmp_path / "out").exists()

    def test_missing_manifest(self, tmp_path):
        assert main(["run", "--manifest", str(tmp_path / "nope.json")]) == \
            EXIT_VALIDATION

    def test_invalid_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        with open(path, "w") as f:
            json.dump({"settings": ["S9"]}, f)
        assert main(["run", "--manifest", str(path)]) == EXIT_VALIDATION

    def test_unknown_manifest_field(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        with open(path, "w") as f:
            json.dump({"settings": ["S1"], "topologie": 2}, f)
        assert main(["run", "--manifest", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "topologie" in err

    def test_non_integer_manifest_count(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        with open(path, "w") as f:
            json.dump({"settings": ["S1"], "topologies": "2"}, f)
        assert main(["run", "--manifest", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "topologies" in err

    def _rejects(self, tmp_path, capsys, entries):
        # rejected when the manifest loads: nothing runs, nothing is written
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"settings": ["S1"], "topologies": 1,
                                    "repetitions": 1, **entries}))
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(path),
                     "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(entries)) in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["x", True, None, -0.1, 1.5])
    def test_epsilon_must_be_a_probability(self, tmp_path, capsys, value):
        self._rejects(tmp_path, capsys, {"epsilon": value})

    @pytest.mark.parametrize("name", ["init_grand_rounds", "max_rounds",
                                      "stability_window"])
    @pytest.mark.parametrize("value", [0, -3, 2.0, "5", True])
    def test_round_counts_must_be_positive_integers(self, tmp_path, capsys,
                                                    name, value):
        self._rejects(tmp_path, capsys, {name: value})

    def test_unknown_aggregate_mode(self, tmp_path, capsys):
        self._rejects(tmp_path, capsys, {"aggregate_mode": "median"})

    def test_over_cap_type_space_rejected_on_load(self, tmp_path,
                                                  monkeypatch, capsys):
        # 11 types on S4: 11^5 = 161 051 type vectors in a grand-coalition
        # payoff, over the cap, refused before any topology runs
        types = [{"id": i, "mu": 10.0 + i, "sigma": 2.0} for i in range(11)]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"settings": ["S1", "S4"],
                                    "topologies": 1, "repetitions": 1,
                                    "type_set": types}))
        monkeypatch.setattr(cli, "run_manifest", lambda *a, **k: pytest.fail(
            "the batch started"))
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(path),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            "error: type space 11^5 exceeds cap 100000\n"
        assert not out.exists()
        # regimes that take no expected payoff are not capped
        RunManifest(settings=["S4"], type_set=types,
                    regimes=["baseline", "social_optimal"])

    def test_manifest_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        assert main(["run", "--manifest", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("entries, field", [
        ({"type_set": 5}, "type_set"),
        ({"settings": 5}, "settings"),
        ({"settings": "S1"}, "settings"),
        ({"settings": ["S1", 4]}, "setting"),
        ({"regimes": "proposed"}, "regimes"),
        ({"type_set": [{"id": 0, "mu": "x", "sigma": 3.0}]}, "type_set"),
        ({"type_set": [{"id": 0, "sigma": 3.0}]}, "type_set"),
        ({"type_set": [{"id": True, "mu": 12.0, "sigma": 3.0}]}, "type_set"),
        ({"type_set": [[0, 12.0, 3.0]]}, "type_set"),
        ({"environment": ["urban"]}, "environment"),
        ({"type_set": [{"id": 0, "mu": float("inf"), "sigma": 3.0}]}, "mu"),
        # a float id would be written into scenario files that then fail
        # to load
        ({"type_set": [{"id": 0.0, "mu": 12.0, "sigma": 3.0}]}, "type_set"),
        # checked even when no regime takes an expected payoff
        ({"regimes": ["baseline"],
          "type_set": [{"id": 0, "mu": 12.0, "sigma": float("inf")}]},
         "sigma"),
        # a repeated type id, refused before any run
        ({"type_set": [{"id": 0, "mu": 12.0, "sigma": 3.0},
                       {"id": 0, "mu": 18.0, "sigma": 3.0}]}, "type_set"),
        # refused before the batch, not when its outputs are written
        ({"output_dir": 5}, "output_dir must be a string, got 5"),
        # refused before the first scenario seed goes negative
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        # an empty directory name would fail only after the batch, when
        # the outputs are written
        ({"output_dir": ""}, "output_dir must not be empty"),
    ])
    def test_malformed_field_rejected_on_load(self, tmp_path, monkeypatch,
                                              capsys, entries, field):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"topologies": 1, "repetitions": 1,
                                    **entries}))
        monkeypatch.setattr(cli, "run_manifest", lambda *a, **k: pytest.fail(
            "the batch started"))
        assert main(["run", "--manifest", str(path),
                     "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}") or \
            err.startswith(f"error: unknown {field} ")
        assert err.count("\n") == 1

    def test_strict_non_convergence_exits_3(self, tmp_path, monkeypatch,
                                            capsys):
        manifest_path = tmp_path / "manifest.json"
        _write_manifest(manifest_path)
        seen = []

        def run_manifest(manifest, strict=False):
            # a batch with a non-converged run, as bench.run_manifest
            # reports it under strict
            seen.append(strict)
            if strict:
                raise RuntimeError("non-convergence in at least one run")
            return []

        monkeypatch.setattr(cli, "run_manifest", run_manifest)
        out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest_path), "--strict",
                     "--out", str(out)]) == EXIT_NON_CONVERGENCE == 3
        assert seen == [True]
        assert "error: non-convergence" in capsys.readouterr().err
        assert not out.exists()

    def test_aborted_batch_exits_3_without_strict(self, tmp_path,
                                                  monkeypatch, capsys):
        manifest_path = tmp_path / "manifest.json"
        _write_manifest(manifest_path)

        def run_manifest(manifest, strict=False):
            raise NonConvergenceError("best-reply cycle")

        monkeypatch.setattr(cli, "run_manifest", run_manifest)
        assert main(["run", "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "out")]) == 3
        assert "error: best-reply cycle" in capsys.readouterr().err


class TestMarkov:
    def test_chain_export(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        main(["generate", "--setting", "S1", "--seed", "8",
              "--out", str(scenario_path)])
        out = tmp_path / "chain.txt"
        assert main(["markov", "--scenario", str(scenario_path),
                     "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "transition" in text
        assert "formation_probs" in text

    def test_uniform_beliefs_and_variant_rule(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        main(["generate", "--setting", "S1", "--seed", "0",
              "--out", str(scenario_path)])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["markov", "--scenario", str(scenario_path),
                     "--beliefs", "uniform", "--out", str(a)]) == EXIT_OK
        assert main(["markov", "--scenario", str(scenario_path),
                     "--veto-self-loop", "--out", str(b)]) == EXIT_OK
        assert a.read_text() != b.read_text()

    def test_reversed_lists_load_and_audit_as_sorted(self, tmp_path):
        # a file listing drones, users and types in reverse id order is the
        # same scenario as the sorted file, down to the audit's bytes
        paths = {name: tmp_path / f"{name}.json" for name in ("sorted", "rev")}
        main(["generate", "--setting", "S2", "--seed", "4",
              "--types", "12:3,18:3,24:3,30:3", "--out", str(paths["sorted"])])
        data = json.loads(paths["sorted"].read_text())
        for key in ("drones", "users", "type_set"):
            data[key].reverse()
        paths["rev"].write_text(json.dumps(data))
        assert Scenario.load(paths["rev"]) == Scenario.load(paths["sorted"])
        for beliefs in ("truth", "uniform"):
            outs = [tmp_path / f"{name}-{beliefs}.txt" for name in paths]
            for path, out in zip(paths.values(), outs):
                assert main(["markov", "--scenario", str(path), "--beliefs",
                             beliefs, "--out", str(out)]) == EXIT_OK
            assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["type_set"][0].update(mu="x"),
         "mu must be positive, got 'x'"),
        (lambda d: d["drones"][0].update(channels=5),
         "channels of drone 0 must be a list, got 5"),
        (lambda d: [d], "a scenario must be a JSON object, got list"),
        (lambda d: d["drones"][0].update(position=5),
         "position of drone 0 must be a list of 2 or 3 numbers, got 5"),
        (lambda d: d["drones"][1].update(true_type=[0]),
         "true_type of drone 1 must be an integer, got [0]"),
        (lambda d: d.update(area_m="x"), "area_m must be positive, got 'x'"),
        (lambda d: d["users"][0].update(position=5),
         "position of user 0 must be a list of 2 or 3 numbers, got 5"),
        (lambda d: d["users"][2].update(baseline_drone="x"),
         "baseline_drone of user 2 must be a drone id, got 'x'"),
        (lambda d: d["users"][2].update(baseline_drone=99),
         "baseline_drone of user 2 must be a drone id, got 99"),
        (lambda d: d["drones"][0].update(id="a"),
         "ids of drones must be distinct integers, got 'a'"),
        (lambda d: d["drones"][2].update(id=1),
         "ids of drones must be distinct integers, got 1"),
        (lambda d: d["users"][4].update(id=3),
         "ids of users must be distinct integers, got 3"),
        (lambda d: d["users"][2].update(baseline_drone=True),
         "baseline_drone of user 2 must be a drone id, got True"),
        (lambda d: d["env"].update(bandwidth_hz="x"),
         "bandwidth_hz must be a finite number, got 'x'"),
        (lambda d: d["type_set"][1].update(mu=float("inf")),
         "mu must be finite, got inf"),
        (lambda d: d["drones"][1].update(channels=[3, "4"]),
         "channels of drone 1 must be a list of integers, got [3, '4']"),
        (lambda d: d["env"].update(gain=1.0), "unknown env key(s): gain"),
        (lambda d: d["env"].update(carrier_hz=0.0),
         "carrier_hz must be positive, got 0.0"),
        (lambda d: d.update(seed=0.5), "seed must be an integer, got 0.5"),
        (lambda d: {k: v for k, v in d.items() if k != "users"},
         "missing scenario key(s): users"),
        (lambda d: d["drones"][0].pop("channels") and d,
         "missing drone key(s): channels"),
        (lambda d: d.update(name="x"), "unknown scenario key(s): name"),
        (lambda d: d["drones"][2].update(speed=1.0),
         "unknown drone key(s): speed"),
        (lambda d: d["users"][0].update(channels=[]),
         "unknown user key(s): channels"),
        (lambda d: d["type_set"][1].update(label="high"),
         "unknown type key(s): label"),
    ], ids=["mu", "channels", "array", "position", "true_type", "area_m",
            "user_position", "baseline_drone_str", "baseline_drone_id",
            "drone_id", "duplicate_drone", "duplicate_user",
            "baseline_drone_bool", "bandwidth_hz",
            "mu_inf", "channel_ids", "env_key", "carrier_hz", "seed",
            "missing_users", "missing_channels", "scenario_key", "drone_key",
            "user_key", "type_key"])
    def test_malformed_scenario(self, tmp_path, capsys, edit, message):
        scenario_path = tmp_path / "scenario.json"
        main(["generate", "--setting", "S1", "--out", str(scenario_path)])
        data = json.loads(scenario_path.read_text())
        scenario_path.write_text(json.dumps(edit(data) or data))
        capsys.readouterr()
        out = tmp_path / "chain.txt"
        assert main(["markov", "--scenario", str(scenario_path),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_scenario(self, tmp_path):
        assert main(["markov", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.txt")]) == EXIT_VALIDATION


class WholeFile(dict):
    """A results file's whole content, written as it is rather than as
    the one entry of a list."""


ENTRY = {"regime": "baseline", "setting": "S1", "topology": 0,
         "repetition": 0, "total_rate": 1.0, "per_drone": {"0": 1.0},
         "structure": "{0}"}


class TestReport:
    def test_reaggregates_existing_results(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        _write_manifest(manifest_path)
        run_out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest_path),
                     "--out", str(run_out)]) == EXIT_OK
        report_out = tmp_path / "report"
        assert main(["report", "--results", str(run_out / "results.json"),
                     "--manifest", str(manifest_path),
                     "--mode", "expected",
                     "--out", str(report_out)]) == EXIT_OK
        text = (report_out / "summary.csv").read_text()
        assert ",expected," in text

    def test_unknown_result_key(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        _write_manifest(manifest_path)
        run_out = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest_path),
                     "--out", str(run_out)]) == EXIT_OK
        results_path = run_out / "results.json"
        raw = json.loads(results_path.read_text())
        raw[0]["extra"] = 1
        results_path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["report", "--results", str(results_path),
                     "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "extra" in err

    @pytest.mark.parametrize("entry,message", [
        ({"per_drone": {}}, "missing result key(s): regime, setting, "
                            "topology, repetition, total_rate, structure"),
        ({"regime": "baseline", "setting": "S1", "topology": 0,
          "repetition": 0, "total_rate": 1.0, "structure": "{0}"},
         "missing result key(s): per_drone"),
        (1, "expected a JSON object of result keys, got 1"),
        ({**ENTRY, "per_drone": 5},
         "per_drone must map drone ids to rates, got 5"),
        ({**ENTRY, "total_rate": "x"}, "total_rate must be a number, got 'x'"),
        ({**ENTRY, "topology": "x"}, "topology must be an integer, got 'x'"),
        ({**ENTRY, "repetition": 1.0},
         "repetition must be an integer, got 1.0"),
        ({**ENTRY, "per_drone": {"x": 1.0}},
         "per_drone must map drone ids to rates, got {'x': 1.0}"),
        ({**ENTRY, "frobenius_series": 5},
         "frobenius_series must be a list of numbers, got 5"),
        ({**ENTRY, "frobenius_series": ["x"]},
         "frobenius_series must be a list of numbers, got ['x']"),
        ({**ENTRY, "stable_totals": [1]},
         "stable_totals must map structures to numbers, got [1]"),
        ({**ENTRY, "formation_probs": {"a": "x"}},
         "formation_probs must map structures to numbers, got {'a': 'x'}"),
        ({**ENTRY, "setting": 7},
         "setting must be one of S1, S2, S3, S4, got 7"),
        ({**ENTRY, "regime": None}, "regime must be one of baseline, "
                                    "full_info, proposed, social_optimal, "
                                    "got None"),
        (WholeFile({"a": 1}), "results must be a JSON list, got dict"),
        ({**ENTRY, "rounds_to_convergence": 1.5},
         "rounds_to_convergence must be an integer or null, got 1.5"),
        ({**ENTRY, "best_stable_total": "x"},
         "best_stable_total must be a number or null, got 'x'"),
        ({**ENTRY, "structure": None}, "structure must be a string, got None"),
    ])
    def test_malformed_result_entry(self, tmp_path, capsys, entry, message):
        manifest_path = tmp_path / "manifest.json"
        _write_manifest(manifest_path)
        results_path = tmp_path / "results.json"
        results_path.write_text(json.dumps(
            entry if isinstance(entry, WholeFile) else [entry]))
        out = tmp_path / "r"
        assert main(["report", "--results", str(results_path),
                     "--manifest", str(manifest_path),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_results(self, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        _write_manifest(manifest_path)
        assert main(["report", "--results", str(tmp_path / "nope.json"),
                     "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "r")]) == EXIT_VALIDATION


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_console_script_registered(self):
        # Read from the checkout, so the check holds without an install.
        value = _declared_scripts().get("dronecoal")
        assert value == "dronecoal.cli:main"
        ep = md.EntryPoint(name="dronecoal", value=value,
                           group="console_scripts")
        assert ep.load() is main

    @pytest.mark.skipif(not _dronecoal_installed(),
                        reason="no dronecoal distribution is installed")
    def test_installed_console_script_matches_declaration(self):
        eps = md.distribution("dronecoal").entry_points.select(
            group="console_scripts", name="dronecoal")
        assert [e.value for e in eps] == [_declared_scripts()["dronecoal"]]
