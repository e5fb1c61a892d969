"""The benchmark's workloads check their own outputs; at seed 0 every unit
of ``paper_batch`` (with its CSV hashes pinned) and ``repeated_game_s4``
and a small slice of ``chain_audit_4type`` must pass those checks, or fail
only as the one known non-converged run, before the whole benchmark is
run.

``workload_pins.json`` pins, per unit, what a faster program must not
move: the ``repeated_game_s4`` outcomes and round streams on seeds 0 and
7; the first ten ``chain_audit_4type`` audits on seed 0, with each
audit's transition matrix bytes and one digest of every rate list and
second-level payoff those audits compute; and the bytes of 32
``dronecoal markov`` outputs.  Float values are pinned by ``float.hex``
or by their bytes, so they depend on numpy and scipy arithmetic; the file
records the versions it was made with.  After a change that moves them
on purpose, rewrite every pin with ``PYTHONPATH=src python
tests/test_workload_checks.py`` and say which values moved and why.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from dronecoal import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINS = Path(__file__).resolve().parent / "workload_pins.json"


def _load(name: str, module_name: str):
    spec = importlib.util.spec_from_file_location(
        module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up, and workloads imports harness
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    harness = _load("harness", "harness")
    return _load("workloads", "perfbench_workloads"), harness


def _units(workloads, name, tmp_path, seed=0):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed, str(tmp_path))
    return list(workload.units(inputs))


def _check(unit):
    return unit.check(unit.run())


PAPER_BATCH_SHA256 = {
    "summary.csv":
        "8027f911f3a742d7ebf712ee6bc4726ad453ff92d55ef157705aa630849652f0",
    "per_drone.csv":
        "d9b8a0b2d1f3909d80163993ea3aed6be3a1d9a4ca1c45038664e0e8958ff214",
    "convergence.csv":
        "de4843dec6d50422cd4645af0f2bcf178e465f28a3dd2436667e91f41f411153",
}


def test_paper_batch_units(workloads, tmp_path):
    # all 20 topologies and the workload's own finish, which hashes the
    # CSVs of the pass and re-runs the first unit
    wl, _ = workloads
    workload = wl.WORKLOADS["paper_batch"]
    inputs = workload.setup(0, str(tmp_path))
    units = list(workload.units(inputs))
    assert len(units) == 20
    for unit in units:
        assert _check(unit) is None, unit.name
    lines, errors = workload.finish(inputs, [])
    assert errors == []
    assert lines == [f"sha256 {fname} (20 topologies): {digest}"
                     for fname, digest in PAPER_BATCH_SHA256.items()]


def repeated_pin(wl, seed, tmp_path) -> dict:
    """All 150 ``repeated_game_s4`` units in the workload's order, sharing
    each topology's engine: a sha256 over every unit's final structure,
    note and total rate, and the failed units with their failure kind;
    and a sha256 over each repeated game's round stream (every
    ``RoundRecord.to_json()`` line, the stall trace's structures and the
    final per-pair prediction in pair order)."""
    digest, rounds, failed = hashlib.sha256(), hashlib.sha256(), {}
    records = 0
    play = wl.bench.run_repeated_game

    def traced(*args):
        nonlocal records
        outcome = play(*args)
        for record in outcome.rounds:
            rounds.update(f"{record.to_json()}\n".encode())
        records += len(outcome.rounds)
        stall = [] if outcome.stall is None \
            else [s.to_string() for s in outcome.stall.trace]
        rounds.update(f"stall {stall}\n".encode())
        ids, prediction = args[1].ids, outcome.prediction.tolist()
        pairs = sorted(((i, j), prediction[a][b]) for a, i in enumerate(ids)
                       for b, j in enumerate(ids) if i != j)
        rounds.update(f"{pairs}\n".encode())
        return outcome

    wl.bench.run_repeated_game = traced
    try:
        units = _units(wl, "repeated_game_s4", tmp_path, seed)
        for unit in units:
            result = unit.run()
            digest.update(f"{unit.name} {result.structure} {result.note!r} "
                          f"{result.total_rate.hex()}\n".encode())
            outcome = unit.check(result)
            if outcome is not None:
                failed[unit.name] = outcome[0]
    finally:
        wl.bench.run_repeated_game = play
    return {"units": len(units), "units_sha256": digest.hexdigest(),
            "failed": failed, "rounds": records,
            "rounds_sha256": rounds.hexdigest()}


def by_id(ids, pos, mask, *rest) -> tuple:
    """A payoff engine's memo key with its (position, mask) as (drone id,
    sorted member ids)."""
    return (ids[pos], [d for i, d in enumerate(ids) if mask >> i & 1],
            *rest)


def audit_pin(wl, tmp_path) -> tuple[dict, dict]:
    """The first ten seed-0 ``chain_audit_4type`` audits: absorbing
    states, Nash-stable state indices and formation probabilities per
    audit; and, over all ten, a sha256 of the ``.hex()`` of every rate list
    and every second-level payoff that the audits' payoff engines hold,
    in key order.  Each audit also pins a sha256 of its transition
    matrix's bytes."""
    out, engines, chains = {}, [], []
    make, build = wl.game.PayoffEngine, wl.markov.build_chain
    wl.game.PayoffEngine = lambda sc: engines.append(make(sc)) or engines[-1]
    wl.markov.build_chain = \
        lambda *args: chains.append(build(*args)) or chains[-1]
    try:
        units = _units(wl, "chain_audit_4type", tmp_path)[:10]
        results = [unit.run() for unit in units]
    finally:
        wl.game.PayoffEngine, wl.markov.build_chain = make, build
    digest = hashlib.sha256()
    rate_lists = payoffs = 0
    for unit, result, engine, chain in zip(units, results, engines, chains):
        absorbing, probs, stable = result
        out[unit.name] = {
            "absorbing": list(absorbing), "stable": list(stable),
            "formation": {str(i): p.hex() for i, p in probs.items()},
            "failed": unit.check(result) is not None,
            "transition": hashlib.sha256(
                chain.transition.tobytes()).hexdigest()}
        for (d, coalition), rates in sorted(
                (by_id(engine.ids, *key), v)
                for key, v in engine._rates.items()):
            digest.update(f"{unit.name} {d} {coalition} "
                          f"{[r.hex() for r in rates]}\n".encode())
            rate_lists += 1
        for (d, coalition, rows), q in sorted(
                (by_id(engine.ids, *key), v)
                for key, v in engine._by_rows.items()):
            digest.update(f"{unit.name} {d} {coalition} {rows} "
                          f"{q.hex()}\n".encode())
            payoffs += 1
    return out, {"audits": len(units), "rate_lists": rate_lists,
                 "payoffs": payoffs, "sha256": digest.hexdigest()}


MARKOV_SCENARIOS = (("S1", 3, None), ("S4", 0, None), ("S4", 7, None),
                    ("S3", 9, None)) + tuple(
    ("S4", seed, "12:3,18:3,24:3,30:3") for seed in range(4))


def markov_pin(tmp_path) -> dict:
    """sha256 of every ``dronecoal markov`` output over the scenarios
    above, under both ``--beliefs`` and both transition rules, each run
    in-process through ``cli.main``."""
    out = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for setting, seed, types in MARKOV_SCENARIOS:
            name = f"{setting}/seed{seed}" + ("/4types" if types else "")
            path = tmp_path / "scenario.json"
            argv = ["generate", "--setting", setting, "--seed", str(seed),
                    "--out", str(path)]
            assert cli.main(argv + (["--types", types] if types else [])) == 0
            for beliefs in ("truth", "uniform"):
                for veto in (False, True):
                    chain = tmp_path / "chain.txt"
                    assert cli.main(
                        ["markov", "--scenario", str(path), "--beliefs",
                         beliefs, "--out", str(chain)]
                        + (["--veto-self-loop"] if veto else [])) == 0
                    key = f"{name}/{beliefs}" + ("/veto" if veto else "")
                    out[key] = hashlib.sha256(chain.read_bytes()).hexdigest()
    return out


def versions() -> dict:
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def repeated_seed0(workloads, tmp_path_factory):
    return repeated_pin(workloads[0], 0, tmp_path_factory.mktemp("rep"))


@pytest.mark.parametrize("seed", [0, 7])
def test_repeated_game_units_pinned(workloads, pins, repeated_seed0, seed,
                                    tmp_path):
    got = repeated_seed0 if seed == 0 \
        else repeated_pin(workloads[0], seed, tmp_path)
    assert got == pins["repeated_game_s4"][str(seed)], \
        f"made with {pins['versions']}, running {versions()}"


def test_chain_audit_first_audits_pinned(workloads, pins, tmp_path):
    audits, payoffs = audit_pin(workloads[0], tmp_path)
    made = f"made with {pins['versions']}, running {versions()}"
    assert audits == pins["chain_audit_4type"]["0"], made
    assert payoffs == pins["chain_audit_4type_payoffs"]["0"], made


def test_markov_outputs_pinned(pins, tmp_path):
    got = markov_pin(tmp_path)
    assert len(got) == 32
    assert got == pins["markov"], \
        f"made with {pins['versions']}, running {versions()}"


def test_repeated_game_units(workloads, repeated_seed0):
    # a faster program must not change which runs converge; the known
    # best-reply cycle is reported as non-converged, not as a wrong output
    _, harness = workloads
    assert repeated_seed0["units"] == 150
    assert repeated_seed0["failed"] == {"S4/t2/r23": harness.NON_CONVERGED}


def test_chain_audit_first_audits(workloads, tmp_path):
    wl, _ = workloads
    for unit in _units(wl, "chain_audit_4type", tmp_path)[:2]:
        assert _check(unit) is None, unit.name


if __name__ == "__main__":
    import tempfile
    _load("harness", "harness")
    wl = _load("workloads", "perfbench_workloads")
    with tempfile.TemporaryDirectory() as scratch:
        data = {"versions": versions(),
                "repeated_game_s4": {str(seed): repeated_pin(
                    wl, seed, Path(scratch)) for seed in (0, 7)},
                "chain_audit_4type": {}, "chain_audit_4type_payoffs": {}}
        (data["chain_audit_4type"]["0"],
         data["chain_audit_4type_payoffs"]["0"]) = audit_pin(
            wl, Path(scratch))
        data["markov"] = markov_pin(Path(scratch))
    with open(PINS, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {PINS}")
