"""The benchmark's workloads check their own outputs; at seed 0 every unit
of ``paper_batch`` (with its CSV hashes pinned) and ``repeated_game_s4``
and a small slice of ``chain_audit_4type`` must pass those checks, or fail
only as the one known non-converged run, before the whole benchmark is
run."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def _units(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(0, str(tmp_path))
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


def test_repeated_game_units(workloads, tmp_path):
    # all 150 units in the workload's order, sharing each topology's
    # engine: a faster program must not change which runs converge
    wl, harness = workloads
    outcomes = {u.name: _check(u)
                for u in _units(wl, "repeated_game_s4", tmp_path)}
    assert len(outcomes) == 150
    assert outcomes["S4/t0/r0"] is None
    failed = {name: out for name, out in outcomes.items() if out is not None}
    assert list(failed) == ["S4/t2/r23"]
    # the known best-reply cycle is reported as non-converged, not as a
    # wrong output
    assert failed["S4/t2/r23"][0] == harness.NON_CONVERGED


def test_chain_audit_first_audits(workloads, tmp_path):
    wl, _ = workloads
    for unit in _units(wl, "chain_audit_4type", tmp_path)[:2]:
        assert _check(unit) is None, unit.name
