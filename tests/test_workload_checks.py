"""The benchmark's workloads check their own outputs; at seed 0 a small
slice of ``paper_batch`` and ``chain_audit_4type`` and every unit of
``repeated_game_s4`` must pass those checks, or fail only as the one known
non-converged run, before the whole benchmark is run."""

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


def test_paper_batch_first_topology(workloads, tmp_path):
    wl, _ = workloads
    units = {u.name: u for u in _units(wl, "paper_batch", tmp_path)}
    assert _check(units["S1/t0"]) is None


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
