"""The benchmark's tracer wraps dronecoal functions by name; every name it
lists must exist, or a traced benchmark run fails while installing."""

import importlib
import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _spans():
    return _tracer().SPANS


def test_every_traced_name_resolves():
    spans = _spans()
    assert spans
    missing = []
    for span, modname, attr in spans:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in cls.__dict__
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{span}: {modname}.{attr}")
    assert not missing, missing


def test_every_module_holds_the_traced_object():
    # the tracer wraps a name only where a module holds the very object
    # the defining module does; a stale copy elsewhere would keep running
    # unwrapped and drop its calls from the trace
    package = importlib.import_module("dronecoal")
    modules = [package] + [
        importlib.import_module(f"dronecoal.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)]
    stale = []
    for span, modname, attr in _spans():
        name = attr.split(".")[0]
        original = getattr(importlib.import_module(modname), name)
        for module in modules:
            held = module.__dict__.get(name)
            if held is not None and held is not original:
                stale.append(f"{span}: {module.__name__}.{name}")
    assert not stale, stale


def _held_names(spans):
    """Every (owner, attribute) -> object a traced name resolves to: the
    class entry of a traced method, and each dronecoal module's entry of
    a traced function."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name.split(".")[0] == "dronecoal"}
    held = {}
    for _, modname, attr in spans:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(modules[modname], cls_name)
            held[(modname, attr)] = cls.__dict__[meth]
            continue
        for name, mod in modules.items():
            if attr in vars(mod):
                held[(name, attr)] = vars(mod)[attr]
    return held


def test_traced_repeated_game_counts_every_sample():
    # learning.samples adds the log's sample count at each update_beliefs
    # call, which comes once per round after that round's sharing
    tracer = _tracer()
    dynamics = importlib.import_module("dronecoal.dynamics")
    game = importlib.import_module("dronecoal.game")
    scenario = importlib.import_module("dronecoal.scenario")
    propagation = importlib.import_module("dronecoal.propagation")
    sc = scenario.generate(scenario.SETTINGS["S3"],
                           propagation.ENVIRONMENTS["urban"], seed=4)
    engine = game.PayoffEngine(sc)
    before = _held_names(tracer.SPANS)
    spans = tracer.Tracer()
    spans.install()
    try:
        result = dynamics.run_repeated_game(
            dynamics.DynamicsConfig(seed=2, max_rounds=40), engine)
    finally:
        spans.uninstall()
    after = _held_names(tracer.SPANS)
    assert after.keys() == before.keys()
    assert all(after[key] is held for key, held in before.items())
    per_round = [len(json.loads(r.to_json())["shared_samples"])
                 for r in result.rounds]
    assert sum(per_round) > 0
    summary = spans.summary()
    assert summary["learning.samples"] == sum(
        sum(per_round[:k + 1]) for k in range(len(per_round)))
    assert summary["dynamics.rounds"] == len(result.rounds)
    assert summary["learning.update_beliefs.calls"] == len(result.rounds)
    assert summary["learning.frobenius_convergence.calls"] == \
        len(result.rounds)


def test_traced_walk_counts_one_step_span_per_change():
    # the walk runs best_reply_step only for a proposer that moves, so
    # the step's span counts the walk's structure changes
    tracer = _tracer()
    dynamics = importlib.import_module("dronecoal.dynamics")
    game = importlib.import_module("dronecoal.game")
    scenario = importlib.import_module("dronecoal.scenario")
    propagation = importlib.import_module("dronecoal.propagation")
    sc = scenario.generate(scenario.SETTINGS["S3"],
                           propagation.ENVIRONMENTS["urban"], seed=4)
    engine = game.PayoffEngine(sc)
    spans = tracer.Tracer()
    spans.install()
    try:
        final, stats = dynamics.run_best_reply(
            game.CoalitionStructure.singletons(sc.drone_ids),
            game.BeliefState.uniform(sc), engine, np.random.default_rng(3))
    finally:
        spans.uninstall()
    summary = spans.summary()
    assert stats.changes > 1
    assert summary["dynamics.run_best_reply.calls"] == 1
    assert summary["dynamics.best_reply_step.calls"] == stats.changes
    assert final != game.CoalitionStructure.singletons(sc.drone_ids)
