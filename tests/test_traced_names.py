"""The benchmark's tracer wraps dronecoal functions by name; every name it
lists must exist, or a traced benchmark run fails while installing."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


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
