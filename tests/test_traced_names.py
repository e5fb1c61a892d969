"""The benchmark's tracer wraps dronecoal functions by name; every name it
lists must exist, or a traced benchmark run fails while installing."""

import importlib
import importlib.util
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
