"""The benchmark tracer wraps fermirep functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    missing = [
        f"{modname}.{path}"
        for modname, targets in tracer.TARGETS.values()
        for path in targets
        if tracer._lookup(importlib.import_module(modname), path) is None
    ]
    modname, path = tracer.REPORT_ADD
    if tracer._lookup(importlib.import_module(modname), path) is None:
        missing.append(f"{modname}.{path}")
    assert missing == []
