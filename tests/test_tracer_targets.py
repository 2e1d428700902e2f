"""The benchmark tracer wraps fermirep functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

from fermirep import liealg, schwinger

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


def test_structure_constant_bytes_hook_reads_the_sparse_records():
    tracer = _load_tracer()
    name, value = tracer._value_hook("liealg", "structure_constants")
    assert name == "liealg.sc_tensor_bytes"
    gens = liealg.generalized_gell_mann(15)
    result = liealg.structure_constants(gens)
    stored = value((gens,), {}, result)
    assert type(stored) is int
    assert stored == len(result.c) * liealg.RECORD_DTYPE.itemsize
    assert stored * 100 < result.size**3 * 16


def test_nnz_hook_reads_the_per_operator_view_as_the_stack():
    tracer = _load_tracer()
    name, value = tracer._value_hook("schwinger", "standard_rep")
    assert name == "schwinger.nnz_out"
    ggm = liealg.generalized_gell_mann
    for rep in (
        schwinger.standard_rep(ggm(4), 4),
        schwinger.nssfr_un(ggm(4), 4),
        schwinger.rep_ucnm(ggm(6), 4, 2),
    ):
        assert value((), {}, rep) == rep.stack.nnz > 0
