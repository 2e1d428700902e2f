"""Span tracer for one fermirep CLI process, installed from outside the package.

`Tracer.install()` replaces the public functions of each fermirep module
(and a few private check helpers the per-layer metrics name) with thin
wrappers that record a span per call: name, start, end and parent span.
Spans are held in preallocated arrays and flushed once, when the process
ends, to an ``.npz`` file that `summarize` turns into per-layer metrics.

With ``memory=True`` every span also records, from tracemalloc, how far
the traced heap rose above its level at span entry.  The span arrays are
allocated before tracemalloc starts, so they do not count toward it.
Without it the per-call cost is a few microseconds and span times keep
the proportions of an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc

import numpy as np

# Layers are the package's modules.  Each maps wrapped attribute paths to
# the metric group their inclusive time feeds, or to None when the span
# only attributes time and memory to the layer.
TARGETS: dict[str, tuple[str, dict[str, str | None]]] = {
    "fock": ("fermirep.fock", {
        "FockOperator.__init__": "op_init",
        "FockOperator.__add__": "arith",
        "FockOperator.__sub__": "arith",
        "FockOperator.__neg__": "arith",
        "FockOperator.__mul__": "arith",
        "FockOperator.__rmul__": "arith",
        "FockOperator.__truediv__": "arith",
        "FockOperator.__matmul__": "arith",
        "FockOperator.commutator": "arith",
        "FockOperator.anticommutator": "arith",
        "annihilation": "ladder",
        "creation": "ladder",
        "number_operator": "ladder",
        "total_number": "ladder",
        "build_basis": "ladder",
        "FockOperator.zero": None,
        "FockOperator.identity": None,
        "FockOperator.from_entries": None,
        "FockOperator.diagonal": None,
        "FockOperator.dagger": None,
        "FockOperator.diff_max": None,
        "FockOperator.max_abs": None,
        "FockOperator.entries": None,
        "FockOperator.to_dense": None,
        "sector_indices": None,
        "vacuum_projector": None,
    }),
    "liealg": ("fermirep.liealg", {
        "structure_constants": "structure_constants",
        "gell_mann": "generators",
        "generalized_gell_mann": "generators",
        "spin1_matrices": "generators",
        "gellmann_from_spin1": "generators",
        "conjugate_rep": "generators",
        "conjugation_matrix": None,
        "StructureConstants.max_difference": None,
    }),
    "schwinger": ("fermirep.schwinger", {
        "standard_rep": "standard_rep",
        "element_operators": "element_operators",
        "sector_operators": "element_operators",
        "rep_ucnm": "sector_rep",
        "mixed_rep": "sector_rep",
        "nssfr_un": "nssfr_un",
        "nssfr_u3_explicit": "nssfr_un",
        "selective_function": "selective",
        "eval_at_number_operator": "selective",
    }),
    "verify": ("fermirep.verify", {
        "check_eij_algebra": "eij",
        "check_closure": "closure",
        "check_anticommutation": "anticomm",
        "check_number_commutant": "numcomm",
        "_outer_product_check": "outer",
        "_block_equality_checks": "block",
        "block_decompose": "block",
        "compare_ops": "compare",
        "run_suite": None,
    }),
    "cli.matfile": ("fermirep.cli.matfile", {
        "write_operator": "write",
        "write_manifest": "write",
        "read_operator": "read",
        "read_manifest": "read",
        "operator_to_payload": None,
        "payload_to_operator": None,
    }),
    "cli.expr": ("fermirep.cli.expr", {
        "parse_expression": "parse",
        "evaluate": "evaluate",
        "to_source": None,
    }),
    "cli.main": ("fermirep.cli.main", {
        "main": None,
        "build_parser": None,
        "cmd_build": None,
        "cmd_verify": None,
        "cmd_eval": None,
        "cmd_table": None,
        "build_variant": None,
        "representation_report": None,
        "_load_built": None,
        "_rebuild_family": None,
    }),
}

# Counted, not spanned: one call per recorded check.
REPORT_ADD = ("fermirep.verify", "VerificationReport.add")

_REPRESENTATIONS = {"standard_rep", "nssfr_un", "nssfr_u3_explicit", "rep_ucnm", "mixed_rep"}


def _path_size(args, kwargs) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _value_hook(layer: str, path: str):
    """Counter update run after a call returns: (counter name, fn(args, kwargs, result))."""
    if layer == "liealg" and path == "structure_constants":
        return "liealg.sc_tensor_bytes", lambda a, k, r: r.c.nbytes
    if layer == "schwinger" and path in _REPRESENTATIONS:
        return "schwinger.nnz_out", lambda a, k, r: sum(op.nnz for op in r.ops)
    if layer == "cli.matfile" and path.startswith("write_"):
        return "cli.matfile.bytes_written", lambda a, k, r: _path_size(a, k)
    if layer == "cli.matfile" and path.startswith("read_"):
        return "cli.matfile.bytes_read", lambda a, k, r: _path_size(a, k)
    return None


class TracerError(RuntimeError):
    """A wrapped name is missing, so the trace would silently read 0."""


class Tracer:
    def __init__(self, memory: bool, capacity: int = 1 << 21):
        self.memory = memory
        self.names: list[str] = []
        self.n = 0
        self.values: dict[str, float] = {
            "liealg.sc_tensor_bytes": 0,
            "schwinger.nnz_out": 0,
            "cli.matfile.bytes_written": 0,
            "cli.matfile.bytes_read": 0,
            "verify.checks": 0,
            "verify.checks_failed": 0,
        }
        self._alloc(capacity)
        self._stack: list[int] = []
        self._group_depth: dict[str, int] = {}
        self._group_of: list[str | None] = []

    def _alloc(self, capacity: int) -> None:
        self.cap = capacity
        self.name = np.empty(capacity, np.int32)
        self.parent = np.empty(capacity, np.int32)
        self.start = np.empty(capacity, np.float64)
        self.end = np.empty(capacity, np.float64)
        self.peak = np.empty(capacity, np.int64)
        self.top = np.empty(capacity, np.int8)
        self._mem0 = np.empty(capacity, np.int64)
        self._runpeak = np.empty(capacity, np.int64)

    def _grow(self) -> None:
        old = (self.name, self.parent, self.start, self.end, self.peak, self.top,
               self._mem0, self._runpeak)
        self._alloc(self.cap * 2)
        new = (self.name, self.parent, self.start, self.end, self.peak, self.top,
               self._mem0, self._runpeak)
        for a, b in zip(old, new):
            b[: len(a)] = a

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = self.n
        if i == self.cap:
            self._grow()
        self.n = i + 1
        stack = self._stack
        self.parent[i] = stack[-1] if stack else -1
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if stack and peak > self._runpeak[stack[-1]]:
                self._runpeak[stack[-1]] = peak
            tracemalloc.reset_peak()
            self._mem0[i] = cur
            self._runpeak[i] = cur
        self.name[i] = nid
        group = self._group_of[nid]
        if group is not None:
            depth = self._group_depth[group]
            self.top[i] = depth == 0
            self._group_depth[group] = depth + 1
        else:
            self.top[i] = 0
        stack.append(i)
        self.start[i] = time.perf_counter()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        stack = self._stack
        stack.pop()
        if self.memory:
            peak = max(int(self._runpeak[i]), tracemalloc.get_traced_memory()[1])
            self.peak[i] = peak - self._mem0[i]
            if stack and peak > self._runpeak[stack[-1]]:
                self._runpeak[stack[-1]] = peak
            tracemalloc.reset_peak()
        else:
            self.peak[i] = 0
        group = self._group_of[self.name[i]]
        if group is not None:
            self._group_depth[group] -= 1

    def _wrap(self, fn, nid: int, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                tracer.values[hook[0]] += hook[1](args, kwargs, result)
            return result

        return traced

    def _count_checks(self, fn):
        values = self.values

        @functools.wraps(fn)
        def add(report, *args, **kwargs):
            fn(report, *args, **kwargs)
            values["verify.checks"] += 1
            if not report.checks[-1].passed:
                values["verify.checks_failed"] += 1

        return add

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, or raise TracerError naming the missing ones."""
        plan = []
        missing = []
        for layer, (modname, targets) in TARGETS.items():
            module = importlib.import_module(modname)
            for path, group in targets.items():
                found = _lookup(module, path)
                if found is None:
                    missing.append(f"{modname}.{path}")
                else:
                    plan.append((layer, path, group, found))
        add_owner = _lookup(importlib.import_module(REPORT_ADD[0]), REPORT_ADD[1])
        if add_owner is None:
            missing.append(".".join(REPORT_ADD))
        if missing:
            raise TracerError("wrapped names no longer exist: " + ", ".join(missing))
        for layer, path, group, (owner, attr, raw) in plan:
            nid = len(self.names)
            self.names.append(f"{layer}:{path}")
            full_group = f"{layer}.{group}" if group else None
            self._group_of.append(full_group)
            if full_group:
                self._group_depth[full_group] = 0
            hook = _value_hook(layer, path)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, nid, hook)))
            else:
                setattr(owner, attr, self._wrap(raw, nid, hook))
        owner, attr, raw = add_owner
        setattr(owner, attr, self._count_checks(raw))

    def flush(self, path: str, invocation: str) -> dict:
        """Write the spans to ``path`` (npz) and return their metadata.

        Every span of one process shares the invocation id.
        """
        n = self.n
        np.savez(
            path,
            name=self.name[:n], parent=self.parent[:n], start=self.start[:n],
            end=self.end[:n], peak=self.peak[:n], top=self.top[:n],
        )
        return {"invocation": invocation, "names": self.names, "values": self.values,
                "spans": n}


def _lookup(module, path: str):
    """(owner, attribute, raw value) for a dotted path, or None if absent."""
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None or not (callable(raw) or isinstance(raw, classmethod)):
        return None
    return owner, attr, raw


# -- summaries ------------------------------------------------------------------

LAYERS = tuple(TARGETS)
MB = 1e6

# per-layer metrics: name -> unit, in the order they are reported
GROUP_TIMES = {
    "fock.op_init_s": "fock.op_init",
    "fock.arith_s": "fock.arith",
    "fock.ladder_s": "fock.ladder",
    "liealg.structure_constants_s": "liealg.structure_constants",
    "liealg.generators_s": "liealg.generators",
    "schwinger.standard_rep_s": "schwinger.standard_rep",
    "schwinger.element_operators_s": "schwinger.element_operators",
    "schwinger.sector_rep_s": "schwinger.sector_rep",
    "schwinger.nssfr_un_s": "schwinger.nssfr_un",
    "schwinger.selective_s": "schwinger.selective",
    "verify.eij_s": "verify.eij",
    "verify.closure_s": "verify.closure",
    "verify.anticomm_s": "verify.anticomm",
    "verify.numcomm_s": "verify.numcomm",
    "verify.outer_s": "verify.outer",
    "verify.block_s": "verify.block",
    "verify.compare_s": "verify.compare",
    "cli.matfile.write_s": "cli.matfile.write",
    "cli.matfile.read_s": "cli.matfile.read",
    "cli.expr.parse_s": "cli.expr.parse",
    "cli.expr.evaluate_s": "cli.expr.evaluate",
}
CALL_COUNTS = {
    "fock.op_inits": "fock:FockOperator.__init__",
    "liealg.structure_constants_calls": "liealg:structure_constants",
}


def metric_units() -> dict[str, str]:
    units = {name: "s" for name in GROUP_TIMES}
    units.update({name: "count" for name in CALL_COUNTS})
    units.update({
        "liealg.sc_tensor_mb": "MB",
        "schwinger.nnz_out": "count",
        "verify.checks": "count",
        "verify.checks_failed": "count",
        "cli.matfile.bytes_written": "B",
        "cli.matfile.bytes_read": "B",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.peak_mb"] = "MB"
    units["trace.spans"] = "count"
    return units


def summarize(meta: dict, spans) -> dict[str, float]:
    """Per-layer metrics of one traced process from its flushed spans."""
    names = meta["names"]
    name = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    top = spans["top"].astype(bool)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child

    layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
    layer_of_name = np.array([layer_ids[n.split(":", 1)[0]] for n in names], dtype=np.int64)
    span_layer = layer_of_name[name]

    out: dict[str, float] = {}
    for layer, k in layer_ids.items():
        mask = span_layer == k
        out[f"{layer}.self_s"] = float(self_time[mask].sum())
        out[f"{layer}.peak_mb"] = float(spans["peak"][mask].max()) / MB if mask.any() else 0.0

    group_of_name = []
    for n in names:
        layer, path = n.split(":", 1)
        group = TARGETS[layer][1][path]
        group_of_name.append(f"{layer}.{group}" if group else "")
    span_group = np.array(group_of_name)[name]
    for metric, group in GROUP_TIMES.items():
        out[metric] = float(dur[top & (span_group == group)].sum())
    for metric, target in CALL_COUNTS.items():
        out[metric] = float(np.count_nonzero(name == names.index(target)))

    values = meta["values"]
    out["liealg.sc_tensor_mb"] = values["liealg.sc_tensor_bytes"] / MB
    for key in ("schwinger.nnz_out", "verify.checks", "verify.checks_failed",
                "cli.matfile.bytes_written", "cli.matfile.bytes_read"):
        out[key] = float(values[key])
    out["trace.spans"] = float(meta["spans"])
    return out
