"""JSON on-disk form for operators and build manifests.

Operator files hold sparse entries with explicit real/imaginary parts
plus a metadata block, so they are language neutral, diff friendly and
bit stable:

    {
     "dim": 8,
     "modes": 3,
     "entries": [
      {
       "row": 0,
       "col": 1,
       "re": 1.0,
       "im": 0.0
      },
      ...
     ],
     "metadata": {...}
    }

The written form is canonical: entries in strictly increasing row-major
(row, col) order, floats as their shortest round-trip ``repr``, and the
layout of ``json.dumps(operator_to_payload(op, metadata), indent=1)``.
The writer fills one fixed per-entry template from value tables: the
decimal spelling of each index, cached per dimension, and the ``repr``
of each distinct float, keyed by its bit pattern so that -0.0 and 0.0
stay apart.  It refuses NaN or infinite entries before it opens the file.

Reading is strict.  It refuses a payload whose ``modes`` lies outside
[1, mode_capacity()] or whose ``dim`` is not 2^modes, and entries that
are out of range, unsorted or duplicated, not finite, or of the wrong
JSON type (``row``/``col`` must be integers, not booleans; ``re``/``im``
must be numbers).  Every refusal raises ``MatfileError`` naming the file
and the first offending entry, before any operator is allocated.

A manifest lists the generator labels in order together with their file
names and the construction parameters; a mixed one also its xi and its
pairing.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from .. import sparse
from .._text import float_reprs, joined
from ..fock import FockOperator, mode_capacity

__all__ = [
    "MatfileError",
    "operator_to_payload",
    "payload_to_operator",
    "write_operator",
    "read_operator",
    "write_manifest",
    "read_manifest",
]

# the text of json.dumps(payload, indent=1) around an entry's row, col, re
# and im, nested at depth 2 and led by the comma that follows an entry
_ENTRY = (',\n  {\n   "row": ', ',\n   "col": ', ',\n   "re": ', ',\n   "im": ', '\n  }')

# manifest fields that verify --from reads besides generators and family
_MANIFEST_FIELDS = {
    "variant": lambda v: type(v) is str,
    "modes": lambda v: type(v) is int,
    "particles": lambda v: v is None or type(v) is int,
    "xi": lambda v: v is None or (isinstance(v, list) and len(v) == 2 and set(map(type, v)) <= {int}),
}


class MatfileError(ValueError):
    """An operator file or manifest that reading refuses."""


def operator_to_payload(op: FockOperator, metadata: dict | None = None) -> dict:
    entries = [
        {"row": r, "col": c, "re": float(v.real), "im": float(v.imag)}
        for (r, c), v in sorted(op.entries().items())
    ]
    return {
        "dim": op.dim,
        "modes": op.modes,
        "entries": entries,
        "metadata": dict(metadata or {}),
    }


def _column(items: list, key: str, types: set, what: str) -> list:
    """One field of every entry, refused unless each value's type is in types."""
    try:
        values = [item[key] for item in items]
    except (KeyError, TypeError):
        k = next(
            k for k, item in enumerate(items) if not (isinstance(item, dict) and key in item)
        )
        raise MatfileError(f"entry {k} is not an object holding {key!r}") from None
    if not set(map(type, values)) <= types:
        k = next(k for k, v in enumerate(values) if type(v) not in types)
        raise MatfileError(f"entry {k} has {key} {values[k]!r}, which is not {what}")
    return values


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


def payload_to_operator(payload: dict) -> tuple[FockOperator, dict]:
    if not isinstance(payload, dict):
        raise MatfileError("operator payload must be a JSON object")
    for key in ("dim", "modes", "entries"):
        if key not in payload:
            raise MatfileError(f"operator payload is missing {key!r}")
    modes, dim, items = payload["modes"], payload["dim"], payload["entries"]
    metadata = payload.get("metadata", {})
    cap = mode_capacity()
    if type(modes) is not int or not 1 <= modes <= cap:
        raise MatfileError(f"modes must be an integer in [1, {cap}], got {modes!r}")
    if type(dim) is not int or dim != 1 << modes:
        raise MatfileError(f"dim {dim!r} does not equal 2^{modes}")
    if not isinstance(items, list):
        raise MatfileError("entries must be a JSON array")
    if not isinstance(metadata, dict):
        raise MatfileError("metadata must be a JSON object")
    rows = _column(items, "row", {int}, "an integer")
    cols = _column(items, "col", {int}, "an integer")
    res = _column(items, "re", {int, float}, "a JSON number")
    ims = _column(items, "im", {int, float}, "a JSON number")

    try:
        row = np.array(rows, dtype=np.int64)
        col = np.array(cols, dtype=np.int64)
    except OverflowError:
        # a position beyond int64 is out of range; find the first one in Python
        outside = np.array([not (0 <= r < dim and 0 <= c < dim) for r, c in zip(rows, cols)])
    else:
        outside = (row < 0) | (row >= dim) | (col < 0) | (col >= dim)
    if outside.any():
        k = _first(outside)
        raise MatfileError(f"entry {k} position ({rows[k]}, {cols[k]}) outside [0, {dim})")
    # strictly increasing (row, col), compared lexicographically so that no
    # row * dim + col key can overflow
    drow, dcol = np.diff(row), np.diff(col)
    unsorted = (drow < 0) | ((drow == 0) & (dcol <= 0))
    if unsorted.any():
        k = _first(unsorted) + 1
        raise MatfileError(
            f"entries must be strictly sorted by (row, col): entry {k} "
            f"({rows[k]}, {cols[k]}) follows ({rows[k - 1]}, {cols[k - 1]})"
        )
    try:
        re = np.array(res, dtype=np.float64)
        im = np.array(ims, dtype=np.float64)
    except OverflowError:
        # an integer beyond the float range is as unrepresentable as inf
        finite = np.array([_finite(a) and _finite(b) for a, b in zip(res, ims)])
    else:
        finite = np.isfinite(re) & np.isfinite(im)
    if not finite.all():
        k = _first(~finite)
        raise MatfileError(
            f"entry ({rows[k]}, {cols[k]}) is not finite: re={res[k]}, im={ims[k]}"
        )

    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=dim), out=indptr[1:])
    data = np.empty(len(items), dtype=np.complex128)
    data.real, data.imag = re, im
    return FockOperator(modes, sparse.CSR(data, col, indptr, (dim, dim))), dict(metadata)


def _finite(x: int | float) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def write_operator(path: str | Path, op: FockOperator, metadata: dict | None = None) -> None:
    """Write op in the canonical form; ValueError on a NaN or infinite entry."""
    mat = op.mat
    row = np.repeat(np.arange(op.dim), np.diff(mat.indptr))
    vals = mat.data.astype(np.complex128, copy=False)
    finite = np.isfinite(vals)
    if not finite.all():
        k = _first(~finite)
        raise ValueError(
            f"entry ({row[k]}, {mat.indices[k]}) is not finite: {vals[k]}; "
            "JSON has no spelling for it"
        )
    decimals, reprs = _decimals(op.dim), float_reprs(np.stack([vals.real, vals.imag], 1))
    body = joined([
        _ENTRY[0], decimals[row], _ENTRY[1], decimals[mat.indices],
        _ENTRY[2], reprs[:, 0], _ENTRY[3], reprs[:, 1], _ENTRY[4],
    ])[1:]
    entries = f"[{body}\n ]" if body else "[]"
    meta = json.dumps(dict(metadata or {}), indent=1).replace("\n", "\n ")
    Path(path).write_text(
        f'{{\n "dim": {op.dim},\n "modes": {op.modes},\n "entries": {entries},\n'
        f' "metadata": {meta}\n}}'
    )


@lru_cache(maxsize=None)
def _decimals(count: int) -> np.ndarray:
    """str(i) for i in range(count), as a read-only object array."""
    table = np.array([str(i) for i in range(count)], dtype=object)
    table.flags.writeable = False
    return table


def read_operator(path: str | Path) -> tuple[FockOperator, dict]:
    path = Path(path)
    try:
        return payload_to_operator(json.loads(path.read_text()))
    except (MatfileError, json.JSONDecodeError, UnicodeDecodeError) as err:
        raise MatfileError(f"{path}: {err}") from None


def write_manifest(path: str | Path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2))


def read_manifest(path: str | Path) -> dict:
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise MatfileError(f"{path}: {err}") from None
    if not isinstance(manifest, dict):
        raise MatfileError(f"{path}: manifest must be a JSON object")
    for key in ("variant", "modes", "generators"):
        if key not in manifest:
            raise MatfileError(f"{path}: manifest is missing {key!r}")
    for key, valid in _MANIFEST_FIELDS.items():
        if not valid(manifest.get(key)):
            raise MatfileError(f"{path}: manifest {key} {manifest.get(key)!r} has the wrong type")
    generators = manifest["generators"]
    if not isinstance(generators, list) or not all(
        isinstance(item, dict) and type(item.get("label")) is str
        and type(item.get("file")) is str
        for item in generators
    ):
        raise MatfileError(f"{path}: generators must be a list of {{label, file}} strings")
    return manifest
