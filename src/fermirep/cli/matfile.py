"""JSON on-disk form for operators and build manifests.

Operator files hold sorted sparse entries with explicit real/imaginary
parts plus a metadata block, so they are language neutral, diff friendly
and bit stable:

    {
      "dim": 8,
      "modes": 3,
      "entries": [{"row": 0, "col": 1, "re": 1.0, "im": 0.0}, ...],
      "metadata": {...}
    }

A manifest lists the generator labels in order together with their file
names and the construction parameters.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ..fock import FockOperator

__all__ = [
    "operator_to_payload",
    "payload_to_operator",
    "write_operator",
    "read_operator",
    "write_manifest",
    "read_manifest",
]


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


def payload_to_operator(payload: dict) -> tuple[FockOperator, dict]:
    for key in ("dim", "modes", "entries"):
        if key not in payload:
            raise ValueError(f"operator payload is missing {key!r}")
    modes = int(payload["modes"])
    dim = int(payload["dim"])
    if dim != 1 << modes:
        raise ValueError(f"dim {dim} does not equal 2^{modes}")
    entries: dict[tuple[int, int], complex] = {}
    last = None
    for item in payload["entries"]:
        r, c = int(item["row"]), int(item["col"])
        if not (0 <= r < dim and 0 <= c < dim):
            raise ValueError(f"entry position ({r}, {c}) outside [0, {dim})")
        if last is not None and (r, c) <= last:
            raise ValueError("entries must be strictly sorted by (row, col)")
        last = (r, c)
        re, im = float(item["re"]), float(item["im"])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"entry ({r}, {c}) is not finite: re={re}, im={im}")
        entries[(r, c)] = complex(re, im)
    return FockOperator.from_entries(modes, entries), dict(payload.get("metadata", {}))


def write_operator(path: str | Path, op: FockOperator, metadata: dict | None = None) -> None:
    Path(path).write_text(json.dumps(operator_to_payload(op, metadata), indent=1))


def read_operator(path: str | Path) -> tuple[FockOperator, dict]:
    return payload_to_operator(json.loads(Path(path).read_text()))


def write_manifest(path: str | Path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2))


def read_manifest(path: str | Path) -> dict:
    manifest = json.loads(Path(path).read_text())
    for key in ("variant", "modes", "generators"):
        if key not in manifest:
            raise ValueError(f"manifest is missing {key!r}")
    return manifest
