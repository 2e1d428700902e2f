"""Check results: the report every check family records into.

A report holds its checks in batches of numpy arrays, with the names of
the pair families as patterns generated on demand, and writes itself as
streamed JSON or text.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from ._text import float_reprs, joined

__all__ = ["CheckResult", "VerificationReport"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    elapsed: float = 0.0


# write_json and write_text format this many checks at a time
_CHUNK = 1024
_JSON_BOOL = np.array(["false", "true"], dtype=object)
_TEXT_VERDICT = np.array(["FAIL", "PASS"], dtype=object)


def _is_number(value) -> bool:
    """Whether value is a finite JSON number a float holds: an int or a float, not a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _require_finite_nonnegative(values: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first NaN, infinite or negative value."""
    bad = ~(np.isfinite(values) & (values >= 0))
    if bad.any():
        value = float(values[bad.argmax()])
        raise ValueError(f"{what} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class _PairNames:
    """Check names of index pairs, generated on iteration instead of held.

    Pairs (a, b) run over the 1-based index tags 01..k row by row: a < b
    when upper, else every ordered pair.  Each pair is named
    prefix + kind + [a,b] for every kind in turn.
    """

    prefix: str
    k: int
    upper: bool
    kinds: tuple[str, ...] = ("",)

    def __len__(self) -> int:
        pairs = self.k * (self.k - 1) // 2 if self.upper else self.k * self.k
        return pairs * len(self.kinds)

    def __iter__(self) -> Iterator[str]:
        tags = [f"{a:02d}" for a in range(1, self.k + 1)]
        p = self.prefix
        for i, a in enumerate(tags):
            row = tags[i + 1:] if self.upper else tags
            yield from [f"{p}{kind}[{a},{b}]" for b in row for kind in self.kinds]

    @property
    def in_order(self) -> bool:
        """Whether the names run in sorted order: one kind, and tags of one width."""
        return len(self.kinds) == 1 and self.k < 100

    def ends(self) -> tuple[str, str]:
        """The first and the last name of a pattern that holds any."""
        a, b = (self.k - 1, self.k) if self.upper else (self.k, self.k)
        return (f"{self.prefix}{self.kinds[0]}[01,{2 if self.upper else 1:02d}]",
                f"{self.prefix}{self.kinds[-1]}[{a:02d},{b:02d}]")

    @functools.cached_property
    def _tags(self) -> np.ndarray:
        return np.array([f"{a:02d}" for a in range(1, self.k + 1)], dtype=object)

    def columns(self, part: slice, json: bool) -> list:
        """The names in part, as JSON strings when json, in columns of pieces for _text.joined."""
        pair, kind = np.divmod(np.arange(*part.indices(len(self))), len(self.kinds))
        if self.upper:
            # row a of the pairs a < b starts at pair a * (2k - a - 1) / 2
            starts = np.arange(self.k) * (2 * self.k - np.arange(self.k) - 1) // 2
            a = np.searchsorted(starts, pair, "right") - 1
            b = pair - starts[a] + a + 1
        else:
            a, b = np.divmod(pair, self.k)
        heads = [encode_basestring_ascii(self.prefix + kind)[:-1] + "[" if json
                 else self.prefix + kind + "[" for kind in self.kinds]
        return [np.array(heads, dtype=object)[kind], self._tags[a], ",", self._tags[b],
                ']"' if json else "]"]


class _Batch(NamedTuple):
    """Checks recorded together: one name per check and aligned arrays."""

    names: Sequence[str]  # a list, or _PairNames for the pair families
    residuals: np.ndarray  # float64
    passed: np.ndarray  # bool
    elapsed: np.ndarray | None  # float64; None when every check's is 0.0


def _sorted(batches: list[_Batch]) -> _Batch:
    """The checks of batches, in their order, as one batch stably sorted by name.

    A single batch already in name order is returned as it is: a pattern
    in order generates no name.
    """
    if len(batches) == 1:
        names = batches[0].names
        if (names.in_order if isinstance(names, _PairNames)
                else all(a <= b for a, b in itertools.pairwise(names))):
            return batches[0]
    names = list(itertools.chain.from_iterable(b.names for b in batches))
    order = sorted(range(len(names)), key=names.__getitem__)
    timed = any(b.elapsed is not None for b in batches)
    return _Batch([names[a] for a in order], _column(batches, "residuals")[order],
                  _column(batches, "passed")[order],
                  _column(batches, "elapsed")[order] if timed else None)


def _column(batches: list[_Batch], field: str) -> np.ndarray:
    """One field of the batches as one array, elapsed 0.0 where a batch holds none."""
    parts = [np.zeros(len(b.residuals)) if getattr(b, field) is None else getattr(b, field)
             for b in batches]
    return np.concatenate([np.zeros(0, bool if field == "passed" else np.float64), *parts])


class VerificationReport:
    """Accumulated check results with an overall verdict.

    Checks are held as a list of batches, one per add or add_batch call:
    each batch keeps its residuals and verdicts as numpy arrays and its
    names as a list, or, for the pair families, as a pattern that
    generates them.  ``sort_by_name()`` keeps a pattern whose names
    already run in order, so names are generated only by ``checks``,
    ``failed()``, ``signature()`` and the writers.  ``names``,
    ``passed``, ``residuals`` and ``elapsed`` build lists of the whole
    report on demand.  Checks computed together as one batch carry
    elapsed = 0.0; the batch's measured wall time is in ``timings`` under
    the batch label.  Neither timing takes part in ``signature()`` or
    equality.
    """

    def __init__(self, params: dict | None = None):
        self.params: dict = dict(params or {})
        self.timings: dict[str, float] = {}
        self._batches: list[_Batch] = []

    def __len__(self) -> int:
        return sum(len(b.residuals) for b in self._batches)

    @property
    def names(self) -> list[str]:
        return list(itertools.chain.from_iterable(b.names for b in self._batches))

    @property
    def passed(self) -> list[bool]:
        return _column(self._batches, "passed").tolist()

    @property
    def residuals(self) -> list[float]:
        return _column(self._batches, "residuals").tolist()

    @property
    def elapsed(self) -> list[float]:
        return _column(self._batches, "elapsed").tolist()

    @property
    def checks(self) -> tuple[CheckResult, ...]:
        return tuple(map(CheckResult, self.names, self.passed, self.residuals, self.elapsed))

    @property
    def overall(self) -> bool:
        return all(b.passed.all() for b in self._batches)

    def add(self, name: str, residual: float, tol: float, elapsed: float = 0.0) -> None:
        """Record one check, timed on its own."""
        elapsed = np.array([float(elapsed)])
        _require_finite_nonnegative(elapsed, "elapsed")
        self._append([name], np.array([float(residual)]), tol, elapsed)

    def add_batch(
        self, names: Sequence[str], residuals: np.ndarray | Sequence[float], tol: float
    ) -> None:
        """Record one check per name, all computed as one batch (elapsed 0.0).

        A float64 array is kept as given, not copied; anything else is converted.
        Nothing is recorded unless every residual is finite and nonnegative.
        """
        names = names if isinstance(names, _PairNames) else list(names)
        self._append(names, np.asarray(residuals, dtype=np.float64), tol, None)

    def _append(
        self, names: Sequence[str], values: np.ndarray, tol: float, elapsed: np.ndarray | None
    ) -> None:
        if len(names) != len(values):
            raise ValueError(f"{len(names)} names for {len(values)} residuals")
        _require_finite_nonnegative(values, "residual")
        if elapsed is not None and not elapsed.any():
            elapsed = None
        self._batches.append(_Batch(names, values, values <= tol, elapsed))

    def extend(self, other: "VerificationReport") -> None:
        # batches are never changed in place, so both reports may hold them
        self._batches.extend(other._batches)
        for label, seconds in other.timings.items():
            self.timings[label] = self.timings.get(label, 0.0) + seconds

    def sort_by_name(self) -> None:
        """Order the checks by name; checks of equal name keep their order.

        Each batch is put in name order on its own, and the batches are
        ordered by their first names.  Only runs of batches whose name
        ranges overlap are merged, name by name; a report whose batches
        cover disjoint ranges keeps every batch, and every pattern in order.
        """
        batches = [_sorted([b]) for b in self._batches if len(b.residuals)]
        ends = [b.names.ends() if isinstance(b.names, _PairNames) else (b.names[0], b.names[-1])
                for b in batches]
        runs: list[list[int]] = []
        for a in sorted(range(len(batches)), key=lambda a: ends[a][0]):  # stable: ties by position
            if runs and ends[a][0] <= last:
                runs[-1].append(a)
                last = max(last, ends[a][1])
            else:
                runs.append([a])
                last = ends[a][1]
        self._batches = [_sorted([batches[a] for a in sorted(run)]) for run in runs]

    def _failures(self) -> Iterator[CheckResult]:
        for b in self._batches:
            bad = ~b.passed
            # indices first: a batch without failures generates no name
            for a, name in zip(np.flatnonzero(bad).tolist(), itertools.compress(b.names, bad)):
                elapsed = 0.0 if b.elapsed is None else float(b.elapsed[a])
                yield CheckResult(name, False, float(b.residuals[a]), elapsed)

    def failed(self, limit: int | None = None) -> list[CheckResult]:
        """The failing checks in order, or the first limit of them."""
        return list(itertools.islice(self._failures(), limit))

    def failed_count(self) -> int:
        return sum(len(b.passed) - int(np.count_nonzero(b.passed)) for b in self._batches)

    def max_residual(self) -> float:
        return max((float(b.residuals.max()) for b in self._batches if len(b.residuals)),
                   default=0.0)

    def signature(self) -> tuple:
        """Deterministic identity of the report: names, verdicts, residuals."""
        return tuple(row for b in self._batches
                     for row in zip(b.names, b.passed.tolist(), b.residuals.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return self.signature() == other.signature()

    __hash__ = None

    def _parts(self, json: bool) -> Iterator[tuple[_Batch, slice, list]]:
        """Each batch _CHUNK checks at a time: the batch, the part and the
        part's names, as JSON strings when json, in columns for _text.joined."""
        for b in self._batches:
            for s in range(0, len(b.residuals), _CHUNK):
                part = slice(s, s + _CHUNK)
                if isinstance(b.names, _PairNames):
                    yield b, part, b.names.columns(part, json)
                else:
                    names = b.names[part]
                    yield b, part, [np.array(list(map(encode_basestring_ascii, names)) if json
                                             else names, dtype=object)]

    def write_json(self, fh: TextIO) -> None:
        """Write the report as a JSON object with one check per line.

        Checks are formatted _CHUNK at a time, so neither the text nor a
        dict of the whole report is held.  The spelling is json's: names
        through its ASCII string encoder and floats by repr, which is
        json's float form for the finite values a report holds.
        from_dict(json.load(fh)) rebuilds the report.
        """
        fh.write(
            f'{{\n"params": {json.dumps(self.params)},\n'
            f'"overall": {json.dumps(self.overall)},\n"checks": ['
        )
        lead = 1  # the comma before the first check is dropped
        for b, part, names in self._parts(json=True):
            passed, residual = _JSON_BOOL[b.passed[part].view(np.int8)], b.residuals[part]
            elapsed = "0.0" if b.elapsed is None else float_reprs(b.elapsed[part])
            fh.write(joined([',\n{"name": ', *names, ', "passed": ', passed, ', "residual": ',
                             float_reprs(residual), ', "elapsed": ', elapsed, "}"])[lead:])
            lead = 0
        fh.write(f'\n],\n"timings": {json.dumps(self.timings)}\n}}\n')

    def to_json(self) -> str:
        """The text write_json writes."""
        buffer = io.StringIO()
        self.write_json(buffer)
        return buffer.getvalue()

    @classmethod
    def from_dict(cls, payload: dict) -> "VerificationReport":
        """The report a write_json payload describes.

        Raises ValueError unless checks is a list of objects, each with a
        string name, a boolean passed, and a residual and (optionally) an
        elapsed that are finite, nonnegative JSON numbers.
        """
        report = cls(payload.get("params", {}))
        checks = payload.get("checks")
        if not isinstance(checks, list):
            raise ValueError(f"checks must be a list of checks, got {checks!r}")
        for a, c in enumerate(checks):
            if not (isinstance(c, dict) and isinstance(c.get("name"), str)
                    and isinstance(c.get("passed"), bool)
                    and _is_number(c.get("residual")) and _is_number(c.get("elapsed", 0.0))):
                raise ValueError(
                    f"check {a}: name must be a string, passed a boolean, and residual "
                    f"and elapsed finite numbers, got {c!r}"
                )
        residuals = np.array([float(c["residual"]) for c in checks])
        elapsed = np.array([float(c.get("elapsed", 0.0)) for c in checks])
        _require_finite_nonnegative(residuals, "residual")
        _require_finite_nonnegative(elapsed, "elapsed")
        passed = np.array([c["passed"] for c in checks], dtype=bool)
        names = [c["name"] for c in checks]
        report._batches.append(_Batch(names, residuals, passed, elapsed if elapsed.any() else None))
        report.timings = {
            str(k): float(v) for k, v in payload.get("timings", {}).items()
        }
        return report

    def write_text(self, fh: TextIO) -> None:
        """Write the report as one line per check and an overall line.

        Checks are formatted _CHUNK at a time, as write_json formats them.
        """
        lead = 1  # the newline before the first line is dropped
        for b, part, names in self._parts(json=False):
            verdict, residual = _TEXT_VERDICT[b.passed[part].view(np.int8)], b.residuals[part]
            fh.write(joined(["\n", verdict, "  ", *names, "  residual=",
                             float_reprs(residual, "{:.3e}".format)])[lead:])
            lead = 0
        fh.write(("" if lead else "\n") + f"overall: {'PASS' if self.overall else 'FAIL'} "
                 f"({len(self)} checks, {self.failed_count()} failed)")

    def to_text(self) -> str:
        """The text write_text writes."""
        buffer = io.StringIO()
        self.write_text(buffer)
        return buffer.getvalue()
