"""Property-check engine: algebraic identities as pass/fail checks.

Every check computes a residual as the largest absolute entry of a
difference (Chebyshev norm) and passes when the residual is within the
tolerance.  Checks are pure and deterministic; the suite runner merges
its results ordered by check name.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from . import fock, liealg, schwinger
from .errors import CapacityError
from .fock import FockOperator
from .liealg import StructureConstants
from .schwinger import RepresentationResult

__all__ = [
    "CheckResult",
    "VerificationReport",
    "BlockDecomposition",
    "check_anticommutation",
    "check_closure",
    "check_eij_algebra",
    "check_number_commutant",
    "block_decompose",
    "compare_ops",
    "run_suite",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    elapsed: float = 0.0


class VerificationReport:
    """Accumulated check results with an overall verdict.

    Checks computed together as one batch carry elapsed = 0.0; the batch's
    measured wall time is in ``timings`` under the batch label.  Neither
    timing takes part in ``signature()`` or equality.
    """

    def __init__(self, params: dict | None = None):
        self.params: dict = dict(params or {})
        self.checks: list[CheckResult] = []
        self.timings: dict[str, float] = {}

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: float, tol: float, elapsed: float = 0.0) -> None:
        residual = float(residual)
        if not math.isfinite(residual) or residual < 0:
            raise ValueError(f"residual must be finite and nonnegative, got {residual}")
        self.checks.append(CheckResult(name, residual <= tol, residual, elapsed))

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)
        for label, seconds in other.timings.items():
            self.timings[label] = self.timings.get(label, 0.0) + seconds

    def sort_by_name(self) -> None:
        self.checks.sort(key=lambda c: c.name)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def signature(self) -> tuple:
        """Deterministic identity of the report: names, verdicts, residuals."""
        return tuple((c.name, c.passed, c.residual) for c in self.checks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return self.overall == other.overall and self.signature() == other.signature()

    __hash__ = None

    def to_json(self) -> str:
        """The report as a JSON object with one check per line.

        Each check is encoded on its own by json.dumps, which uses the C
        encoder (the indented encoder is pure Python), so no dict of the
        whole report is built; from_dict(json.loads(text)) rebuilds it.
        """
        checks = ",".join(
            "\n" + json.dumps(
                {"name": c.name, "passed": c.passed,
                 "residual": c.residual, "elapsed": c.elapsed}
            )
            for c in self.checks
        )
        return (
            f'{{\n"params": {json.dumps(self.params)},\n'
            f'"overall": {json.dumps(self.overall)},\n'
            f'"checks": [{checks}\n],\n'
            f'"timings": {json.dumps(self.timings)}\n}}\n'
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "VerificationReport":
        report = cls(payload.get("params", {}))
        for c in payload["checks"]:
            report.checks.append(
                CheckResult(
                    c["name"], bool(c["passed"]), float(c["residual"]),
                    float(c.get("elapsed", 0.0)),
                )
            )
        report.timings = {
            str(k): float(v) for k, v in payload.get("timings", {}).items()
        }
        return report

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name}  residual={c.residual:.3e}")
        lines.append(
            f"overall: {'PASS' if self.overall else 'FAIL'} "
            f"({len(self.checks)} checks, {len(self.failed())} failed)"
        )
        return "\n".join(lines)


def check_anticommutation(
    n: int,
    tol: float = 0.0,
    annihilation_source: Callable[[int, int], FockOperator] | None = None,
) -> VerificationReport:
    """All anticommutator identities of the n ladder operators.

    {a_i, a_j} = 0, {a+_i, a+_j} = 0 and {a_i, a+_j} = d_ij * identity for
    every ordered index pair.  The ladder matrices are integer-valued, so
    residuals are exactly zero and the default tolerance is 0.
    """
    source = annihilation_source or fock.annihilation
    ann = [source(n, i) for i in range(1, n + 1)]
    cre = [a.dagger() for a in ann]
    eye = FockOperator.identity(n)
    report = VerificationReport({"n": n, "tol": tol})
    for i in range(n):
        for j in range(n):
            t0 = time.perf_counter()
            r = ann[i].anticommutator(ann[j]).max_abs()
            report.add(
                f"anticomm/n{n:02d}/aa[{i + 1:02d},{j + 1:02d}]",
                r, tol, time.perf_counter() - t0,
            )
            t0 = time.perf_counter()
            r = cre[i].anticommutator(cre[j]).max_abs()
            report.add(
                f"anticomm/n{n:02d}/cc[{i + 1:02d},{j + 1:02d}]",
                r, tol, time.perf_counter() - t0,
            )
            t0 = time.perf_counter()
            delta = eye if i == j else FockOperator.zero(n)
            r = (ann[i].anticommutator(cre[j]) - delta).max_abs()
            report.add(
                f"anticomm/n{n:02d}/ac[{i + 1:02d},{j + 1:02d}]",
                r, tol, time.perf_counter() - t0,
            )
    return report


def _product_terms(ops: Sequence[FockOperator]) -> int:
    """Terms of vstack(ops) @ hstack(ops), a bound on its stored entries.

    Summed over t: stored entries in column t times those in row t.
    """
    cols = sum(np.bincount(op.mat.indices, minlength=op.dim) for op in ops)
    rows = sum(np.diff(op.mat.indptr).astype(np.int64) for op in ops)
    return int(np.dot(cols, rows))


# check_closure runs the whole-set kernel while the product it forms has at
# most this many terms (_product_terms), and sparse pairwise arithmetic
# above.  The kernel's traced peak is 130-140 bytes per term (standard_rep
# at n = 8 and 10 on a 2-vCPU VM), so this is a 400 MB budget: run_suite(8)
# and the sector builds up to ucnm (8, 2) fit, while standard_rep at n = 10
# (2,932,792 terms) and n = 12 (23,971,064) go pairwise
_CLOSURE_PRODUCT_TERMS = 400_000_000 // 140


def _closure_residuals(
    ops: Sequence[FockOperator], constants: StructureConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Block maxima of [r_a, r_b] - sum_l c[a, b, l] r_l over all pairs a < b.

    Block (a, b) of one sparse matrix over the full 2^n space sums the
    commutator's entries from liealg.commutator_entries and, for each
    coefficient record (a, b, l, v), -v times every stored entry of r_l.
    Keys and maxima are as in _block_maxima with k blocks per side.
    """
    k, dim = len(ops), ops[0].dim
    tall = _stack(ops)
    rows, cols, vals = liealg.commutator_entries(
        tall, sp.hstack([op.mat for op in ops], format="csr")
    )
    upper = rows // dim < cols // dim
    rows, cols, vals = rows[upper], cols[upper], vals[upper]

    rec = constants.c[constants.c["i"] < constants.c["j"]]
    # r_l's stored entries are tall's entries first[l] to first[l + 1] - 1;
    # record `which` is repeated once for each entry pos of its r_l
    first = tall.indptr[::dim]
    per = np.diff(first)[rec["l"]]
    which = np.repeat(np.arange(len(rec)), per)
    pos = np.arange(len(which)) + np.repeat(first[rec["l"]] - np.cumsum(per) + per, per)
    entries = tall.tocoo()
    rows = np.concatenate([rows, rec["i"][which] * dim + entries.row[pos] % dim])
    cols = np.concatenate([cols, rec["j"][which] * dim + entries.col[pos]])
    vals = np.concatenate([vals, -rec["value"][which] * entries.data[pos]])
    diff = sp.csr_matrix((vals, (rows, cols)), shape=(k * dim, k * dim))
    return _block_maxima(diff, dim, k)


def check_closure(
    rep: RepresentationResult | Sequence[FockOperator],
    constants: StructureConstants,
    tol: float = DEFAULT_TOL,
    label: str = "closure",
) -> VerificationReport:
    """Residuals of [r_i, r_j] - sum_l c[i, j, l] r_l for every pair i < j.

    All residuals come from one sparse matrix over the full 2^n space
    (_closure_residuals), so entries joining sectors count like any other.
    Above _CLOSURE_PRODUCT_TERMS, each pair is computed with sparse
    pairwise arithmetic instead; both paths sum the same records.
    """
    ops = list(rep)
    k = len(ops)
    if constants.size != k:
        raise ValueError(
            f"representation has {k} operators but constants are for {constants.size}"
        )
    report = VerificationReport({"label": label, "tol": tol})
    t0 = time.perf_counter()
    if _product_terms(ops) <= _CLOSURE_PRODUCT_TERMS:
        keys, worst = _closure_residuals(ops, constants)
        resid = np.zeros(k * k)
        resid[keys] = worst
        for i in range(k):
            for j in range(i + 1, k):
                report.add(f"{label}/[{i + 1:02d},{j + 1:02d}]", resid[i * k + j], tol)
    else:
        # row i * k + j holds the coefficients of [G_i, G_j]
        rows = constants.rows
        for i in range(k):
            for j in range(i + 1, k):
                t_pair = time.perf_counter()
                diff = ops[i].commutator(ops[j])
                span = slice(rows.indptr[i * k + j], rows.indptr[i * k + j + 1])
                for l, v in zip(rows.indices[span], rows.data[span]):
                    diff = diff - complex(v) * ops[l]
                report.add(
                    f"{label}/[{i + 1:02d},{j + 1:02d}]",
                    diff.max_abs(), tol, time.perf_counter() - t_pair,
                )
    report.timings[label] = time.perf_counter() - t0
    return report


def _stack(ops: Sequence[FockOperator]) -> sp.csr_matrix:
    """Operators as row blocks: row a * dim + r is row r of ops[a]."""
    return sp.vstack([op.mat for op in ops], format="csr")


def _block_maxima(
    mat: sp.spmatrix, dim: int, blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Largest absolute entry of each nonzero dim x dim block of mat.

    Returns the sorted keys a * blocks + b of the blocks (a, b) holding a
    nonzero entry and, aligned with them, each block's maximum.
    """
    coo = mat.tocoo()
    keys = (coo.row.astype(np.int64) // dim) * blocks + coo.col // dim
    keys, inverse = np.unique(keys, return_inverse=True)
    worst = np.zeros(len(keys))
    np.maximum.at(worst, inverse, np.abs(coo.data))
    return keys, worst


def _eij_residuals(
    units: Sequence[FockOperator], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Block maxima of [Q_a, Q_b] - (d_jp Q_iq - d_qi Q_pj) over all pairs.

    With a = (i, j) and b = (p, q), block (a, b) of one sparse matrix over
    the full 2^n space sums the commutator's entries from
    liealg.commutator_entries and the expected terms, subtracted, so an
    entry outside the sector shows as well.  Keys and maxima are as in
    _block_maxima with k^2 blocks per side.
    """
    size = k * k
    dim = units[0].dim
    stack = _stack(units)
    rows, cols, vals = liealg.commutator_entries(
        stack, sp.hstack([u.mat for u in units], format="csr")
    )

    # unit Q_xy is the d_jp Q_iq term of every pair ((x, j), (j, y)) and the
    # d_qi Q_pj term, subtracted, of every pair ((j, y), (x, j))
    coo = stack.tocoo()
    unit, r = np.divmod(coo.row.astype(np.int64), dim)
    x, y = np.divmod(unit, k)
    c = coo.col.astype(np.int64)
    j = np.arange(k)[:, None]
    rows = np.concatenate(
        [rows, ((x * k + j) * dim + r).ravel(), ((j * k + y) * dim + r).ravel()]
    )
    cols = np.concatenate(
        [cols, ((j * k + y) * dim + c).ravel(), ((x * k + j) * dim + c).ravel()]
    )
    vals = np.concatenate([vals, np.tile(-coo.data, k), np.tile(coo.data, k)])
    diff = sp.csr_matrix((vals, (rows, cols)), shape=(size * dim, size * dim))
    return _block_maxima(diff, dim, size)


def check_eij_algebra(
    units: Sequence[FockOperator],
    k: int,
    tol: float = DEFAULT_TOL,
    label: str = "eij",
) -> VerificationReport:
    """Matrix-unit commutation identities for a k^2-element operator list.

    The list is indexed row-major: units[(i-1)*k + (j-1)] plays e_ij, and
    each quadruple must satisfy [Q_ij, Q_pq] = d_jp Q_iq - d_qi Q_pj.
    All k^4 identities are checked, computed for the whole set at once,
    and one result is recorded per (i, j): the worst residual over every
    (p, q).
    """
    if len(units) != k * k:
        raise ValueError(f"need {k * k} operators for k={k}, got {len(units)}")
    report = VerificationReport({"label": label, "k": k, "tol": tol})
    size = k * k
    t0 = time.perf_counter()
    keys, worst = _eij_residuals(units, k)
    row_worst = np.zeros(size)
    np.maximum.at(row_worst, keys // size, worst)
    for a in range(size):
        i, j = divmod(a, k)
        report.add(f"{label}/[{i + 1:02d},{j + 1:02d}]", row_worst[a], tol)
    report.timings[label] = time.perf_counter() - t0
    return report


def check_number_commutant(
    rep: RepresentationResult | Sequence[FockOperator],
    n: int,
    tol: float = DEFAULT_TOL,
    label: str = "numcomm",
) -> VerificationReport:
    """Residual of [op, N_total] for every operator.

    N_total is diagonal with entries d, so entry (r, c) of the commutator
    is v * d[c] - d[r] * v for each stored entry v of op: the residual
    comes from op's own entries, without a sparse product.  Operators are
    taken one at a time so that memory stays at one operator's entries.
    """
    ops = list(rep)
    report = VerificationReport({"label": label, "n": n, "tol": tol})
    counts = fock._particle_counts(n)
    names = None
    if isinstance(rep, RepresentationResult) and len(rep.meta.labels) == len(ops):
        names = rep.meta.labels
    for a, op in enumerate(ops):
        if op.modes != n:
            raise ValueError(f"operator {a} acts on {op.modes} modes, expected {n}")
        t0 = time.perf_counter()
        coo = op.mat.tocoo()
        diff = coo.data * counts[coo.col] - counts[coo.row] * coo.data
        tag = names[a] if names else f"{a + 1:03d}"
        report.add(
            f"{label}/{tag}", np.max(np.abs(diff), initial=0.0), tol,
            time.perf_counter() - t0,
        )
    return report


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Per-sector diagonal blocks of an operator in the canonical basis."""

    modes: int
    blocks: dict[int, np.ndarray]
    off_block_norm: float


def block_decompose(op: FockOperator) -> BlockDecomposition:
    """Split an operator into per-sector blocks plus an off-block norm.

    Each stored entry whose row and column lie in the same sector is
    placed in that sector's block, at its position less the sector's
    offset.  The off-block norm is the largest absolute entry of the
    others; it is zero exactly when the operator is number conserving.
    """
    n = op.modes
    counts = fock._particle_counts(n)
    coo = op.mat.tocoo()
    sector = counts[coo.row]
    inside = sector == counts[coo.col]
    blocks = {}
    for m, start in enumerate(np.searchsorted(counts, np.arange(n + 1))):
        size = math.comb(n, m)
        blocks[m] = np.zeros((size, size), dtype=np.complex128)
        mine = inside & (sector == m)
        blocks[m][coo.row[mine] - start, coo.col[mine] - start] = coo.data[mine]
    off = np.abs(coo.data[~inside])
    return BlockDecomposition(n, blocks, float(np.max(off, initial=0.0)))


def compare_ops(
    a: RepresentationResult | Sequence[FockOperator],
    b: RepresentationResult | Sequence[FockOperator],
    tol: float = DEFAULT_TOL,
    label: str = "compare",
) -> VerificationReport:
    """Entrywise difference between two equal-length operator lists."""
    ops_a, ops_b = list(a), list(b)
    if len(ops_a) != len(ops_b):
        raise ValueError(f"lengths differ: {len(ops_a)} vs {len(ops_b)}")
    report = VerificationReport({"label": label, "tol": tol})
    for k, (x, y) in enumerate(zip(ops_a, ops_b)):
        if x.modes != y.modes:
            raise ValueError(f"operator {k} mode counts differ: {x.modes} vs {y.modes}")
        t0 = time.perf_counter()
        report.add(f"{label}/{k + 1:03d}", x.diff_max(y), tol, time.perf_counter() - t0)
    return report


def _block_equality_checks(
    rep: RepresentationResult,
    expected_blocks: dict[int, Sequence[np.ndarray]],
    must_vanish: Iterable[int],
    n: int,
    tol: float,
    label: str,
) -> VerificationReport:
    """Sector blocks of each operator against expected matrices.

    Blocks listed in expected_blocks are compared entrywise, sectors in
    must_vanish must be zero, other sectors are unconstrained; off-block
    entries count against every operator.
    """
    vanish = set(must_vanish)
    report = VerificationReport({"label": label, "tol": tol})
    for a, op in enumerate(rep):
        t0 = time.perf_counter()
        dec = block_decompose(op)
        worst = dec.off_block_norm
        for m in range(n + 1):
            block = dec.blocks[m]
            if m in expected_blocks:
                worst = max(worst, float(np.max(np.abs(block - expected_blocks[m][a]))))
            elif m in vanish and block.size:
                worst = max(worst, float(np.max(np.abs(block))))
        report.add(f"{label}/{a + 1:03d}", worst, tol, time.perf_counter() - t0)
    return report


def _outer_product_check(
    units: Sequence[FockOperator], n: int, m: int, tol: float, label: str
) -> VerificationReport:
    """Each unit operator against the literal basis outer product."""
    report = VerificationReport({"label": label, "tol": tol})
    idx = np.array(fock.sector_indices(n, m))
    k = len(idx)
    t0 = time.perf_counter()
    stack = _stack(units)
    a = np.arange(k * k)
    i, j = np.divmod(a, k)
    expected = sp.csr_matrix(
        (np.ones(k * k, dtype=np.int64), (a * (1 << n) + idx[i], idx[j])),
        shape=stack.shape,
    )
    diff = stack - expected
    report.add(label, np.max(np.abs(diff.data), initial=0.0), tol)
    report.timings[label] = time.perf_counter() - t0
    return report


# run_suite builds the generalized Gell-Mann set ggm(k) of a sector of
# dimension k = C(n, m) for its closure and block checks only up to this k.
# The bound is for run time, not memory: without it run_suite(6) also checks
# rep_ucnm on the sectors with k = 15, 15 and 20, which takes 148,102 checks
# instead of 17,902 and 3.2-3.4 s instead of 1.3-1.9 s on a 2-vCPU VM
_MAX_SECTOR_REP_DIM = 10


def run_suite(
    n_max: int,
    tol: float = DEFAULT_TOL,
    *,
    annihilation_source: Callable[[int, int], FockOperator] | None = None,
) -> VerificationReport:
    """Run the full identity catalogue for all mode counts up to n_max.

    Covers the anticommutation relations, closure of the bilinear and
    number-selective representations, the spin-1 quadratic
    reconstruction, the explicit-vs-uniform three-mode comparison, the
    sector unit-operator algebra, number-commutant checks, and the block
    equalities.  Every sector gets the exhaustive unit-operator checks;
    the closure and block checks of the sector representation rep_ucnm
    run only for sectors of dimension C(n, m) <= _MAX_SECTOR_REP_DIM,
    which bounds the suite's run time.

    annihilation_source replaces the builder feeding the anticommutation
    family; it exists so fault-injection tests can corrupt the input.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    cap = fock.mode_capacity()
    if n_max > cap:
        raise CapacityError(f"n_max {n_max} exceeds capacity {cap}")

    report = VerificationReport({"n_max": n_max, "tol": tol})
    for n in range(1, n_max + 1):
        report.extend(
            check_anticommutation(n, tol, annihilation_source=annihilation_source)
        )
    # each generalized Gell-Mann set and its constants, built once per dimension
    sets: dict[int, tuple[liealg.GeneratorSet, StructureConstants]] = {}

    def gell_mann_set(d: int) -> tuple[liealg.GeneratorSet, StructureConstants]:
        if d not in sets:
            gens = liealg.generalized_gell_mann(d)
            sets[d] = gens, liealg.structure_constants(gens)
        return sets[d]

    for n in range(2, n_max + 1):
        gens, sc = gell_mann_set(n)
        conj = liealg.conjugate_rep(gens)

        std = schwinger.standard_rep(gens, n)
        report.extend(check_closure(std, sc, tol, label=f"closure/standard/n{n:02d}"))
        report.extend(
            check_number_commutant(std, n, tol, label=f"numcomm/standard/n{n:02d}")
        )
        report.extend(
            _block_equality_checks(
                std,
                {1: gens.mats, n - 1: conj.mats} if n > 2 else {1: gens.mats},
                (0, n),
                n,
                tol,
                label=f"block/standard/n{n:02d}",
            )
        )

        if n >= 3:
            nssfr = schwinger.nssfr_un(gens, n)
            report.extend(
                check_closure(nssfr, sc, tol, label=f"closure/nssfr/n{n:02d}")
            )
            report.extend(
                check_number_commutant(nssfr, n, tol, label=f"numcomm/nssfr/n{n:02d}")
            )
            report.extend(
                _block_equality_checks(
                    nssfr,
                    {1: gens.mats, n - 1: gens.mats},
                    (m for m in range(n + 1) if m not in (1, n - 1)),
                    n,
                    tol,
                    label=f"block/nssfr/n{n:02d}",
                )
            )

        if n == 3:
            gm = liealg.gell_mann()
            rebuilt = liealg.gellmann_from_spin1()
            rec = VerificationReport()
            t0 = time.perf_counter()
            worst = max(
                float(np.max(np.abs(a - b)))
                for a, b in zip(rebuilt.mats, gm.mats)
            )
            rec.add("reconstruct/spin1-quadratic", worst, tol, time.perf_counter() - t0)
            report.extend(rec)
            report.extend(
                compare_ops(
                    schwinger.nssfr_u3_explicit(),
                    schwinger.nssfr_un(gm, 3),
                    tol,
                    label="compare/u3-explicit-vs-uniform",
                )
            )
            report.extend(
                check_closure(
                    schwinger.nssfr_u3_explicit(),
                    liealg.structure_constants(gm),
                    tol,
                    label="closure/u3-explicit",
                )
            )

        for m in range(1, n):
            kdim = fock.sector_dimension(n, m)
            units = schwinger.element_operators(n, m)
            report.extend(
                _outer_product_check(
                    units, n, m, tol, label=f"outer/n{n:02d}m{m:02d}"
                )
            )
            report.extend(
                check_number_commutant(
                    units, n, tol, label=f"numcomm/sector/n{n:02d}m{m:02d}"
                )
            )
            report.extend(
                check_eij_algebra(units, kdim, tol, label=f"eij/n{n:02d}m{m:02d}")
            )
            if kdim <= _MAX_SECTOR_REP_DIM:
                sector_gens, sector_sc = gell_mann_set(kdim)
                sector_rep = schwinger.rep_ucnm(sector_gens, n, m)
                report.extend(
                    check_closure(
                        sector_rep,
                        sector_sc,
                        tol,
                        label=f"closure/sector/n{n:02d}m{m:02d}",
                    )
                )
                report.extend(
                    _block_equality_checks(
                        sector_rep,
                        {m: sector_gens.mats},
                        (s for s in range(n + 1) if s != m),
                        n,
                        tol,
                        label=f"block/sector/n{n:02d}m{m:02d}",
                    )
                )
    report.sort_by_name()
    return report
