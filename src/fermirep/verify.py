"""Property-check engine: algebraic identities as pass/fail checks.

Every check computes a residual as the largest absolute entry of a
difference (Chebyshev norm) and passes when the residual is within the
tolerance.  Checks are pure and deterministic; the suite runner merges
its results ordered by check name.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import fock, liealg, schwinger, sparse
from .errors import CapacityError
from .fock import FockOperator
from .liealg import StructureConstants
from .report import CheckResult, VerificationReport, _PairNames
from .schwinger import RepresentationResult, _subset_sums

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
    "representation_checks",
    "run_suite",
]

DEFAULT_TOL = 1e-10


def check_anticommutation(
    n: int,
    tol: float = 0.0,
    annihilation_source: Callable[[int, int], FockOperator] | None = None,
) -> VerificationReport:
    """All anticommutator identities of the n ladder operators.

    {a_i, a_j} = 0, {a+_i, a+_j} = 0 and {a_i, a+_j} = d_ij * identity for
    every ordered index pair, as one _closure_residuals batch with sign 1
    over a_1..a_n, a+_1..a+_n and the identity.  The ladder matrices are
    integer-valued, so residuals are exactly zero and the default
    tolerance is 0.
    """
    source = annihilation_source or fock.annihilation
    ann = [source(n, i) for i in range(1, n + 1)]
    ops = ann + [a.dagger() for a in ann] + [FockOperator.identity(n)]
    k = len(ops)
    # {a_i, a+_i} = 1 * identity, the only nonzero right-hand side
    rec = np.zeros(n, dtype=liealg.RECORD_DTYPE)
    rec["i"], rec["j"], rec["l"], rec["value"] = np.arange(n), np.arange(n, 2 * n), 2 * n, 1
    report = VerificationReport({"n": n, "tol": tol})
    name = f"anticomm/n{n:02d}"
    t0 = time.perf_counter()
    keys, worst = _closure_residuals(_record_of(ops), StructureConstants(k, rec).records, 1)
    resid = np.zeros(k * k)
    resid[keys] = worst
    i, j = np.divmod(np.arange(n * n), n)
    # the kernel fills blocks (a, b) with a <= b only, and {x, y} = {y, x}
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    values = np.stack([resid[lo * k + hi], resid[(n + lo) * k + n + hi], resid[i * k + n + j]], 1)
    report.add_batch(_PairNames(f"{name}/", n, False, ("aa", "cc", "ac")), values.ravel(), tol)
    report.timings[name] = time.perf_counter() - t0
    return report


def _record_of(ops: RepresentationResult | Sequence[FockOperator]) -> sparse.CSR:
    """Operator a as row a of a (k, 4^n) record: a representation's own, or a list's."""
    if isinstance(ops, RepresentationResult):
        return ops.flat
    return sparse.vstack([sparse.reshape(op.mat, (1, op.dim**2)) for op in ops])


def _closure_residuals(
    flat: sparse.CSR, records: Callable[[int, int], np.ndarray], sign: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """Block maxima of [r_a, r_b] - sum_l c[a, b, l] r_l over all pairs a < b.

    Row a of the (k, d^2) record flat holds r_a's entries keyed r * d + c
    (a GeneratorSet's or a representation's), and records(a0, a1) gives the
    coefficient records (a, b, l, v) with a in [a0, a1), in the order of
    StructureConstants.c.  For each chunk of operators a of
    liealg.commutator_entries, one sparse matrix over the full d-dimensional
    space sums block (a, b)'s commutator entries and, for each record with
    a < b, -v times every stored entry of r_l.  With sign 1 the
    anticommutator {r_a, r_b} takes the commutator's place, and the pairs
    a = b are included.  Returns the sorted keys a * k + b of the blocks
    holding a nonzero entry and, aligned with them, each block's largest
    absolute entry.
    """
    k, dim = flat.shape[0], math.isqrt(flat.shape[1])
    first, (local, col) = flat.indptr, np.divmod(flat.indices, dim)
    sizes = np.diff(first)
    keys, worst = [], []
    for a0, a1, rows, cols, vals in liealg.commutator_entries(flat, sign, upper=True):
        # record c[t] is repeated once for each stored entry pos of its r_l,
        # which are flat's entries first[l] to first[l + 1] - 1
        c = records(a0, a1)
        c = c[c["i"] < c["j"] + (sign > 0)]
        per = sizes[c["l"]]
        which = np.repeat(np.arange(len(c)), per)
        pos = np.arange(len(which)) + np.repeat(first[c["l"]] - np.cumsum(per) + per, per)
        rows = np.concatenate([rows, c["i"][which] * dim + local[pos]])
        cols = np.concatenate([cols, c["j"][which] * dim + col[pos]])
        vals = np.concatenate([vals, -c["value"][which] * flat.data[pos]])
        del c, which, pos
        diff = sparse.from_triplets(rows - a0 * dim, cols, vals, ((a1 - a0) * dim, k * dim))
        # freed before the block keys are formed
        del rows, cols, vals
        key = (sparse.coo_rows(diff) // dim + a0) * k + diff.indices // dim
        key, inverse = np.unique(key, return_inverse=True)
        keys.append(key)
        worst.append(_group_maxima(inverse.reshape(-1), diff.data, len(key)))
    return np.concatenate(keys), np.concatenate(worst)


def check_closure(
    rep: RepresentationResult | Sequence[FockOperator],
    constants: StructureConstants,
    tol: float = DEFAULT_TOL,
    label: str = "closure",
) -> VerificationReport:
    """Residuals of [r_i, r_j] - sum_l c[i, j, l] r_l for every pair i < j.

    A standard representation is checked from its one-particle blocks C_g
    at any size: one <label>/span/NNN check per operator records
    max |r_g - rho(C_g)|, which pins every sector, and the pairs close on
    the n x n blocks (_one_body_closure).  Any other input takes one sparse
    matrix over the full 2^n space (_closure_residuals), so entries joining
    sectors count like any other.
    """
    flat = _record_of(rep)
    k = flat.shape[0]
    if constants.size != k:
        raise ValueError(
            f"representation has {k} operators but constants are for {constants.size}"
        )
    t0 = time.perf_counter()
    if isinstance(rep, RepresentationResult) and rep.meta.variant == "standard":
        return _bilinear_closure([_span(flat, rep.modes)], constants, tol, label, t0)
    return _pair_checks(k, [_closure_residuals(flat, constants.records)], tol, label, t0)


def _pair_checks(
    k: int, residuals: Iterable, tol: float, label: str, t0: float, plus: Iterable = ()
) -> VerificationReport:
    """Checks <label>/[a,b], a < b, from t0: key a * k + b's largest worst, plus plus' blocks."""
    values = np.zeros(k * (k - 1) // 2)
    for keys, worst in residuals:
        a, b = np.divmod(keys, k)
        np.maximum.at(values, a * (2 * k - a - 3) // 2 + b - 1, worst)
    for at, block in plus:
        values[at:at + len(block)] += block
    report = VerificationReport({"label": label, "tol": tol})
    report.add_batch(_PairNames(f"{label}/", k, True), values, tol)
    report.timings[label] = time.perf_counter() - t0
    return report


def _sector_closure(
    gens: liealg.GeneratorSet, sets: Iterable[liealg.GeneratorSet], block: VerificationReport,
    n: int, tol: float, label: str, t0: float,
) -> VerificationReport:
    """check_closure of rho_g = X_g + D_g on n modes, X_g holding matrix g of
    each of sets on its own sector block, with no 2^n product: each set's pair
    residuals (gens' kept in gens.constants) plus, unless every d_g = max |D_g| (the
    residuals of block) is 0, the bound w_a d_b + w_b d_a + sum_l |c[a, b, l]| d_l on
    what they add, w_a = ||X_a||_inf + ||X_a||_1 (over sets) + 2^n d_a (2^n d_a >= ||D_a||_inf)."""
    delta = np.array(block.residuals)
    k, records = len(delta), gens.constants.records
    residuals = [gens.constants.residuals if s is gens else _closure_residuals(s.flat, records)
                 for s in sets]
    w = np.max([[np.bincount(sparse.coo_rows(s.flat) * s.dim + x, np.abs(s.flat.data), k * s.dim)
                 .reshape(k, -1).max(axis=1) for x in np.divmod(s.flat.indices, s.dim)]
                for s in sets], axis=0).sum(axis=0) + delta * (1 << n)

    def bound(rows=max(1, _CLOSURE_PAIR_BYTES // (8 * k))):  # none while every d_g is 0
        for a0 in range(0, k if delta.any() else 0, rows):  # the pairs of rows a at a time
            a = np.arange(a0, min(a0 + rows, k))[:, None]
            extra, c = w[a] * delta + delta[a] * w, records(a0, a0 + len(a))  # row block a
            np.add.at(extra, (c["i"] - a0, c["j"]), np.abs(c["value"]) * delta[c["l"]])
            yield a0 * (2 * k - a0 - 1) // 2, extra[a < np.arange(k)]

    return _pair_checks(k, residuals, tol, label, t0, bound())


def _bilinear_closure(
    read: list[tuple[np.ndarray, np.ndarray]], constants: StructureConstants, tol: float,
    label: str, t0: float,
) -> VerificationReport:
    """check_closure of a standard representation from what _span read of
    its consecutive parts, timed from t0."""
    coeffs, span = map(np.concatenate, zip(*read))
    k, n = len(coeffs), math.isqrt(coeffs.shape[1])
    report = _pair_checks(k, [], tol, label, t0, [(0, _one_body_closure(coeffs, n, constants))])
    report.add_batch([f"{label}/span/{g:03d}" for g in range(1, k + 1)], span, tol)
    return report


# _one_body_closure forms the n x n blocks of the pairs (four arrays a step),
# and _sector_closure its bound's rows, this many bytes at a time (56 pairs at
# n = 12, 1.0 MiB traced; at 2^18 1.8 MiB, 20 ms less and run_suite(6)'s peak),
# and sums the diagonals of this many pairs over all occupied sets (1 MiB at n = 12)
_CLOSURE_PAIR_BYTES = 1 << 17
_DIAGONAL_PAIRS = 16
# _span takes about this many stored entries and states (dim per operator) at a time
_SPAN_ENTRIES = 1 << 15


def _span(flat: sparse.CSR, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows C_g (row-major), read exactly as the one-particle blocks of
    operators r_g (the rows of flat, keyed as RepresentationResult.flat), and
    max |r_g - rho(C_g)| with rho(C_g) = sum_ab C_g[a, b] a+_a a_b, read
    from r_g's stored entries: at (S', S) rho(C_g) holds the sum of
    C_g[a, a] over a in S (ascending, as the builder adds it) if S' = S,
    C_g[a, b] signed as a+_a a_b signs it if S' = S - b + a, else 0.  The
    places it fills and r_g lacks are counted: each C_g[a, b] != 0 (a != b)
    fills 2^(n-2), and each nonzero diagonal sum one.
    """
    dim, k = 1 << n, flat.shape[0]
    coeffs, span = np.zeros((k, n * n), dtype=np.complex128), np.zeros(k)
    # popcount[S] counts the modes in bitmask S, so popcount[(1 << a) - 1] = a
    masks, popcount = fock._masks(n), fock._particle_counts(n)[fock._state_positions(n)]
    cost = np.cumsum(np.diff(flat.indptr) + dim)
    starts = np.unique(cost // _SPAN_ENTRIES, return_index=True)[1]
    for start, stop in zip(starts, [*starts[1:], k]):
        block, part = sparse.take_rows(flat, slice(start, stop)), coeffs[start:stop]
        g, (row, col) = sparse.coo_rows(block), np.divmod(block.indices, dim)
        # the one-particle states are 1..n, state a holding mode a alone
        one = (row >= 1) & (row <= n) & (col >= 1) & (col <= n)
        part[g[one], (row[one] - 1) * n + col[one] - 1] = block.data[one]
        source, target = masks[col], masks[row]
        gained, lost = target & ~source, source & ~target
        move, same = (popcount[gained] == 1) & (popcount[lost] == 1), target == source
        sums = _subset_sums(part[:, ::n + 1])  # rho(C_g)'s diagonal, by bitmask
        expected = np.where(same, sums[g, source], 0)
        held, gained, lost = source[move], gained[move], lost[move]
        parity = popcount[held & lost - 1] + popcount[(held ^ lost) & gained - 1]
        term = popcount[gained - 1] * n + popcount[lost - 1]  # a * n + b
        value = part[g[move], term]
        expected[move] = np.where(parity & 1, -value, value)
        stored = np.bincount(g[move] * n * n + term, minlength=part.size).reshape(part.shape)
        lacking = (stored < dim >> 2) & (part != 0) & ~np.eye(n, dtype=bool).ravel()
        sums[g[same], source[same]] = 0
        worst = _group_maxima(g, block.data - expected, stop - start)[:, None]
        span[start:stop] = np.max(np.abs(np.hstack([part * lacking, sums, worst])), axis=1)
    return coeffs, span


def _one_body_closure(coeffs: np.ndarray, n: int, constants: StructureConstants) -> np.ndarray:
    """Closure residuals of bilinear operators r_g = rho(C_g) from the rows C_g of coeffs.

    By the CAR, [rho(X), rho(Y)] = rho([X, Y]), so where the span check
    passes the residual of pair (i, j) is the largest entry of rho(R)
    for the n x n R = [C_i, C_j] - sum_l c[i, j, l] C_l: the largest
    |R[a, b]| with a != b, or |sum_{a in S} R[a, a]| over occupied sets
    S.  Returns the residuals of the pairs i < j in row-major order.
    """
    k = len(coeffs)
    mats, flat = coeffs.reshape(k, n, n), sparse.from_dense(coeffs)
    first, second = np.triu_indices(k, 1)
    resid, off = np.zeros(len(first)), ~np.eye(n, dtype=bool)
    step = max(1, _CLOSURE_PAIR_BYTES // (16 * n * n))
    for p in range(0, len(first), step):
        i, j = first[p:p + step], second[p:p + step]
        comm = (mats[i] @ mats[j] - mats[j] @ mats[i]).reshape(-1, n * n)
        c = constants.records(i[0], i[-1] + 1)  # the step's pairs' records, in their order
        c = c[np.isin(c["i"] * k + c["j"], i * k + j)]
        place = np.searchsorted(i * k + j, c["i"] * k + c["j"])
        expansion = sparse.matmul(sparse.from_triplets(place, c["l"], c["value"], (len(i), k)), flat)
        remainder = (comm - sparse.toarray(expansion)).reshape(-1, n, n)
        resid[p:p + step] = np.max(np.abs(remainder[:, off]), axis=1, initial=0.0)
        diag = np.diagonal(remainder, axis1=1, axis2=2)
        live = np.flatnonzero(np.any(diag, axis=1))
        for at in np.split(live, range(_DIAGONAL_PAIRS, len(live), _DIAGONAL_PAIRS)):
            worst = np.max(np.abs(_subset_sums(diag[at])), axis=1, initial=0.0)
            resid[p + at] = np.maximum(resid[p + at], worst)
    return resid


def _group_maxima(groups: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Largest |values[t]| in each of count groups, value t being in group groups[t]."""
    worst = np.zeros(count)
    np.maximum.at(worst, groups, np.abs(values))
    return worst


def _entry_sectors(flat: sparse.CSR, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Particle counts (int8) of each stored entry's row and column in a
    record of operators on n modes, read from its key r * 2^n + c."""
    counts = fock._particle_counts(n).astype(np.int8)
    return counts[flat.indices >> n], counts[flat.indices & (1 << n) - 1]


def _operator_checks(
    resid: np.ndarray, tol: float, label: str, t0: float, tags: Sequence[str] = ()
) -> VerificationReport:
    """One check per operator residual, named by tags if there is one per
    operator, else by number, and timed from t0."""
    if len(tags) != len(resid):
        tags = [f"{a:03d}" for a in range(1, len(resid) + 1)]
    report = VerificationReport({"label": label, "tol": tol})
    report.add_batch([f"{label}/{tag}" for tag in tags], resid, tol)
    report.timings[label] = time.perf_counter() - t0
    return report


def check_eij_algebra(
    units: Sequence[FockOperator],
    k: int,
    tol: float = DEFAULT_TOL,
    label: str = "eij",
) -> VerificationReport:
    """Matrix-unit commutation identities for a k^2-element operator list.

    The list is indexed row-major: units[(i-1)*k + (j-1)] plays e_ij, and
    each quadruple must satisfy [Q_ij, Q_pq] = d_jp Q_iq - d_qi Q_pj.
    All k^4 identities are checked, as closure under
    liealg.matrix_unit_constants(k), and one result is recorded per
    (i, j): the worst residual over every (p, q).
    """
    if len(units) != k * k:
        raise ValueError(f"need {k * k} operators for k={k}, got {len(units)}")
    report = VerificationReport({"label": label, "k": k, "tol": tol})
    size = k * k
    t0 = time.perf_counter()
    # the records of each chunk's units only: all 2k^3 would be 40 bytes each
    keys, worst = _closure_residuals(
        _record_of(units), lambda a0, a1: liealg.matrix_unit_constants(k, a0, a1).c
    )
    # the kernel keeps blocks (a, b) with a < b; block (b, a) is its negative
    row_worst = np.zeros(size)
    np.maximum.at(row_worst, keys // size, worst)
    np.maximum.at(row_worst, keys % size, worst)
    report.add_batch(_PairNames(f"{label}/", k, False), row_worst, tol)
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
    is v * d[c] - d[r] * v for each stored entry v of op: the residuals
    come from the record's own entries in one pass, without a sparse
    product.
    """
    flat = _record_of(rep)
    if flat.shape[1] != 1 << 2 * n:
        raise ValueError(f"operators of {math.isqrt(flat.shape[1])} states are not on {n} modes")
    tags = rep.meta.labels if isinstance(rep, RepresentationResult) else ()
    t0 = time.perf_counter()
    rows, cols = _entry_sectors(flat, n)
    # an entry within one sector gives v * d - d * v = 0; only the others are formed
    moved = np.flatnonzero(rows != cols)
    v, ops = flat.data[moved], np.searchsorted(flat.indptr, moved, "right") - 1
    resid = _group_maxima(ops, v * cols[moved] - rows[moved] * v, flat.shape[0])
    report = _operator_checks(resid, tol, label, t0, tags)
    report.params["n"] = n
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
    n, mat, counts = op.modes, op.mat, fock._particle_counts(op.modes)
    rows, cols = sparse.coo_rows(mat), mat.indices
    sector, inside = counts[rows], counts[rows] == counts[cols]
    blocks = {}
    for m in range(n + 1):
        start, size = fock._sector_starts(n)[m], math.comb(n, m)
        blocks[m] = np.zeros((size, size), dtype=np.complex128)
        mine = inside & (sector == m)
        blocks[m][rows[mine] - start, cols[mine] - start] = mat.data[mine]
    off = np.abs(mat.data[~inside])
    return BlockDecomposition(n, blocks, float(np.max(off, initial=0.0)))


def compare_ops(
    a: RepresentationResult | Sequence[FockOperator],
    b: RepresentationResult | Sequence[FockOperator],
    tol: float = DEFAULT_TOL,
    label: str = "compare",
) -> VerificationReport:
    """Entrywise difference between two equal-length operator lists."""
    flat_a, flat_b = _record_of(a), _record_of(b)
    if flat_a.shape != flat_b.shape:
        raise ValueError(f"records differ: {flat_a.shape} vs {flat_b.shape}")
    t0 = time.perf_counter()
    diff = sparse.subtract(flat_a, flat_b)
    resid = _group_maxima(sparse.coo_rows(diff), diff.data, diff.shape[0])
    return _operator_checks(resid, tol, label, t0)


def _block_equality_checks(
    rep: RepresentationResult,
    expected_blocks: dict[int, sparse.CSR],
    must_vanish: Iterable[int],
    n: int,
    tol: float,
    label: str,
    first: int = 1,
) -> VerificationReport:
    """Sector blocks of each operator against expected matrices, the checks
    numbered from first.

    Blocks in expected_blocks (records as GeneratorSet.flat) are placed in
    one expected record, subtracted from the entries that count at once:
    those of the expected sectors and of must_vanish, which must be zero,
    and every off-block entry.  Other sectors are unconstrained.
    """
    flat = _record_of(rep)
    k, t0 = flat.shape[0], time.perf_counter()
    sector, col_sector = _entry_sectors(flat, n)
    counted = np.isin(np.arange(n + 1), [*must_vanish, *expected_blocks])
    kept = np.flatnonzero((sector != col_sector) | counted[sector])
    checked = sparse.CSR(flat.data[kept], flat.indices[kept], np.searchsorted(kept, flat.indptr), flat.shape)
    expected = schwinger._placed([(b, m) for m, b in expected_blocks.items()], n, k)
    diff = sparse.subtract(checked, expected)
    resid = _group_maxima(sparse.coo_rows(diff), diff.data, k)
    return _operator_checks(resid, tol, label, t0, [f"{a:03d}" for a in range(first, first + k)])


def _outer_product_check(
    units: RepresentationResult | Sequence[FockOperator], n: int, m: int, tol: float, label: str
) -> VerificationReport:
    """Each unit operator against the literal basis outer product."""
    report = VerificationReport({"label": label, "tol": tol})
    s, k = fock._sector_starts(n)[m], fock.sector_dimension(n, m)
    t0 = time.perf_counter()
    flat = _record_of(units)
    a = np.arange(k * k)
    i, j = np.divmod(a, k)
    expected = sparse.from_triplets(a, ((s + i) << n) + s + j, np.ones(k * k, dtype=np.int64), flat.shape)
    diff = sparse.subtract(flat, expected)
    report.add_batch([label], [np.max(np.abs(diff.data), initial=0.0)], tol)
    report.timings[label] = time.perf_counter() - t0
    return report


def representation_checks(
    rep: RepresentationResult | Iterable[RepresentationResult], gens: liealg.GeneratorSet,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Closure, check_number_commutant and _block_equality_checks of rep,
    named <family>/<variant>/nXX[mYY] after rep.meta.

    rep is one representation or its consecutive parts, each checked, then
    dropped: an operator per member of gens, closing under gens.constants.  A
    standard one's pairs close on the one-particle blocks its span checks read
    (_bilinear_closure), any other's through its sets (_sector_closure).
    A family's timing sums its measured part times.

    Expected blocks: the sets of schwinger._sector_sets, every other sector
    vanishing, except a standard one's middle sectors, left to the span checks.
    """
    constants = gens.constants  # before the parts: after them, verify --from peaked 3-7 MiB higher
    parts = iter([rep] if isinstance(rep, RepresentationResult) else rep)
    first = next(parts)
    meta, n = first.meta, first.modes
    variant, m, sets = meta.variant, meta.particles, schwinger._sector_sets(meta, gens)
    parts, first = itertools.chain(iter([first]), parts), None  # a spent iterator drops its part
    vanish = (0, n) if variant == "standard" else [s for s in range(n + 1) if s not in sets]
    tag = f"{variant}/n{n:02d}" + (f"m{m:02d}" if m is not None else "")
    numcomm, block = VerificationReport(), VerificationReport()
    read, seconds, start = [], 0.0, 0
    for part in parts:
        t0, stop = time.perf_counter(), start + len(part)
        if variant == "standard":
            read.append(_span(part.flat, n))
            seconds += time.perf_counter() - t0
        numcomm.extend(check_number_commutant(part, n, tol, label=f"numcomm/{tag}"))
        own = {s: sparse.take_rows(g.flat, slice(start, stop)) for s, g in sets.items()}
        block.extend(_block_equality_checks(part, own, vanish, n, tol, f"block/{tag}", start + 1))
        start = stop
    if len(gens) != start:
        raise ValueError(f"rep has {start} operators but gens has {len(gens)} members")
    t0, label = time.perf_counter() - seconds, f"closure/{tag}"
    closure = (_bilinear_closure(read, constants, tol, label, t0) if variant == "standard" else
               _sector_closure(gens, sets.values(), block, n, tol, label, t0))
    report = VerificationReport({"tol": tol, "variant": variant})
    for family in (closure, numcomm, block):
        report.extend(family)
    return report


# run_suite checks rep_ucnm on the sectors of dimension k = C(n, m) up to
# this k.  Without it run_suite(6) also checks k = 15, 15 and 20: 149,434
# checks instead of 18,387, 0.49-0.56 s instead of 0.12-0.21 s and 80 MiB
# of peak RSS instead of 37 MiB (2-vCPU VM, in-process, fresh processes);
# tracemalloc sees at most 18.5 MiB of those 80
_MAX_SECTOR_REP_DIM = 10


def run_suite(
    n_max: int,
    tol: float = DEFAULT_TOL,
    *,
    annihilation_source: Callable[[int, int], FockOperator] | None = None,
) -> VerificationReport:
    """Run the full identity catalogue for all mode counts up to n_max.

    Covers the anticommutation relations, the spin-1 quadratic
    reconstruction, the explicit-vs-uniform three-mode comparison and
    closure, the sector unit-operator algebra (outer products, number
    commutant and exhaustive matrix-unit identities for every sector),
    and representation_checks of the standard, nssfr and ucnm
    representations of the generalized Gell-Mann sets.  The ucnm
    catalogue runs only for sectors of dimension C(n, m) <=
    _MAX_SECTOR_REP_DIM, which bounds the suite's run time.

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
    gell_mann_set = functools.cache(liealg.generalized_gell_mann)  # with its constants, kept

    for n in range(2, n_max + 1):
        gens = gell_mann_set(n)
        report.extend(representation_checks(schwinger.standard_rep(gens, n), gens, tol))
        if n >= 3:
            report.extend(representation_checks(schwinger.nssfr_un(gens, n), gens, tol))

        if n == 3:
            gm = liealg.gell_mann()
            rebuilt = liealg.gellmann_from_spin1()
            t0 = time.perf_counter()
            worst = float(np.max(np.abs(sparse.subtract(rebuilt.flat, gm.flat).data), initial=0))
            report.add("reconstruct/spin1-quadratic", worst, tol, time.perf_counter() - t0)
            explicit, uniform = schwinger.nssfr_u3_explicit(), schwinger.nssfr_un(gm, 3)
            report.extend(compare_ops(explicit, uniform, tol, "compare/u3-explicit-vs-uniform"))
            report.extend(check_closure(explicit, gm.constants, tol, label="closure/u3-explicit"))

        for m in range(1, n):
            kdim = fock.sector_dimension(n, m)
            units = schwinger.unit_set(n, m)
            tag = f"n{n:02d}m{m:02d}"
            report.extend(_outer_product_check(units, n, m, tol, label=f"outer/{tag}"))
            report.extend(check_number_commutant(units, n, tol, label=f"numcomm/sector/{tag}"))
            report.extend(check_eij_algebra(units, kdim, tol, label=f"eij/{tag}"))
            if kdim <= _MAX_SECTOR_REP_DIM:
                sector_gens = gell_mann_set(kdim)
                rep = schwinger.rep_ucnm(sector_gens, n, m)
                report.extend(representation_checks(rep, sector_gens, tol))
    report.sort_by_name()
    return report
