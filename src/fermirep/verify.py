"""Property-check engine: algebraic identities as pass/fail checks.

Every check computes a residual as the largest absolute entry of a
difference (Chebyshev norm) and passes when the residual is within the
tolerance.  Checks are pure and deterministic; the suite runner merges
its results ordered by check name.
"""

from __future__ import annotations

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
    keys, worst = _closure_residuals(_stack_of(ops), _records_of(StructureConstants(k, rec)), 1)
    resid = np.zeros(k * k)
    resid[keys] = worst
    i, j = np.divmod(np.arange(n * n), n)
    # the kernel fills blocks (a, b) with a <= b only, and {x, y} = {y, x}
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    values = np.stack([resid[lo * k + hi], resid[(n + lo) * k + n + hi], resid[i * k + n + j]], 1)
    report.add_batch(_PairNames(f"{name}/", n, False, ("aa", "cc", "ac")), values.ravel(), tol)
    report.timings[name] = time.perf_counter() - t0
    return report


def _stack_of(ops: RepresentationResult | Sequence[FockOperator]) -> sparse.CSR:
    """Operator a as row block a: a representation's own stack, or a list stacked once."""
    if isinstance(ops, RepresentationResult):
        return ops.stack
    return sparse.vstack([op.mat for op in ops])


def _records_of(constants: StructureConstants) -> Callable[[int, int], np.ndarray]:
    """records(a0, a1) for _closure_residuals: the records of constants with
    i in [a0, a1), in their order in c, found by searchsorted on c["i"]."""
    c = constants.c
    if np.any(c["i"][1:] < c["i"][:-1]):  # a hand-made set need not be sorted
        c = c[np.argsort(c["i"], kind="stable")]
    bounds = np.searchsorted(c["i"], np.arange(constants.size + 1))
    return lambda a0, a1: c[bounds[a0]:bounds[a1]]


def _closure_residuals(
    tall: sparse.CSR, records: Callable[[int, int], np.ndarray], sign: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """Block maxima of [r_a, r_b] - sum_l c[a, b, l] r_l over all pairs a < b.

    The r_a are the row blocks of tall, and records(a0, a1) gives the
    coefficient records (a, b, l, v) with a in [a0, a1), in the order of
    StructureConstants.c.  For each chunk of row blocks a of
    liealg.commutator_entries, one sparse matrix over the full 2^n space
    sums block (a, b)'s commutator entries and, for each record with
    a < b, -v times every stored entry of r_l.  With sign 1 the
    anticommutator {r_a, r_b} takes the commutator's place, and the pairs
    a = b are included.  Returns the sorted keys a * k + b of the blocks
    holding a nonzero entry and, aligned with them, each block's largest
    absolute entry.
    """
    dim = tall.shape[1]
    k = tall.shape[0] // dim
    first, local = tall.indptr[::dim], sparse.coo_rows(tall) % dim
    sizes = np.diff(first)
    keys, worst = [], []
    for a0, a1, rows, cols, vals in liealg.commutator_entries(tall, sign, upper=True):
        # record c[t] is repeated once for each stored entry pos of its r_l,
        # which are tall's entries first[l] to first[l + 1] - 1
        c = records(a0, a1)
        c = c[c["i"] < c["j"] + (sign > 0)]
        per = sizes[c["l"]]
        which = np.repeat(np.arange(len(c)), per)
        pos = np.arange(len(which)) + np.repeat(first[c["l"]] - np.cumsum(per) + per, per)
        rows = np.concatenate([rows, c["i"][which] * dim + local[pos]])
        cols = np.concatenate([cols, c["j"][which] * dim + tall.indices[pos]])
        vals = np.concatenate([vals, -c["value"][which] * tall.data[pos]])
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
    stack = _stack_of(rep)
    k = stack.shape[0] // stack.shape[1]
    if constants.size != k:
        raise ValueError(
            f"representation has {k} operators but constants are for {constants.size}"
        )
    t0 = time.perf_counter()
    if isinstance(rep, RepresentationResult) and rep.meta.variant == "standard":
        return _bilinear_closure([_span(stack, rep.modes)], constants, tol, label, t0)
    return _pair_checks(k, [_closure_residuals(stack, _records_of(constants))], tol, label, t0)


def _pair_checks(
    k: int, residuals: Iterable, tol: float, label: str, t0: float, plus: np.ndarray | float = 0.0
) -> VerificationReport:
    """One <label>/[a,b] check per pair a < b, timed from t0: the largest
    worst of key a * k + b in the (keys, worst) sets given, plus plus."""
    values = np.zeros(k * (k - 1) // 2)
    for keys, worst in residuals:
        a, b = np.divmod(keys, k)
        np.maximum.at(values, a * (2 * k - a - 3) // 2 + b - 1, worst)
    values += plus
    report = VerificationReport({"label": label, "tol": tol})
    report.add_batch(_PairNames(f"{label}/", k, True), values, tol)
    report.timings[label] = time.perf_counter() - t0
    return report


def _sector_closure(
    gens: liealg.GeneratorSet, sets: Iterable[liealg.GeneratorSet], constants: StructureConstants,
    block: VerificationReport, n: int, tol: float, label: str, t0: float,
) -> VerificationReport:
    """check_closure of rho_g = X_g + D_g on n modes, X_g holding matrix g of
    each of sets on its own sector block, with no 2^n product: each set's
    pair residuals (gens' kept in constants), plus, unless every d_g =
    max |D_g| (the residuals of block) is 0, a bound on what the D_g add."""
    delta = np.array(block.residuals)
    k = len(delta)
    residuals = [
        constants.residuals if s is gens and constants.residuals is not None else
        _closure_residuals(sparse.from_dense(s.mats.reshape(-1, s.dim)), _records_of(constants))
        for s in sets
    ]
    if not delta.any():
        return _pair_checks(k, residuals, tol, label, t0)
    # w_a = ||X_a||_inf + ||X_a||_1 (over the sets) + 2^n d_a, 2^n d_a bounding
    # ||D_a||_inf; pair (a, b) adds w_a d_b + w_b d_a + sum_l |c[a, b, l]| d_l
    norms = np.max([[np.abs(s.mats).sum(axis=x).max(axis=1) for x in (2, 1)] for s in sets], axis=0)
    bound = np.outer(norms.sum(axis=0) + delta * (1 << n), delta)
    bound += bound.T
    c = constants.c
    np.add.at(bound, (c["i"], c["j"]), np.abs(c["value"]) * delta[c["l"]])
    return _pair_checks(k, residuals, tol, label, t0, bound[np.triu_indices(k, 1)])


def _bilinear_closure(
    read: list[tuple[np.ndarray, np.ndarray]], constants: StructureConstants, tol: float,
    label: str, t0: float,
) -> VerificationReport:
    """check_closure of a standard representation from what _span read of
    its consecutive parts, timed from t0."""
    coeffs, span = map(np.concatenate, zip(*read))
    k, n = len(coeffs), math.isqrt(coeffs.shape[1])
    report = _pair_checks(k, [], tol, label, t0, _one_body_closure(coeffs, n, constants))
    report.add_batch([f"{label}/span/{g:03d}" for g in range(1, k + 1)], span, tol)
    return report


# _one_body_closure forms the n x n blocks of the pairs this many bytes of
# them at a time (113 pairs at n = 12, traced peak 1.9 MiB), and sums the
# diagonals of this many pairs over every occupied set at a time (4096 x
# 16 complex entries, 1 MiB, at n = 12)
_CLOSURE_PAIR_BYTES = 1 << 18
_DIAGONAL_PAIRS = 16
# _span takes about this many stored entries and states (dim per operator) at a time
_SPAN_ENTRIES = 1 << 15


def _span(stack: sparse.CSR, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows C_g (row-major), read exactly as the one-particle blocks of
    operators r_g, and max |r_g - rho(C_g)| with rho(C_g) = sum_ab C_g[a, b]
    a+_a a_b, read from r_g's stored entries: at (S', S) rho(C_g) holds the
    sum of C_g[a, a] over a in S (ascending, as the builder adds it) if S'
    = S, C_g[a, b] signed as a+_a a_b signs it if S' = S - b + a, else 0.
    The places it fills and r_g lacks are counted: each C_g[a, b] != 0
    (a != b) fills 2^(n-2), and each nonzero diagonal sum one.
    """
    dim, k = 1 << n, stack.shape[0] >> n
    one = sparse.take_rows(stack, (np.arange(k)[:, None] * dim + np.arange(1, n + 1)).ravel())
    rows, cols = sparse.coo_rows(one), one.indices
    inside = (cols >= 1) & (cols <= n)
    coeffs = np.zeros((k * n, n), dtype=np.complex128)
    coeffs[rows[inside], cols[inside] - 1] = one.data[inside]
    coeffs, span = coeffs.reshape(k, n * n), np.zeros(k)
    # popcount[S] counts the modes in bitmask S, so popcount[(1 << a) - 1] = a
    masks, popcount = fock._masks(n), fock._particle_counts(n)[fock._state_positions(n)]
    cost = np.cumsum(np.diff(stack.indptr[::dim]) + dim)
    starts = np.unique(cost // _SPAN_ENTRIES, return_index=True)[1]
    for start, stop in zip(starts, [*starts[1:], k]):
        block, part = sparse.take_rows(stack, slice(start * dim, stop * dim)), coeffs[start:stop]
        local = sparse.coo_rows(block)
        g, source, target = local >> n, masks[block.indices], masks[local & dim - 1]
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
    mats, rows, flat = coeffs.reshape(k, n, n), constants.rows, sparse.from_dense(coeffs)
    first, second = np.triu_indices(k, 1)
    resid, off = np.zeros(len(first)), ~np.eye(n, dtype=bool)
    step = max(1, _CLOSURE_PAIR_BYTES // (16 * n * n))
    for p in range(0, len(first), step):
        i, j = first[p:p + step], second[p:p + step]
        comm = (mats[i] @ mats[j] - mats[j] @ mats[i]).reshape(-1, n * n)
        expansion = sparse.matmul(sparse.take_rows(rows, i * k + j), flat)
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


def _entry_sectors(stack: sparse.CSR, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Particle counts (int8) of each stored entry's row and column in a stack
    of operators on n modes, the rows' read from the row pointer at the first
    row of each sector of each operator: no row index per entry is formed."""
    dim, k = 1 << n, stack.shape[0] >> n
    firsts = np.arange(k)[:, None] * dim + [fock._sector_start(n, m) for m in range(n + 1)]
    sizes = np.diff(stack.indptr[np.append(firsts, k * dim)])
    rows = np.repeat(np.tile(np.arange(n + 1, dtype=np.int8), k), sizes)
    return rows, fock._particle_counts(n).astype(np.int8)[stack.indices]


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
        _stack_of(units), lambda a0, a1: liealg.matrix_unit_constants(k, a0, a1).c
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
    come from the stacked operators' own entries in one pass, without a
    sparse product.
    """
    stack = _stack_of(rep)
    dim = 1 << n
    if stack.shape[1] != dim:
        raise ValueError(f"operators of {stack.shape[1]} states are not on {n} modes")
    tags = rep.meta.labels if isinstance(rep, RepresentationResult) else ()
    t0 = time.perf_counter()
    rows, cols = _entry_sectors(stack, n)
    # an entry within one sector gives v * d - d * v = 0; only the others are formed
    moved = np.flatnonzero(rows != cols)
    v, ops = stack.data[moved], np.searchsorted(stack.indptr[::dim], moved, "right") - 1
    resid = _group_maxima(ops, v * cols[moved] - rows[moved] * v, stack.shape[0] >> n)
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
    n, mat = op.modes, op.mat
    sector, col_sector = _entry_sectors(mat, n)
    rows, cols, inside = sparse.coo_rows(mat), mat.indices, sector == col_sector
    blocks = {}
    for m in range(n + 1):
        start, size = fock._sector_start(n, m), math.comb(n, m)
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
    stack_a, stack_b = _stack_of(a), _stack_of(b)
    if stack_a.shape != stack_b.shape:
        raise ValueError(f"stacks differ: {stack_a.shape} vs {stack_b.shape}")
    t0 = time.perf_counter()
    diff, dim = sparse.subtract(stack_a, stack_b), stack_a.shape[1]
    resid = _group_maxima(sparse.coo_rows(diff) // dim, diff.data, diff.shape[0] // dim)
    return _operator_checks(resid, tol, label, t0)


def _block_equality_checks(
    rep: RepresentationResult,
    expected_blocks: dict[int, Sequence[np.ndarray]],
    must_vanish: Iterable[int],
    n: int,
    tol: float,
    label: str,
    first: int = 1,
) -> VerificationReport:
    """Sector blocks of each operator against expected matrices, the checks
    numbered from first.

    Blocks listed in expected_blocks are compared entrywise, sectors in
    must_vanish must be zero, other sectors are unconstrained; off-block
    entries count against every operator.  Each expected sector is
    compared on the operators' rows in it, taken as one sparse matrix.
    """
    stack = _stack_of(rep)
    dim, k = 1 << n, stack.shape[0] >> n
    t0 = time.perf_counter()
    sector, col_sector = _entry_sectors(stack, n)
    vanishing = np.isin(np.arange(n + 1), list(must_vanish))
    plain = np.flatnonzero((sector != col_sector) | vanishing[sector])
    ops = np.searchsorted(stack.indptr[::dim], plain, "right") - 1
    resid = _group_maxima(ops, stack.data[plain], k)
    for m, mats in expected_blocks.items():
        start, d, expected = fock._sector_start(n, m), math.comb(n, m), np.asarray(mats)
        rows = np.arange(k)[:, None] * dim + start + np.arange(d)
        taken = sparse.take_rows(stack, rows.ravel())
        g, i, j = np.nonzero(expected)
        expected = sparse.from_triplets(g * d + i, start + j, expected[g, i, j], taken.shape)
        diff = sparse.subtract(taken, expected)
        np.maximum(resid, _group_maxima(sparse.coo_rows(diff) // d, diff.data, k), out=resid)
    return _operator_checks(resid, tol, label, t0, [f"{a:03d}" for a in range(first, first + k)])


def _outer_product_check(
    units: RepresentationResult | Sequence[FockOperator], n: int, m: int, tol: float, label: str
) -> VerificationReport:
    """Each unit operator against the literal basis outer product."""
    report = VerificationReport({"label": label, "tol": tol})
    s, k = fock._sector_start(n, m), fock.sector_dimension(n, m)
    t0 = time.perf_counter()
    stack = _stack_of(units)
    a = np.arange(k * k)
    i, j = np.divmod(a, k)
    expected = sparse.from_triplets(
        a * (1 << n) + s + i, s + j, np.ones(k * k, dtype=np.int64), stack.shape
    )
    diff = sparse.subtract(stack, expected)
    report.add_batch([label], [np.max(np.abs(diff.data), initial=0.0)], tol)
    report.timings[label] = time.perf_counter() - t0
    return report


def representation_checks(
    rep: RepresentationResult | Iterable[RepresentationResult], gens: liealg.GeneratorSet,
    constants: StructureConstants, tol: float = DEFAULT_TOL,
    second: liealg.GeneratorSet | None = None,
) -> VerificationReport:
    """Closure, check_number_commutant and _block_equality_checks of rep,
    named <family>/<variant>/nXX[mYY] after rep.meta.

    rep is one representation or its consecutive parts, each checked, then
    dropped; constants are structure_constants(gens).  A standard one's
    pairs close on the one-particle blocks its span checks read
    (_bilinear_closure), any other's through its sets (_sector_closure).
    A family's timing sums its measured part times.

    Expected blocks, every other sector vanishing: standard, G on sector 1
    and conjugate_rep(G) on n - 1, its middle sectors left to the span
    checks; nssfr, G on 1 and n - 1; ucnm, G on m; mixed, G on m and
    second (the set build paired with G) on n - m, each unless its xi is 0.
    """
    parts = iter([rep] if isinstance(rep, RepresentationResult) else rep)
    first = next(parts)
    meta, n = first.meta, first.modes
    variant, m = meta.variant, meta.particles
    if variant == "standard":
        # at n = 2 sector n - 1 is sector 1
        sets = {1: gens, n - 1: liealg.conjugate_rep(gens) if n > 2 else gens}
    elif variant == "nssfr":
        sets = {1: gens, n - 1: gens}
    elif variant == "ucnm":
        sets = {m: gens}
    elif variant == "mixed":
        sets = {s: g for s, g, xi in ((m, gens, meta.xi[0]), (n - m, second, meta.xi[1])) if xi}
    else:
        raise ValueError(f"no check catalogue for variant {variant!r}")
    parts, first = itertools.chain(iter([first]), parts), None  # a spent iterator drops its part
    vanish = (0, n) if variant == "standard" else [s for s in range(n + 1) if s not in sets]
    tag = f"{variant}/n{n:02d}" + (f"m{m:02d}" if m is not None else "")
    numcomm, block = VerificationReport(), VerificationReport()
    read, seconds, start = [], 0.0, 0
    for part in parts:
        t0, stop = time.perf_counter(), start + len(part)
        if variant == "standard":
            read.append(_span(part.stack, n))
            seconds += time.perf_counter() - t0
        numcomm.extend(check_number_commutant(part, n, tol, label=f"numcomm/{tag}"))
        own = {s: g.mats[start:stop] for s, g in sets.items()}
        block.extend(_block_equality_checks(part, own, vanish, n, tol, f"block/{tag}", start + 1))
        start = stop
    if constants.size != start:
        raise ValueError(f"rep has {start} operators but constants are for {constants.size}")
    t0, label = time.perf_counter() - seconds, f"closure/{tag}"
    closure = (_bilinear_closure(read, constants, tol, label, t0) if variant == "standard" else
               _sector_closure(gens, sets.values(), constants, block, n, tol, label, t0))
    report = VerificationReport({"tol": tol, "variant": variant})
    for family in (closure, numcomm, block):
        report.extend(family)
    return report


# run_suite checks rep_ucnm on the sectors of dimension k = C(n, m) up to
# this k.  Without it run_suite(6) also checks k = 15, 15 and 20: 149,434
# checks instead of 18,387, 0.38-0.42 s instead of 0.12-0.26 s and 68 MiB
# of peak RSS instead of 38 MiB on a 2-vCPU VM
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
    # each generalized Gell-Mann set and its constants, built once per dimension
    sets: dict[int, tuple[liealg.GeneratorSet, StructureConstants]] = {}

    def gell_mann_set(d: int) -> tuple[liealg.GeneratorSet, StructureConstants]:
        if d not in sets:
            gens = liealg.generalized_gell_mann(d)
            sets[d] = gens, liealg.structure_constants(gens)
        return sets[d]

    for n in range(2, n_max + 1):
        gens, sc = gell_mann_set(n)
        report.extend(representation_checks(schwinger.standard_rep(gens, n), gens, sc, tol))
        if n >= 3:
            report.extend(representation_checks(schwinger.nssfr_un(gens, n), gens, sc, tol))

        if n == 3:
            gm = liealg.gell_mann()
            rebuilt = liealg.gellmann_from_spin1()
            t0 = time.perf_counter()
            worst = float(np.max(np.abs(rebuilt.mats - gm.mats)))
            report.add("reconstruct/spin1-quadratic", worst, tol, time.perf_counter() - t0)
            explicit, gm_sc = schwinger.nssfr_u3_explicit(), liealg.structure_constants(gm)
            uniform = schwinger.nssfr_un(gm, 3)
            report.extend(compare_ops(explicit, uniform, tol, "compare/u3-explicit-vs-uniform"))
            report.extend(check_closure(explicit, gm_sc, tol, label="closure/u3-explicit"))

        for m in range(1, n):
            kdim = fock.sector_dimension(n, m)
            units = schwinger.unit_set(n, m)
            tag = f"n{n:02d}m{m:02d}"
            report.extend(_outer_product_check(units, n, m, tol, label=f"outer/{tag}"))
            report.extend(check_number_commutant(units, n, tol, label=f"numcomm/sector/{tag}"))
            report.extend(check_eij_algebra(units, kdim, tol, label=f"eij/{tag}"))
            if kdim <= _MAX_SECTOR_REP_DIM:
                sector_gens, sector_sc = gell_mann_set(kdim)
                rep = schwinger.rep_ucnm(sector_gens, n, m)
                report.extend(representation_checks(rep, sector_gens, sector_sc, tol))
    report.sort_by_name()
    return report
