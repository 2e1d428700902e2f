"""Matrix generator sets, structure constants, and the conjugation map.

Provides the standard 3x3 Gell-Mann matrices, their d-dimensional
generalization, the spin-1 ladder triple, the quadratic construction of
the Gell-Mann set from spin-1 matrices, structure-constant extraction by
Gram projection, and the conjugation A' = U (-A^T) U^T by the signed
antidiagonal U.  A set is held as one sparse record of its entries.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import sparse
from .errors import ClosureError, DependenceError

__all__ = [
    "GeneratorSet",
    "RECORD_DTYPE",
    "StructureConstants",
    "gell_mann",
    "generalized_gell_mann",
    "spin1_matrices",
    "gellmann_from_spin1",
    "commutator_entries",
    "structure_constants",
    "matrix_unit_constants",
    "conjugation_matrix",
    "conjugate_rep",
]


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Ordered same-dimension square complex matrices with labels.

    ``flat``, the one stored form, is a read-only (k, dim^2) complex128 CSR
    record: row g holds matrix g's nonzero entries, row-major.  Indexing,
    and iteration through it, cut a fresh dim x dim array from it per call.
    ``constants`` is structure_constants(self), formed on first read and kept.
    """

    dim: int
    flat: sparse.CSR
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.flat.shape != (len(self.labels), self.dim * self.dim):
            raise ValueError(f"record {self.flat.shape} is not {len(self.labels)} x {self.dim}^2")
        self.__dict__.update(_gram_inverse=_gram_inverse(self.flat))

    @classmethod
    def create(cls, mats: Sequence[np.ndarray], labels: Sequence[str] | None = None):
        mats = np.asarray(mats, dtype=np.complex128)
        if mats.ndim != 3 or len(mats) == 0:
            raise ValueError(f"a generator set needs one or more matrices, got shape {mats.shape}")
        if labels is None:
            labels = [f"g_{k}" for k in range(1, len(mats) + 1)]
        return cls(mats.shape[1], sparse.from_dense(mats.reshape(len(mats), -1)), tuple(labels))

    def __len__(self) -> int:
        return self.flat.shape[0]

    def __getitem__(self, g: int) -> np.ndarray:
        row = sparse.take_rows(self.flat, [range(len(self))[operator.index(g)]])
        mat = np.zeros(self.dim**2, "c16")
        mat[row.indices] = row.data
        return mat.reshape(self.dim, self.dim)

    @functools.cached_property
    def constants(self) -> "StructureConstants":
        return structure_constants(self)


# one record per stored coefficient c[i, j, l] (0-based indices)
RECORD_DTYPE = np.dtype(
    [("i", np.int64), ("j", np.int64), ("l", np.int64), ("value", np.complex128)]
)


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Coefficients c[i, j, l] with [G_i, G_j] = sum_l c[i, j, l] G_l.

    Only the nonzero coefficients are stored: ``c`` is a record array of
    RECORD_DTYPE with fields i, j, l (0-based) and value, one record per
    coefficient of every ordered pair (i, j), sorted lexicographically by
    (i, j, l) (in a hand-made set, in any order, repeats adding up).
    ``residuals`` (None in a hand-made set) holds the sorted keys i * size
    + j of the pairs i < j whose residual [G_i, G_j] - sum_l c[i, j, l] G_l
    is nonzero and, aligned with them, its largest absolute entry.
    ``records(a0, a1)`` gives the records with i in [a0, a1), in c's order.
    """

    size: int
    c: np.ndarray
    residuals: tuple[np.ndarray, np.ndarray] | None = None

    @functools.cached_property
    def records(self) -> Callable[[int, int], np.ndarray]:
        c = self.c  # sorted stably by i once, if it is not
        c = c[np.argsort(c["i"], kind="stable")] if np.any(c["i"][1:] < c["i"][:-1]) else c
        bounds = np.searchsorted(c["i"], np.arange(self.size + 1))
        return lambda a0, a1: c[bounds[a0]:bounds[a1]]

    def max_difference(self, other: "StructureConstants") -> float:
        """Largest |c[i, j, l] - other's|, each set one row keyed (i * size + j) * size + l."""
        if other.size != self.size:
            raise ValueError("structure-constant tensors have different sizes")
        k = self.size
        rows = [sparse.from_triplets(0, (c["i"] * k + c["j"]) * k + c["l"], c["value"], (1, k**3))
                for c in (self.c, other.c)]
        return float(np.max(np.abs(sparse.subtract(*rows).data), initial=0.0))


def gell_mann() -> GeneratorSet:
    """The eight standard 3x3 Gell-Mann matrices, tr(l_a l_b) = 2 delta_ab."""
    return generalized_gell_mann(3, label_prefix="lambda")


def generalized_gell_mann(d: int, label_prefix: str = "g") -> GeneratorSet:
    """The d^2 - 1 traceless Hermitian generators of su(d).

    Ordering follows the standard Gell-Mann convention: for each upper
    index k = 2..d, the symmetric and antisymmetric pair members (j, k)
    for j < k, then the diagonal member supported on the first k entries.
    At d = 3 this reproduces the Gell-Mann matrices exactly; at d = 2 it
    gives the Pauli triple.  All members satisfy tr(G_a G_b) = 2 delta_ab.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    # entry (j, c), j < c (0-based), lies in the pair members number
    # c^2 - 1 + 2j and c^2 + 2j and in diagonal member (c + 1)^2 - 2
    j, c = np.triu_indices(d, 1)
    sym = c * c - 1 + 2 * j
    l = np.arange(1, d)
    scale = np.sqrt(2.0 / (l * (l + 1)))
    upper, lower, one = j * d + c, c * d + j, np.ones(len(j))
    keys = np.concatenate([sym, sym, sym + 1, sym + 1, (c + 1) ** 2 - 2, (l + 1) ** 2 - 2]) * d * d
    keys += np.concatenate([upper, lower, upper, lower, j * (d + 1), l * (d + 1)])
    # -1j filled in as is keeps its real part -0.0, as the dense set held it
    vals = np.concatenate([one, one, np.full(len(j), -1j), 1j * one, scale[c - 1], -l * scale])
    order = np.argsort(keys)
    flat = sparse._from_places(keys[order], vals[order], (d * d - 1, d * d))
    return GeneratorSet(d, flat, tuple(f"{label_prefix}_{a}" for a in range(1, d * d)))


def spin1_matrices() -> GeneratorSet:
    """The spin-1 triple {J_plus, J_minus, J_3} as 3x3 matrices."""
    s = math.sqrt(2.0)
    j_plus = np.array([[0, s, 0], [0, 0, s], [0, 0, 0]], dtype=np.complex128)
    j_minus = j_plus.conj().T
    j3 = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    return GeneratorSet.create((j_plus, j_minus, j3), ("J_plus", "J_minus", "J_3"))


def gellmann_from_spin1() -> GeneratorSet:
    """Rebuild the Gell-Mann matrices from quadratic forms in spin-1 matrices.

    Each output is a fixed bilinear or commutator combination of
    J_plus, J_minus and J_3; the result coincides entrywise with
    gell_mann().
    """
    jp, jm, j3 = spin1_matrices()
    s2 = math.sqrt(2.0)
    s3 = math.sqrt(3.0)

    def comm(a, b):
        return a @ b - b @ a

    up = j3 @ jp  # sqrt(2) e12
    dn = jm @ j3  # sqrt(2) e21
    lo = jp @ j3  # -sqrt(2) e23
    lo_t = j3 @ jm  # -sqrt(2) e32

    mats = (
        (s2 / 2) * (up + dn),
        (-1j * s2 / 2) * (up - dn),
        0.5 * comm(up, dn),
        0.5 * (jp @ jp + jm @ jm),
        (-0.5j) * (jp @ jp - jm @ jm),
        (-s2 / 2) * (lo_t + lo),
        # the (2,3) pair and the second diagonal need the products in this
        # order; the reversed order flips the sign of the antisymmetric
        # member and collapses the diagonal one onto the (1,2) diagonal
        (1j * s2 / 2) * (lo - lo_t),
        (1 / (4 * s3)) * comm(jp @ jp, jm @ jm) + (1 / (2 * s3)) * comm(lo, lo_t),
    )
    return GeneratorSet.create(mats, tuple(f"lambda_{a}" for a in range(1, 9)))


# _gram_inverse forms the Gram about this many product terms at a time: the
# 58,000 of generalized_gell_mann(56) at once peaked at 6.3 MiB traced, 2.4 in runs
_GRAM_TERMS = 1 << 14


def _gram_inverse(flat: sparse.CSR) -> sparse.CSR:
    """The inverse of the sparse Gram of a set's flattened matrices.

    Raises DependenceError if np.linalg.matrix_rank finds the Gram singular,
    but skips that dense rank when every diagonal entry exceeds its row's
    other magnitudes by more than its tolerance, sigma_max * k * eps, with
    sigma_max bounded by the largest row sum (Gershgorin's circles).  A
    diagonal Gram (a trace-orthogonal set's) is inverted entrywise, others densely.
    """
    conj = sparse.with_data(flat, flat.data.conj())
    right, k = sparse.conj_transpose(conj), flat.shape[0]
    cost = np.append(0, np.cumsum(np.diff(right.indptr)[conj.indices]))[conj.indptr[1:]]
    firsts = np.unique(cost // _GRAM_TERMS, return_index=True)[1].tolist()
    gram = sparse.vstack([sparse.matmul(sparse.take_rows(conj, slice(a0, a1)), right)
                          for a0, a1 in zip(firsts, firsts[1:] + [k])])
    rows, mag = sparse.coo_rows(gram), np.abs(gram.data)
    diag, sums = sparse.diagonal(gram), np.bincount(rows, mag, k)
    certified = np.all(2 * np.abs(diag) - sums > sums.max(initial=0.0) * k * np.finfo(float).eps)
    if not certified and np.linalg.matrix_rank(sparse.toarray(gram), hermitian=True) < k:
        raise DependenceError("generator matrices are linearly dependent")
    if np.max(mag[rows != gram.indices], initial=0.0) <= 1e-14 * np.max(np.abs(diag), initial=0.0):
        return sparse.diags(1.0 / diag)
    return sparse.from_dense(np.linalg.inv(sparse.toarray(gram)).T)


# commutator_entries forms about this many product terms at a time, one
# chunk of row blocks.  structure_constants(generalized_gell_mann(15)) then
# takes 10 chunks at a 1.3 MiB tracemalloc peak (5 at 1.9 MiB at 2^13, 6.0
# MB in one) and 1-3 ms more than at 2^13; verify --from of its ucnm (6, 2)
# build peaks at 36.0 MB RSS against 36.6 MB at 2^13 (2-vCPU VM, fresh
# processes)
_COMMUTATOR_TERMS = 1 << 12


def commutator_entries(
    flat: sparse.CSR, sign: int = -1, upper: bool = False
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """The block rows of the matrix with block (a, b) = M_a M_b + sign M_b M_a,
    a chunk of consecutive row blocks at a time.

    Row a of the (k, d^2) record flat holds the d x d matrix M_a's entries
    keyed r * d + c (GeneratorSet.flat, RepresentationResult.flat); sign -1
    gives the commutators [M_a, M_b], sign 1 the anticommutators.  For each
    chunk A = [a0, a1) yields a0, a1 and the entries (rows, cols, values;
    int64 indices) of its block rows, only those of blocks b > a (b >= a for
    sign 1) with upper.  With tall = vstack(M), read from the keys, M_a M_b
    is block (a, b) of tall[A] @ hstack(M), and M_b M_a block (b, a) of
    tall @ hstack(M_A), whose entries are moved to (a, b) times sign and
    listed after the first: entries sharing a place are not summed.  Only
    the rows of tall holding an entry are formed and multiplied.  A chunk
    forms about _COMMUTATOR_TERMS product terms, counted per block: each
    entry (r, c) of M_a meets row c of hstack(M) and every entry of tall in
    column r.
    """
    k, d = flat.shape[0], math.isqrt(flat.shape[1])
    g, (r, c) = sparse.coo_rows(flat), np.divmod(flat.indices, d)
    at = g * d + r  # each entry's row of tall
    # the rows of tall holding an entry, and tall with those rows alone
    starts = np.ones(len(at), dtype=bool)
    starts[1:] = at[1:] != at[:-1]
    held = at[starts]
    packed = sparse.CSR(flat.data, c, np.append(np.flatnonzero(starts), flat.nnz), (len(held), d))
    # hstack(M): entry (r, c) of M_a at (r, a * d + c)
    wide = sparse.from_triplets(r, g * d + c, flat.data, (d, k * d))
    terms = np.bincount(r, minlength=d)[c]
    terms += np.bincount(c, minlength=d)[r]
    cost = np.append(0, np.cumsum(terms))[flat.indptr[1:]]
    del starts, terms

    def block_rows(a0: int, a1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo, hi = np.searchsorted(held, [a0 * d, a1 * d]).tolist()
        own = slice(packed.indptr[lo], packed.indptr[hi])
        # hstack(M_A), from the entries of M_A alone
        wide_a = sparse.from_triplets(r[own], (g[own] - a0) * d + c[own], flat.data[own],
                                      (d, (a1 - a0) * d))
        ahead = sparse.matmul(sparse.take_rows(packed, slice(lo, hi)), wide)
        below = lo if upper else 0  # blocks b < a0 meet A only in pairs left out
        behind = sparse.matmul(sparse.take_rows(packed, slice(below, None)), wide_a)
        # M_b M_a at (b d + r, a d + c) goes to (a d + r, b d + c)
        there, place = held[below + sparse.coo_rows(behind)], behind.indices
        rows = np.concatenate([held[lo + sparse.coo_rows(ahead)], (place // d + a0) * d + there % d])
        cols = np.concatenate([ahead.indices, there // d * d + place % d]).astype(np.int64)
        vals = np.concatenate([ahead.data, behind.data if sign > 0 else -behind.data])
        if upper:
            keep = rows // d < cols // d + (sign > 0)
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        return rows, cols, vals

    firsts = np.unique(cost // _COMMUTATOR_TERMS, return_index=True)[1].tolist()
    for a0, a1 in zip(firsts, firsts[1:] + [k]):
        # yielded straight from the call, so this frame keeps no reference
        yield (a0, a1, *block_rows(a0, a1))


def structure_constants(gens: GeneratorSet, tol: float = 1e-10) -> StructureConstants:
    """Expansion coefficients of all commutators over the generator set.

    Solves [G_i, G_j] = sum_l c[i, j, l] G_l by projecting with the trace
    inner product through the Gram matrix, so non-orthogonal sets are
    handled too.  The commutators come from commutator_entries on the
    set's record, a chunk of rows i at a time;
    each chunk's are flattened and projected at once through the record
    and GeneratorSet's Gram inverse.  Only the nonzero coefficients are kept
    (see StructureConstants).  Raises ClosureError if any commutator has a
    component outside the span (residual >= tol), naming the first such
    i and its worst j.  The pair residuals it reduces are kept
    (StructureConstants.residuals).
    """
    k, d, flat = len(gens), gens.dim, gens.flat
    proj = sparse.matmul(sparse.conj_transpose(flat), gens._gram_inverse)
    records, found = [], []
    for a0, a1, rows, cols, vals in commutator_entries(flat):
        # row p of comm is [G_i, G_j] flattened, for the p-th pair i * k + j
        # with a nonzero commutator: a row per pair would make every index
        # pointer k^2 long
        pairs, row = np.unique(rows // d * k + cols // d, return_inverse=True)
        comm = sparse.from_triplets(row, rows % d * d + cols % d, vals, (len(pairs), d * d))
        del rows, cols, vals, row  # freed before the products, which set the peak
        coeff = sparse.matmul(comm, proj)

        diff = sparse.subtract(comm, sparse.matmul(coeff, flat))
        resid = np.zeros((a1 - a0) * k)
        np.maximum.at(resid, pairs[sparse.coo_rows(diff)] - a0 * k, np.abs(diff.data))
        resid = resid.reshape(-1, k)
        failing = np.flatnonzero(resid.max(axis=1) >= tol)
        if failing.size:
            i = int(failing[0])
            j = int(np.argmax(resid[i]))
            raise ClosureError(
                f"commutator of generators {a0 + i + 1} and {j + 1} leaves the span "
                f"(residual {resid[i, j]:.3e} >= {tol:.1e})"
            )
        at = np.flatnonzero(np.triu(resid, a0 + 1))  # the pairs i < j, keyed i * k + j
        found.append((at + a0 * k, resid.flat[at]))

        part = np.empty(coeff.nnz, dtype=RECORD_DTYPE)
        part["i"], part["j"] = np.divmod(pairs[sparse.coo_rows(coeff)], k)
        part["l"] = coeff.indices
        part["value"] = coeff.data
        records.append(part)
    return StructureConstants(k, np.concatenate(records), tuple(map(np.concatenate, zip(*found))))


def matrix_unit_constants(k: int, start: int = 0, stop: int | None = None) -> StructureConstants:
    """Structure constants of gl(k) over the k^2 matrix units e_ij.

    Unit e_ij has index i * k + j (0-based), and
    [e_ij, e_pq] = d_jp e_iq - d_qi e_pj.  The records are built per unit
    a = (i, j) and sorted within it, so no array has more than 2k entries
    per unit; only those of the units a in [start, stop) are built (all by
    default), and each unit's records are the same whatever the range.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    a = np.arange(start, k * k if stop is None else stop)[:, None]
    (i, j), x = np.divmod(a, k), np.arange(k)
    # for every x: the d_jp term b = (j, x), l = (i, x), value 1, then the
    # d_qi term b = (x, i), l = (x, j), value -1
    b = np.concatenate(np.broadcast_arrays(j * k + x, x * k + i), axis=1)
    l = np.concatenate(np.broadcast_arrays(i * k + x, x * k + j), axis=1)
    order = np.argsort(b * k * k + l, axis=1)
    b, l = np.take_along_axis(b, order, axis=1), np.take_along_axis(l, order, axis=1)
    a = np.broadcast_to(a, b.shape)
    keep = (b != a) | (i != j)  # in [e_ii, e_ii] the two terms cancel
    records = np.empty(int(keep.sum()), dtype=RECORD_DTYPE)
    records["i"], records["j"], records["l"] = a[keep], b[keep], l[keep]
    records["value"] = np.where(order < k, 1, -1)[keep]
    return StructureConstants(k * k, records)


def conjugation_matrix(n: int) -> np.ndarray:
    """Signed antidiagonal unitary with entries U[m, n+1-m] = (-1)^(m+1)."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    u = np.zeros((n, n))
    for i in range(n):
        u[i, n - 1 - i] = 1.0 if i % 2 == 0 else -1.0
    return u


def conjugate_rep(gens: GeneratorSet, n: int | None = None) -> GeneratorSet:
    """Apply A' = U (-A^T) U^T to every generator, U = conjugation_matrix(dim).

    A -> -A^T, the dual representation, is a linear Lie algebra
    automorphism, so the output satisfies the same commutation relations
    as the input for any set, Hermitian or not; applying the map twice
    returns the original set.  On a Hermitian set it equals U (-A*) U+.
    U is a signed permutation: each stored A[i, j] moves, exactly, to
    (d-1-j, d-1-i) as -(-1)^(i+j) A[i, j], its zero parts +0.0.
    """
    if n is not None and n != gens.dim:
        raise ValueError(f"dimension mismatch: generators are {gens.dim}, got n={n}")
    d, flat = gens.dim, gens.flat
    i, j = np.divmod(flat.indices, d)
    vals = np.where((i + j) % 2, flat.data, -flat.data)
    conj = sparse.from_triplets(sparse.coo_rows(flat), d * d - 1 - j * d - i, vals, flat.shape)
    return GeneratorSet(d, conj, tuple(f"{lbl}_conj" for lbl in gens.labels))
