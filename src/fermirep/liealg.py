"""Matrix generator sets, structure constants, and the conjugation map.

Provides the standard 3x3 Gell-Mann matrices, their d-dimensional
generalization, the spin-1 ladder triple, the quadratic construction of
the Gell-Mann set from spin-1 matrices, structure-constant extraction by
Gram projection, and the signed-antidiagonal conjugation
A' = U (-A*) U+.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

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
    "conjugation_matrix",
    "conjugate_rep",
]


@dataclass(frozen=True, eq=False)
class GeneratorSet:
    """Ordered list of same-dimension square complex matrices with labels."""

    dim: int
    mats: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        mats = tuple(np.array(m, dtype=np.complex128) for m in self.mats)
        for m in mats:
            if m.shape != (self.dim, self.dim):
                raise ValueError(
                    f"generator shape {m.shape} does not match dim {self.dim}"
                )
        if len(self.labels) != len(mats):
            raise ValueError("labels and matrices must have equal length")
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "labels", tuple(self.labels))
        gram = _gram(mats)
        if np.linalg.matrix_rank(gram, hermitian=True) < len(mats):
            raise DependenceError("generator matrices are linearly dependent")

    @classmethod
    def create(cls, mats: Sequence[np.ndarray], labels: Sequence[str] | None = None):
        mats = [np.asarray(m) for m in mats]
        if not mats:
            raise ValueError("a generator set needs at least one matrix")
        if labels is None:
            labels = [f"g_{k}" for k in range(1, len(mats) + 1)]
        return cls(mats[0].shape[0], tuple(mats), tuple(labels))

    def __len__(self) -> int:
        return len(self.mats)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.mats)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.mats[k]


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
    (i, j, l).  ``rows`` is the same data as a (size^2, size) CSR matrix
    whose row i * size + j holds the expansion of [G_i, G_j].
    """

    size: int
    c: np.ndarray

    @functools.cached_property
    def rows(self) -> sp.csr_matrix:
        k = self.size
        c = self.c
        return sp.csr_matrix(
            (c["value"], (c["i"] * k + c["j"], c["l"])), shape=(k * k, k)
        )

    def max_difference(self, other: "StructureConstants") -> float:
        if other.size != self.size:
            raise ValueError("structure-constant tensors have different sizes")
        diff = self.rows - other.rows
        return float(np.max(np.abs(diff.data), initial=0.0))


def _gram(mats: Sequence[np.ndarray]) -> np.ndarray:
    flat = np.stack(mats).reshape(len(mats), -1)
    return flat.conj() @ flat.T


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
    mats: list[np.ndarray] = []
    for k in range(2, d + 1):
        for j in range(1, k):
            sym = np.zeros((d, d), dtype=np.complex128)
            sym[j - 1, k - 1] = 1
            sym[k - 1, j - 1] = 1
            mats.append(sym)
            asym = np.zeros((d, d), dtype=np.complex128)
            asym[j - 1, k - 1] = -1j
            asym[k - 1, j - 1] = 1j
            mats.append(asym)
        l = k - 1
        diag = np.zeros((d, d), dtype=np.complex128)
        for r in range(l):
            diag[r, r] = 1
        diag[l, l] = -l
        mats.append(diag * math.sqrt(2.0 / (l * (l + 1))))
    labels = tuple(f"{label_prefix}_{a}" for a in range(1, d * d))
    return GeneratorSet(d, tuple(mats), labels)


def spin1_matrices() -> GeneratorSet:
    """The spin-1 triple {J_plus, J_minus, J_3} as 3x3 matrices."""
    s = math.sqrt(2.0)
    j_plus = np.array([[0, s, 0], [0, 0, s], [0, 0, 0]], dtype=np.complex128)
    j_minus = j_plus.conj().T
    j3 = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    return GeneratorSet(3, (j_plus, j_minus, j3), ("J_plus", "J_minus", "J_3"))


def gellmann_from_spin1() -> GeneratorSet:
    """Rebuild the Gell-Mann matrices from quadratic forms in spin-1 matrices.

    Each output is a fixed bilinear or commutator combination of
    J_plus, J_minus and J_3; the result coincides entrywise with
    gell_mann().
    """
    jp, jm, j3 = spin1_matrices().mats
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
    labels = tuple(f"lambda_{a}" for a in range(1, 9))
    return GeneratorSet(3, mats, labels)


def _projection(flat: sp.csr_matrix) -> sp.csr_matrix:
    """G^H Gram^-1: the coefficients of a flattened matrix x are x @ proj.

    The Gram matrix of a trace-orthogonal set (every Gell-Mann set) is
    diagonal up to rounding, and its inverse is taken entrywise; any other
    set goes through the dense inverse.
    """
    gram = (flat.conj() @ flat.T).tocsr()
    diag = gram.diagonal()
    off = gram - sp.diags(diag)
    if np.max(np.abs(off.data), initial=0.0) <= 1e-14 * np.max(np.abs(diag)):
        if np.any(diag == 0):
            raise DependenceError("Gram matrix is singular")
        return (flat.conj().T @ sp.diags(1.0 / diag)).tocsr()
    try:
        gram_inv = np.linalg.inv(gram.toarray())
    except np.linalg.LinAlgError as exc:
        raise DependenceError("Gram matrix is singular") from exc
    return sp.csr_matrix(flat.conj().T @ gram_inv.T)


def commutator_entries(
    tall: sp.spmatrix, wide: sp.spmatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (rows, cols, values) of the matrix with block (a, b) = [M_a, M_b].

    tall = vstack(M) and wide = hstack(M) for k square d x d matrices, so
    block (a, b) of tall @ wide is M_a M_b.  Each of its entries is
    returned in place and, negated, at the same place of block (b, a).
    Entries sharing a place are not summed; rows and cols are int64.
    """
    d = tall.shape[1]
    entries = (tall @ wide).tocoo()
    rows = entries.row.astype(np.int64)
    cols = entries.col.astype(np.int64)
    # (b - a) * d moves an entry of block (a, b) to the same place of (b, a)
    shift = (cols // d - rows // d) * d
    return (
        np.concatenate([rows, rows + shift]),
        np.concatenate([cols, cols - shift]),
        np.concatenate([entries.data, -entries.data]),
    )


def structure_constants(gens: GeneratorSet, tol: float = 1e-10) -> StructureConstants:
    """Expansion coefficients of all commutators over the generator set.

    Solves [G_i, G_j] = sum_l c[i, j, l] G_l by projecting with the trace
    inner product through the Gram matrix, so non-orthogonal sets are
    handled too.  The k^2 commutators come from commutator_entries,
    flattened to rows, and are projected at once.  Only the nonzero
    coefficients are kept (see StructureConstants).  Raises ClosureError
    if any commutator has a component outside the span (residual >= tol)
    and DependenceError if the Gram matrix is singular.
    """
    k, d = len(gens), gens.dim
    stack = np.stack(gens.mats)
    flat = sp.csr_matrix(stack.reshape(k, d * d))
    proj = _projection(flat)

    rows, cols, vals = commutator_entries(
        sp.csr_matrix(stack.reshape(k * d, d)),
        sp.csr_matrix(stack.transpose(1, 0, 2).reshape(d, k * d)),
    )
    # row i * k + j of comm is [G_i, G_j] flattened
    comm = sp.csr_matrix(
        (vals, (rows // d * k + cols // d, rows % d * d + cols % d)),
        shape=(k * k, d * d),
    )
    comm.eliminate_zeros()
    coeff = (comm @ proj).tocsr()
    coeff.eliminate_zeros()

    resid = abs(comm - coeff @ flat).max(axis=1).toarray().reshape(k, k)
    failing = np.flatnonzero(resid.max(axis=1) >= tol)
    if failing.size:
        i = int(failing[0])
        j = int(np.argmax(resid[i]))
        raise ClosureError(
            f"commutator of generators {i + 1} and {j + 1} leaves the span "
            f"(residual {resid[i, j]:.3e} >= {tol:.1e})"
        )

    coeff.sort_indices()
    entries = coeff.tocoo()
    records = np.empty(coeff.nnz, dtype=RECORD_DTYPE)
    records["i"], records["j"] = np.divmod(entries.row, k)
    records["l"] = entries.col
    records["value"] = entries.data
    return StructureConstants(k, records)


def conjugation_matrix(n: int) -> np.ndarray:
    """Signed antidiagonal unitary with entries U[m, n+1-m] = (-1)^(m+1)."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    u = np.zeros((n, n))
    for i in range(n):
        u[i, n - 1 - i] = 1.0 if i % 2 == 0 else -1.0
    return u


def conjugate_rep(gens: GeneratorSet, n: int | None = None) -> GeneratorSet:
    """Apply A' = U (-A*) U+ to every generator.

    The output satisfies the same commutation relations as the input;
    applying the map twice returns the original set.
    """
    if n is not None and n != gens.dim:
        raise ValueError(f"dimension mismatch: generators are {gens.dim}, got n={n}")
    u = conjugation_matrix(gens.dim)
    mats = tuple(u @ (-m.conj()) @ u.T for m in gens.mats)
    labels = tuple(f"{lbl}_conj" for lbl in gens.labels)
    return GeneratorSet(gens.dim, mats, labels)
