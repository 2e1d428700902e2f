"""Representation builders on the fermionic occupation space.

Four families are provided:

* ``standard_rep``      -- bilinear form  G_i -> sum a+_a G_i^{ab} a_b
* ``nssfr_un``          -- number-selective (higher-order) form pairing the
                           bilinears of a traceless set and its conjugate
                           with the sector-selective polynomial factors
* ``nssfr_u3_explicit`` -- the same object for three modes, assembled
                           term by term from ladder and number operators
* ``rep_ucnm`` / ``mixed_rep`` -- representations carried by a single
                           particle-number sector (or a conjugate pair of
                           sectors) through the sector unit operators Q_ij

All builders return number-conserving operators and are pure functions of
their inputs.

Each generator of ``standard_rep``, ``nssfr_un``, ``rep_ucnm`` and
``mixed_rep`` is a linear combination of one fixed term set: the
bilinears a+_a a_b, or the sector units Q_ij.  ``_assemble`` forms a
whole set as the row blocks of one sparse product kron(C, I) @
vstack(terms), with one row of C per generator, in chunks of generators
that bound the Kronecker factor.  The product sums each entry over the
terms in ascending order, so every entry equals, to the bit, the sum of
the terms added one at a time.  The unit operators themselves come from
one product of the stacked O+_i |vac><vac| and the stacked O_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from . import fock, liealg
from .errors import DegeneracyError, ValidationError
from .fock import FockOperator, OccupationState

__all__ = [
    "SelectivePolynomial",
    "SectorOperatorSet",
    "RepMeta",
    "RepresentationResult",
    "selective_function",
    "eval_at_number_operator",
    "standard_rep",
    "nssfr_u3_explicit",
    "nssfr_un",
    "sector_operators",
    "element_operators",
    "rep_ucnm",
    "mixed_rep",
]

TRACELESS_TOL = 1e-12


@dataclass(frozen=True)
class SelectivePolynomial:
    """Degree-(n-2) polynomial equal to 1 at m and 0 at the other integers
    in [1, n-1].

    Coefficients are exact rationals, ascending powers.  Values at the
    endpoints 0 and n are generally nonzero.
    """

    modes: int
    selected: int
    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x) -> Fraction:
        """Exact value at x (int or Fraction), by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if all(c == 0 for c in self.coeffs):
            return "0"
        parts: list[str] = []
        for p in range(self.degree, -1, -1):
            c = self.coeffs[p]
            if c == 0:
                continue
            mag = abs(c)
            if p == 0:
                body = str(mag)
            else:
                var = "x" if p == 1 else f"x^{p}"
                if mag == 1:
                    body = var
                elif mag.denominator == 1:
                    body = f"{mag}{var}"
                else:
                    body = f"({mag}){var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def selective_function(n: int, m: int) -> SelectivePolynomial:
    """Sector-selective polynomial for n modes picking out count m.

    Product of the factors (x - i) / (m - i) over i in [1, n-1] with
    i != m, expanded exactly over the rationals; empty products are 1.
    """
    if n < 2:
        raise ValueError(f"mode count must be at least 2, got {n}")
    if not 1 <= m <= n - 1:
        raise ValueError(f"selected count must be in [1, {n - 1}], got {m}")
    coeffs = [Fraction(1)]
    for i in range(1, n):
        if i == m:
            continue
        den = Fraction(m - i)
        new = [Fraction(0)] * (len(coeffs) + 1)
        for p, c in enumerate(coeffs):
            new[p] += c * Fraction(-i) / den
            new[p + 1] += c / den
        coeffs = new
    return SelectivePolynomial(n, m, tuple(coeffs))


def eval_at_number_operator(p: SelectivePolynomial, n: int) -> FockOperator:
    """Diagonal operator applying p to each state's particle count."""
    if p.modes != n:
        raise ValueError(f"polynomial is for {p.modes} modes, got n={n}")
    basis = fock.build_basis(n)
    values = [float(p.evaluate(s.particle_count())) for s in basis]
    return FockOperator.diagonal(n, values)


@dataclass(frozen=True)
class RepMeta:
    """Construction descriptor attached to a representation."""

    variant: str
    modes: int
    particles: int | None = None
    labels: tuple[str, ...] = ()
    xi: tuple[int, int] | None = None


@dataclass(frozen=True, eq=False)
class RepresentationResult:
    """Ordered operators realizing a generator set on the occupation space."""

    ops: tuple[FockOperator, ...]
    meta: RepMeta

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        modes = {op.modes for op in self.ops}
        if len(modes) > 1:
            raise ValueError("operators have mixed mode counts")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[FockOperator]:
        return iter(self.ops)

    def __getitem__(self, k: int) -> FockOperator:
        return self.ops[k]


def _bilinear(n: int, alpha: int, beta: int) -> FockOperator:
    return fock.creation(n, alpha) @ fock.annihilation(n, beta)


def _as_matrices(
    gens: liealg.GeneratorSet | Sequence[np.ndarray],
) -> tuple[list[np.ndarray], tuple[str, ...], int]:
    """Coefficient matrices, labels and dimension of a generator argument.

    Plain matrix sequences are accepted as well; unlike GeneratorSet they
    may be linearly dependent (e.g. contain zero matrices).
    """
    if isinstance(gens, liealg.GeneratorSet):
        return list(gens.mats), gens.labels, gens.dim
    mats = [np.asarray(m, dtype=np.complex128) for m in gens]
    if not mats:
        raise ValueError("need at least one coefficient matrix")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("coefficient matrices must be square with equal dimension")
    labels = tuple(f"g_{k}" for k in range(1, len(mats) + 1))
    return mats, labels, dim


def _coefficient_rows(mats: Sequence[np.ndarray]) -> np.ndarray:
    """One row per matrix, its entries row-major: the term order of a stack."""
    return np.stack(mats).reshape(len(mats), -1)


@lru_cache(maxsize=None)
def _bilinear_stack(n: int) -> sp.csr_matrix:
    """The n^2 bilinears a+_a a_b, row-major, as row blocks of one matrix."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    return sp.vstack([_bilinear(n, a, b).mat for a, b in pairs], format="csr")


# _assemble forms kron(C, I_dim) for at most this many stored entries at a
# time: one generator at n = 12, a whole Gell-Mann set at n <= 6.  The
# peak RSS of build un-standard --n 12 sets export's peak; it is 70.0-70.2
# MiB at 2^13 and at 2^15, and 100 with its 1.4 M entries formed at once
# (70.4-70.6 MiB with term-by-term sums; 2-vCPU VM)
_ASSEMBLY_ENTRIES = 1 << 13


def _chunks(rows: np.ndarray, coeffs: np.ndarray, dim: int) -> list[np.ndarray]:
    """Consecutive pieces of rows, each forming at most _ASSEMBLY_ENTRIES
    entries of kron(coeffs[piece], I_dim); a row over the bound is alone."""
    ends = np.cumsum(np.count_nonzero(coeffs[rows], axis=1) * dim)
    pieces, start = [], 0
    while start < len(rows):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _ASSEMBLY_ENTRIES, "right")))
        pieces.append(rows[start:stop])
        start = stop
    return pieces


def _stacked(coeffs: np.ndarray, terms: sp.csr_matrix, dim: int) -> sp.csr_matrix:
    """Row block g is sum_t coeffs[g, t] terms[t], for the row blocks of terms.

    One sparse product kron(coeffs, I_dim) @ terms, over only the terms
    some row uses: scipy converts the values of the whole right operand
    to the result type for each product, which at n = 12 would be 2.5 MB
    per chunk.  Row g * dim + r of the Kronecker factor holds
    coeffs[g, t] at column t * dim + r for each nonzero coefficient, in
    ascending t, and scipy sums each output entry over that row in stored
    order.  So every entry is the row-major term-by-term sum, rounded the
    same way, and exact zeros are dropped.
    """
    used = np.flatnonzero(np.any(coeffs, axis=0))
    coeffs = coeffs[:, used]
    basis = np.arange(dim)
    cols = [(np.flatnonzero(row) * dim + basis[:, None]).ravel() for row in coeffs]
    vals = [np.tile(row[row != 0], dim) for row in coeffs]
    widths = np.count_nonzero(coeffs, axis=1)
    kron = sp.csr_matrix(
        (np.concatenate(vals), np.concatenate(cols),
         np.concatenate([[0], np.cumsum(np.repeat(widths, dim))])),
        shape=(len(coeffs) * dim, len(used) * dim),
    )
    product = kron @ terms[(used[:, None] * dim + basis).ravel()]
    product.sort_indices()
    return product


def _split(stack: sp.csr_matrix, n: int) -> list[FockOperator]:
    """The dim x dim row blocks of a canonical stack, one operator each.

    Each block is a view cut straight from the CSR arrays (scipy's row
    slicing costs more per block), which FockOperator copies once.
    """
    dim = 1 << n
    ptr = stack.indptr
    ops = []
    for start in range(0, stack.shape[0], dim):
        lo, hi = ptr[start], ptr[start + dim]
        block = sp.csr_matrix(
            (stack.data[lo:hi], stack.indices[lo:hi], ptr[start:start + dim + 1] - lo),
            shape=(dim, dim),
        )
        ops.append(FockOperator(n, block))
    return ops


def _assemble(coeffs: np.ndarray, terms: sp.csr_matrix, n: int) -> tuple[FockOperator, ...]:
    """The operators sum_t coeffs[g, t] terms[t], one per row of coeffs.

    terms holds the t-th term as its t-th dim x dim row block.  A row of
    zeros gives the int64 zero operator, a row of real coefficients a
    float64 operator and any other row a complex128 one: the real rows
    are formed with real coefficients, apart from the others.
    """
    dim = 1 << n
    ops = [FockOperator.zero(n)] * len(coeffs)
    real = ~np.any(coeffs.imag, axis=1)
    for part, values in (
        (real & np.any(coeffs, axis=1), coeffs.real),
        (~real, coeffs),
    ):
        for rows in _chunks(np.flatnonzero(part), values, dim):
            for g, op in zip(rows, _split(_stacked(values[rows], terms, dim), n)):
                ops[g] = op
    return tuple(ops)


def standard_rep(
    gens: liealg.GeneratorSet | Sequence[np.ndarray], n: int
) -> RepresentationResult:
    """Bilinear realization G_i -> sum_{a,b} a+_a G_i^{ab} a_b.

    Requires the generator dimension to equal the mode count.  Every
    output operator commutes with the total number operator.
    """
    mats, labels, dim = _as_matrices(gens)
    if dim != n:
        raise ValueError(f"generator dimension {dim} does not match n={n}")
    ops = _assemble(_coefficient_rows(mats), _bilinear_stack(n), n)
    meta = RepMeta(variant="standard", modes=n, labels=labels)
    return RepresentationResult(ops, meta)


def nssfr_un(gens: liealg.GeneratorSet, n: int) -> RepresentationResult:
    """Number-selective realization of a traceless generator set.

    Builds  sum a+_a G_i^{ab} a_b * f(N; 1)  +  sum a+_a G'_i^{ab} a_b *
    f(N; n-1)  with G' the conjugate set and f(N; m) the selective
    polynomial evaluated at the total number operator.  The result acts
    as G_i on both the single-particle and the single-hole sector and
    vanishes everywhere else; tracelessness is required for the vanishing
    on the fully occupied sector, so non-traceless input is rejected.
    """
    if n < 3:
        raise ValueError(f"number-selective construction needs n >= 3, got {n}")
    if gens.dim != n:
        raise ValueError(f"generator dimension {gens.dim} does not match n={n}")
    for lbl, g in zip(gens.labels, gens.mats):
        if abs(np.trace(g)) > TRACELESS_TOL:
            raise ValidationError(
                f"generator {lbl} is not traceless (trace {np.trace(g):.3e})"
            )
    conj = liealg.conjugate_rep(gens)
    f_low = eval_at_number_operator(selective_function(n, 1), n).mat
    f_high = eval_at_number_operator(selective_function(n, n - 1), n).mat
    terms = _bilinear_stack(n)
    low = _coefficient_rows(gens.mats)
    high = _coefficient_rows(conj.mats)
    dim = 1 << n
    ops: list[FockOperator] = []
    for rows in _chunks(np.arange(len(low)), np.hstack([low, high]), dim):
        stack = (
            _stacked(low[rows], terms, dim) @ f_low
            + _stacked(high[rows], terms, dim) @ f_high
        )
        ops.extend(_split(stack, n))
    meta = RepMeta(variant="nssfr", modes=n, labels=gens.labels)
    return RepresentationResult(tuple(ops), meta)


def nssfr_u3_explicit() -> RepresentationResult:
    """Three-mode number-selective operators assembled term by term.

    Uses only ladder bilinears and number operators; coincides entrywise
    with nssfr_un(gell_mann(), 3).
    """
    n = 3
    one = FockOperator.identity(n)
    num = {i: fock.number_operator(n, i) for i in (1, 2, 3)}
    bil = {(a, b): _bilinear(n, a, b) for a in (1, 2, 3) for b in (1, 2, 3)}
    s3 = math.sqrt(3.0)

    lam1 = (bil[1, 2] + bil[2, 1]) @ (one - num[3]) + (bil[2, 3] + bil[3, 2]) @ num[1]
    lam2 = (-1j * bil[1, 2] + 1j * bil[2, 1]) @ (one - num[3]) + (
        -1j * bil[2, 3] + 1j * bil[3, 2]
    ) @ num[1]
    lam3 = (
        num[1]
        - num[2]
        - 2 * (num[1] @ num[3])
        + num[1] @ num[2]
        + num[2] @ num[3]
    )
    lam4 = (bil[1, 3] + bil[3, 1]) @ (one - 2 * num[2])
    lam5 = (-1j * bil[1, 3] + 1j * bil[3, 1]) @ (one - 2 * num[2])
    lam6 = (bil[2, 3] + bil[3, 2]) @ (one - num[1]) + (bil[1, 2] + bil[2, 1]) @ num[3]
    lam7 = (-1j * bil[2, 3] + 1j * bil[3, 2]) @ (one - num[1]) + (
        -1j * bil[1, 2] + 1j * bil[2, 1]
    ) @ num[3]
    lam8 = (
        num[1]
        + num[2]
        - 2 * num[3]
        + 2 * (num[1] @ num[3])
        - num[2] @ num[3]
        - num[1] @ num[2]
    ) / s3

    ops = (lam1, lam2, lam3, lam4, lam5, lam6, lam7, lam8)
    labels = tuple(f"lambda_{a}" for a in range(1, 9))
    meta = RepMeta(variant="nssfr-u3-explicit", modes=3, labels=labels)
    return RepresentationResult(ops, meta)


@dataclass(frozen=True, eq=False)
class SectorOperatorSet:
    """Sector lowering operators O_i and their defining occupancy vectors.

    The zeta vectors of weight m are sorted descending when read as binary
    numbers with zeta_1 most significant, which for equal weight coincides
    with the ascending lexicographic order of occupied-index sets used by
    the canonical basis.  O_i is the product of the selected annihilators
    with mode indices descending, so O+_i applied to the vacuum gives the
    i-th sector basis state with amplitude +1.
    """

    modes: int
    particles: int
    ops: tuple[FockOperator, ...]
    zetas: tuple[OccupationState, ...]

    def __len__(self) -> int:
        return len(self.ops)


def sector_operators(n: int, m: int) -> SectorOperatorSet:
    """The C(n, m) sector lowering operators for particle count m."""
    fock.build_basis(n)  # validates n against the capacity cap
    if not 0 <= m <= n:
        raise ValueError(f"particle count must be in [0, {n}], got {m}")
    zetas = [
        OccupationState.from_occupied(n, occ)
        for occ in combinations(range(1, n + 1), m)
    ]
    zetas.sort(key=lambda z: z.binary_value(), reverse=True)
    ops = []
    for z in zetas:
        op = FockOperator.identity(n)
        for i in sorted(z.occupied(), reverse=True):
            op = op @ fock.annihilation(n, i)
        ops.append(op)
    return SectorOperatorSet(n, m, tuple(ops), tuple(zetas))


def element_operators(n: int, m: int) -> list[FockOperator]:
    """Sector unit operators Q_ij = O+_i |vac><vac| O_j, row-major.

    Q_ij is exactly the outer product of the i-th and j-th sector basis
    states, so the list realizes the matrix-unit commutation relations
    [Q_ij, Q_kl] = d_jk Q_il - d_li Q_kj on the C(n, m)-dimensional
    sector and vanishes on every other sector.
    """
    return _split(_units(n, m), n)


def _units(n: int, m: int) -> sp.csr_matrix:
    """The unit operators of element_operators as row blocks of one matrix."""
    if not 1 <= m <= n - 1:
        raise ValueError(
            f"particle count must be in [1, {n - 1}] for unit operators, got {m}"
        )
    fock.build_basis(n)  # validates n against the capacity cap
    return _unit_stack(n, m)


# run_suite and mixed_rep reuse a set right after building it; the small
# bound keeps large sets from living for the rest of the process
@lru_cache(maxsize=4)
def _unit_stack(n: int, m: int) -> sp.csr_matrix:
    sector = sector_operators(n, m)
    dim, k = 1 << n, len(sector)
    # block (i, j) of half @ lowering is Q_ij, with half_i = O+_i |vac><vac|
    half = sp.vstack([op.dagger().mat for op in sector.ops], format="csr")
    half = half @ fock.vacuum_projector(n).mat
    blocks = (half @ sp.hstack([op.mat for op in sector.ops], format="csr")).tocoo()
    i, r = np.divmod(blocks.row.astype(np.int64), dim)
    j, c = np.divmod(blocks.col.astype(np.int64), dim)
    return sp.csr_matrix(
        (blocks.data, ((i * k + j) * dim + r, c)), shape=(k * k * dim, dim)
    )


def rep_ucnm(
    gens: liealg.GeneratorSet | Sequence[np.ndarray], n: int, m: int
) -> RepresentationResult:
    """Realize a C(n, m)-dimensional generator set on the count-m sector.

    Each operator is sum_{a,b} G_i^{ab} Q_ab; its restriction to the
    sector block equals G_i and it vanishes on every other sector.
    """
    k = fock.sector_dimension(n, m)
    mats, labels, dim = _as_matrices(gens)
    if dim != k:
        raise ValueError(
            f"generator dimension {dim} does not match C({n},{m}) = {k}"
        )
    ops = _assemble(_coefficient_rows(mats), _units(n, m), n)
    meta = RepMeta(variant="ucnm", modes=n, particles=m, labels=labels)
    return RepresentationResult(ops, meta)


def mixed_rep(
    gens: liealg.GeneratorSet,
    gens2: liealg.GeneratorSet,
    n: int,
    m: int,
    xi_minus: int,
    xi_plus: int,
    tol: float = 1e-10,
) -> RepresentationResult:
    """Weighted pairing of two sector realizations on counts m and n - m.

    Builds  xi_minus * sum G_i^{ab} Q_ab(m)  +  xi_plus * sum G2_i^{ab}
    Q_ab(n-m).  The two generator sets must share their structure
    constants (checked within tol); closure of the sum then follows
    sector by sector.  With xi = (1, 0) this reduces to rep_ucnm(gens).

    With m = 1 and xi = (1, 1), gens2 = gens gives nssfr_un(gens, n)
    (G on both the single-particle and the single-hole sector).  The
    conjugate pairing gens2 = conjugate_rep(gens) gives
    standard_rep(gens, 3) only at n = 3; for n >= 4 the bilinear
    representation is also nonzero on the middle sectors.
    """
    if xi_minus not in (0, 1) or xi_plus not in (0, 1):
        raise ValueError("sector weights must be 0 or 1")
    if xi_minus + xi_plus == 0:
        raise ValueError("at least one sector weight must be 1")
    mbar = n - m
    if mbar == m:
        raise DegeneracyError(
            f"complementary sector coincides with m={m} for n={n}"
        )
    k = fock.sector_dimension(n, m)
    for name, gs in (("first", gens), ("second", gens2)):
        if gs.dim != k:
            raise ValueError(
                f"{name} generator dimension {gs.dim} does not match C({n},{m}) = {k}"
            )
    if len(gens) != len(gens2):
        raise ValueError("generator sets have different lengths")
    sc1 = liealg.structure_constants(gens, tol)
    sc2 = sc1 if gens2 is gens else liealg.structure_constants(gens2, tol)
    mismatch = sc1.max_difference(sc2)
    if mismatch > tol:
        raise ValidationError(
            f"structure constants of the two sets differ by {mismatch:.3e}"
        )

    # coefficient rows [G | G2] against the units of sectors m and n - m
    parts = [(gens, m)] * xi_minus + [(gens2, mbar)] * xi_plus
    coeffs = np.hstack([_coefficient_rows(gs.mats) for gs, _ in parts])
    terms = sp.vstack([_units(n, s) for _, s in parts], format="csr")
    ops = _assemble(coeffs, terms, n)
    meta = RepMeta(
        variant="mixed",
        modes=n,
        particles=m,
        labels=gens.labels,
        xi=(xi_minus, xi_plus),
    )
    return RepresentationResult(ops, meta)
