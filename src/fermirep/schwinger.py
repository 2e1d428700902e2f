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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

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


@lru_cache(maxsize=None)
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


def _bilinears(n: int) -> list[FockOperator]:
    """The n^2 bilinears a+_a a_b, row-major."""
    return [_bilinear(n, a, b) for a in range(1, n + 1) for b in range(1, n + 1)]


def _combination(
    coeffs: np.ndarray, terms: Sequence[FockOperator], n: int
) -> FockOperator:
    """sum_{a,b} coeffs[a,b] terms[a*k + b] for a k x k coefficient matrix.

    Terms are added row-major, skipping zero coefficients; a coefficient
    with zero imaginary part is applied as a real scalar.
    """
    op = FockOperator.zero(n)
    for a in np.flatnonzero(coeffs):
        v = coeffs.flat[a]
        scalar = v.real if v.imag == 0 else complex(v)
        op = op + scalar * terms[a]
    return op


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
    terms = _bilinears(n)
    ops = tuple(_combination(g, terms, n) for g in mats)
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
    f_low = eval_at_number_operator(selective_function(n, 1), n)
    f_high = eval_at_number_operator(selective_function(n, n - 1), n)
    terms = _bilinears(n)
    ops = []
    for g, gc in zip(gens.mats, conj.mats):
        ops.append(
            _combination(g, terms, n) @ f_low + _combination(gc, terms, n) @ f_high
        )
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
    if not 1 <= m <= n - 1:
        raise ValueError(
            f"particle count must be in [1, {n - 1}] for unit operators, got {m}"
        )
    fock.build_basis(n)  # validates n against the capacity cap
    return list(_element_operators(n, m))


# run_suite and mixed_rep reuse a set right after building it; the small
# bound keeps large sets from living for the rest of the process
@lru_cache(maxsize=4)
def _element_operators(n: int, m: int) -> tuple[FockOperator, ...]:
    sector = sector_operators(n, m)
    pvac = fock.vacuum_projector(n)
    half = [op.dagger() @ pvac for op in sector.ops]
    return tuple(left @ op for left in half for op in sector.ops)


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
    units = element_operators(n, m)
    ops = tuple(_combination(g, units, n) for g in mats)
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

    ops: list[FockOperator] = []
    units_m = element_operators(n, m) if xi_minus else None
    units_mbar = element_operators(n, mbar) if xi_plus else None
    for g, g2 in zip(gens.mats, gens2.mats):
        op = FockOperator.zero(n)
        if units_m is not None:
            op = op + _combination(g, units_m, n)
        if units_mbar is not None:
            op = op + _combination(g2, units_mbar, n)
        ops.append(op)
    meta = RepMeta(
        variant="mixed",
        modes=n,
        particles=m,
        labels=gens.labels,
        xi=(xi_minus, xi_plus),
    )
    return RepresentationResult(tuple(ops), meta)
