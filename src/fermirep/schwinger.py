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
bilinears a+_a a_b, or the sector units Q_ij.  Every entry of such a
combination is known in closed form, so the builders write the entries
straight from the coefficient rows, with no term ever formed: a sector
unit's coefficient at its place in the sector (``_sector_rep``); a
bilinear's off-diagonal coefficient, signed, at each of its 2^(n-2)
moves, and on the diagonal the sum of the held modes' coefficients
(``_bilinears``).  Each entry equals, to the bit, the sum of the terms
added one at a time in ascending order from zero, so no zero part is
negative.  ``standard_rep``, the one family whose operators fill every
sector, is formed in parts, runs of consecutive generators that bound
the entries formed at once, joined into one record; ``standard_parts``
hands them out as they are formed.  Which representations can be built
is one rule, ``set_sectors``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import fock, liealg, sparse
from .errors import DegeneracyError, ValidationError
from .fock import FockOperator

__all__ = [
    "PAIRINGS",
    "SelectivePolynomial",
    "SectorOperatorSet",
    "RepMeta",
    "set_dim",
    "set_sectors",
    "RepresentationResult",
    "selective_function",
    "eval_at_number_operator",
    "standard_rep",
    "standard_parts",
    "nssfr_u3_explicit",
    "nssfr_un",
    "sector_operators",
    "element_operators",
    "unit_set",
    "rep_ucnm",
    "mixed_rep",
]

TRACELESS_TOL = 1e-12

# the set a mixed representation puts on sector n - m: the conjugate set, or
# the set itself (which rebuilds the number-selective representation at m = 1)
PAIRINGS = ("conjugate", "same")


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
    """Diagonal operator applying p to each state's particle count.

    p is evaluated exactly once per count m = 0..n, and each value fills
    the C(n, m) states of sector m.
    """
    if p.modes != n:
        raise ValueError(f"polynomial is for {p.modes} modes, got n={n}")
    fock._require_modes(n)
    values = [float(p.evaluate(m)) for m in range(n + 1)]
    return FockOperator.diagonal(n, [values[c] for c in fock._particle_counts(n).tolist()])


@dataclass(frozen=True)
class RepMeta:
    """Construction descriptor attached to a representation.

    particles is the sector m of ucnm and mixed, xi a mixed representation's
    sector weights and pairing the set it puts on sector n - m, one of
    PAIRINGS: "conjugate" for conjugate_rep(G), "same" for G.  Each is None
    on a variant that does not take it; set_sectors holds the rules."""

    variant: str
    modes: int
    particles: int | None = None
    labels: tuple[str, ...] = ()
    xi: tuple[int, int] | None = None
    pairing: str | None = None


def set_dim(meta: RepMeta) -> int:
    """The dimension of the set a meta representation carries, raising
    ValueError unless build writes meta: standard takes an n x n set and
    nssfr one for n >= 3; ucnm and mixed take sector m in [1, n - 1] and a
    C(n, m) one, mixed with xi (1, 0), (0, 1) or (1, 1), a pairing in
    PAIRINGS and m != n - m (DegeneracyError).  A field the variant does
    not take must be None."""
    variant, n, m = meta.variant, meta.modes, meta.particles
    if variant not in ("standard", "nssfr", "ucnm", "mixed"):
        raise ValueError(f"variant {variant!r} is not one that build writes")
    fock._require_modes(n)
    stray = [("particles", m)] * (variant in ("standard", "nssfr"))
    stray += [("xi", meta.xi), ("pairing", meta.pairing)] * (variant != "mixed")
    for field, value in stray:
        if value is not None:
            raise ValueError(f"{variant} takes no {field}, got {value!r}")
    if variant == "nssfr" and n < 3:
        raise ValueError(f"number-selective construction needs n >= 3, got {n}")
    if variant in ("standard", "nssfr"):
        return n
    if m is None or not 1 <= m <= n - 1:
        raise ValueError(f"{variant} takes particles m in [1, {n - 1}], got {m!r}")
    if variant == "mixed" and (meta.xi not in ((1, 0), (0, 1), (1, 1)) or meta.pairing not in PAIRINGS):
        xi = None if meta.xi is None else list(meta.xi)  # as a manifest spells it
        raise ValueError(f"mixed takes xi (1, 0), (0, 1) or (1, 1) and a pairing in {PAIRINGS}, "
                         f"got {xi!r} and {meta.pairing!r}")
    if variant == "mixed" and 2 * m == n:
        raise DegeneracyError(f"complementary sector coincides with m={m} for n={n}")
    return math.comb(n, m)


def set_sectors(meta: RepMeta, dim: int) -> dict[int, bool]:
    """The sectors a meta representation of a dim x dim set G acts on, each
    mapped to whether it carries conjugate_rep(G) instead of G: standard, G
    on 1 and the conjugate on n - 1; nssfr, G on both; ucnm, G on m; mixed,
    G on m and the set its pairing names on n - m, each unless its xi is 0.
    ValueError unless build writes meta for such a set (set_dim)."""
    n, m, need = meta.modes, meta.particles, set_dim(meta)
    if dim != need:
        fits = (f"is {dim} x {dim}, not sector {m} of {n} modes" if m else
                f"acts on {dim} modes, not {n}")
        raise ValueError(f"{meta.variant}: the set {fits}")
    if meta.variant == "standard":
        return {1: False, n - 1: n > 2}  # at n = 2 sector n - 1 is sector 1
    if meta.variant == "nssfr":
        return {1: False, n - 1: False}
    if meta.variant == "ucnm":
        return {m: False}
    sides = ((m, False, meta.xi[0]), (n - m, meta.pairing == "conjugate", meta.xi[1]))
    return {s: conjugated for s, conjugated, xi in sides if xi}


@dataclass(frozen=True, eq=False)
class RepresentationResult:
    """Ordered operators realizing a generator set on the occupation space.

    ``flat``, the one stored form, is a canonical (k, 4^n) CSR record: row
    g holds operator g's entries keyed r * 2^n + c, as GeneratorSet.flat
    holds matrix g's with its dimension in place of 2^n.  Every operator
    takes the record's value type: complex128 for the built
    representations, int64 for unit_set.  Indexing, and iteration through
    it, cut a fresh FockOperator from its row on each call.
    """

    flat: sparse.CSR
    meta: RepMeta

    def __post_init__(self) -> None:
        if self.flat.shape[1] != 1 << 2 * self.modes:
            raise ValueError(f"record {self.flat.shape} is not of operators on {self.modes} modes")

    @classmethod
    def from_ops(cls, ops: Sequence[FockOperator], meta: RepMeta) -> "RepresentationResult":
        """The operators as rows of one complex128 record, in order."""
        parts = (cls(sparse.reshape(op.mat, (1, op.dim**2)), replace(meta, labels=meta.labels[g:g + 1]))
                 for g, op in enumerate(ops))
        return _joined(parts, meta, len(ops))

    @property
    def modes(self) -> int:
        return self.meta.modes

    @property
    def ops(self) -> tuple[FockOperator, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return self.flat.shape[0]

    def __getitem__(self, g: int) -> FockOperator:
        g, dim = range(len(self))[operator.index(g)], 1 << self.modes
        row = sparse.take_rows(self.flat, slice(g, g + 1))
        values = row.data.copy()  # the operator's own, not views of the record
        return FockOperator(self.modes, sparse.reshape(sparse.with_data(row, values), (dim, dim)))


def _joined(
    parts: Iterable[RepresentationResult], meta: RepMeta, count: int
) -> RepresentationResult:
    """The operators of consecutive parts, count in all, as one representation
    of meta labelled as the parts are: one canonical complex128 record, each
    part dropped once copied in.

    The entry arrays double when full.  Pages of np.empty never written
    stay out of the resident set.
    """
    data, indices = np.empty(0, np.complex128), np.empty(0, np.int64)
    indptr = np.zeros(count + 1, np.int64)
    end, done, labels = 0, 0, []
    for part in parts:
        block, start, end = part.flat, end, end + part.flat.nnz
        if end > len(data):
            data, indices = _grown(data, start, end), _grown(indices, start, end)
        data[start:end], indices[start:end] = block.data, block.indices
        indptr[done + 1:done + len(part) + 1] = block.indptr[1:] + start
        done += len(part)
        labels += part.meta.labels
    # trimmed in place: the constructor copies a slice of a much larger array
    data.resize(end, refcheck=False)
    indices.resize(end, refcheck=False)
    flat = sparse.CSR(data, indices, indptr, (count, 1 << 2 * meta.modes))
    return RepresentationResult(flat, replace(meta, labels=tuple(labels)))


def _grown(values: np.ndarray, used: int, need: int) -> np.ndarray:
    """Room for need entries, at least double; only used ones are written."""
    grown = np.empty(max(need, 2 * len(values)), values.dtype)
    grown[:used] = values[:used]
    return grown


def _bilinear(n: int, alpha: int, beta: int) -> FockOperator:
    return fock.creation(n, alpha) @ fock.annihilation(n, beta)


def _coefficient_rows(
    gens: liealg.GeneratorSet | Sequence[np.ndarray],
) -> tuple[sparse.CSR, tuple[str, ...], int]:
    """Coefficient rows, labels and dimension of a generator argument.

    Row g holds matrix g's entries row-major (a GeneratorSet's own record).  Plain matrix sequences are accepted as well;
    unlike GeneratorSet they may be linearly dependent (e.g. zero matrices).
    """
    if isinstance(gens, liealg.GeneratorSet):
        return gens.flat, gens.labels, gens.dim
    mats = np.asarray(gens, dtype=np.complex128)
    if len(mats) == 0:
        raise ValueError("need at least one coefficient matrix")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("coefficient matrices must be square with equal dimension")
    labels = tuple(f"g_{k}" for k in range(1, len(mats) + 1))
    return sparse.from_dense(mats.reshape(len(mats), -1)), labels, mats.shape[1]


def _subset_sums(diagonals: np.ndarray) -> np.ndarray:
    """Entry (p, S), S an occupation bitmask, is the sum of diagonals[p, a]
    over the modes a in S, added in ascending a starting from zero."""
    count, n = diagonals.shape
    sums = np.zeros((count, 1 << n), np.complex128)
    for a in range(n):
        # the sets whose highest mode is a: those below it, plus mode a
        sums[:, 1 << a:2 << a] = sums[:, :1 << a] + diagonals[:, a, None]
    return sums


def _bilinears(rows: sparse.CSR, n: int, sectors: Iterable[int] | None = None) -> sparse.CSR:
    """Row g is rho(C_g) = sum_ab C_g[a, b] a+_a a_b keyed as
    RepresentationResult.flat, C_g being row g of rows, row-major; with
    sectors, only its entries in those particle-number sectors.

    Written from the coefficients, with no ladder product: the diagonal
    entry of state S is the sum of C_g[a, a] over the modes a held in S
    (_subset_sums), and each C_g[a, b] != 0 with a != b takes each of the
    2^(n-2) states S that hold b and not a to S - b + a, signed by the
    modes held below b in S and below a in S - b.  Each zero part is +0.0,
    as in the terms' sum from zero.
    """
    coeffs = sparse.toarray(rows)  # n^2 wide at most
    dim, count = 1 << n, len(coeffs)
    position = fock._state_positions(n)
    counts = fock._particle_counts(n)
    popcount = counts[position]  # indexed by bitmask
    wanted = np.isin(np.arange(n + 1), list(range(n + 1) if sectors is None else sectors))
    g, t = np.nonzero(coeffs)
    off = t % (n + 1) != 0  # the diagonal is every (n + 1)-th term
    g, t = g[off, None], t[off, None]
    a, b = np.divmod(t, n)
    # the states holding neither a nor b, a zero bit put in at each of them;
    # S - b + a holds one mode more than such a state
    rest = np.flatnonzero(wanted[popcount[:dim >> 2] + 1])
    low, high = np.minimum(a, b), np.maximum(a, b)
    rest = rest >> low << low + 1 | rest & (1 << low) - 1
    rest = rest >> high << high + 1 | rest & (1 << high) - 1
    odd = (popcount[rest & (1 << b) - 1] + popcount[rest & (1 << a) - 1]) & 1
    value = coeffs[g, t]
    moved = np.where(odd, -value, value) + 0.0
    moves = (position[rest | 1 << a].astype(np.int64) << n) + position[rest | 1 << b]
    states = np.flatnonzero(wanted[counts])
    # the wanted states' diagonal, from the 2^n subset sums of a few rows at a time
    step = max(1, _ASSEMBLY_ENTRIES >> n)
    sums = np.concatenate([_subset_sums(coeffs[p:p + step, ::n + 1])[:, fock._masks(n)[states]]
                           for p in range(0, count, step)])
    return sparse.from_triplets(
        np.concatenate([np.broadcast_to(g, moves.shape).ravel(), np.repeat(np.arange(count), len(states))]),
        np.concatenate([moves.ravel(), np.tile(states << n | states, count)]),
        np.concatenate([moved.ravel(), sums.ravel()]), (count, dim * dim),
    )


# standard_parts forms about this many entries at a time, one part: one
# generator of the Gell-Mann set at n = 12, the whole set at n <= 6.  build
# un-standard --n 12 writes each part as it is formed and peaks at 35.2 MB
# RSS at 2^11 and 2^13, 38.0 at 2^15 and 50.9 at 2^17 (2-vCPU VM)
_ASSEMBLY_ENTRIES = 1 << 13


def standard_rep(
    gens: liealg.GeneratorSet | Sequence[np.ndarray], n: int
) -> RepresentationResult:
    """Bilinear realization G_i -> sum_{a,b} a+_a G_i^{ab} a_b.

    Requires the generator dimension to equal the mode count.  Every
    output operator commutes with the total number operator.
    """
    return _joined(standard_parts(gens, n), RepMeta("standard", n), len(gens))


def standard_parts(
    gens: liealg.GeneratorSet | Sequence[np.ndarray], n: int
) -> Iterator[RepresentationResult]:
    """The operators of standard_rep as consecutive parts, each formed when
    the iteration reaches it; the arguments are checked on the call.  A part
    is a run of coefficient rows forming at most _ASSEMBLY_ENTRIES entries,
    a row over the bound alone."""
    coeffs, labels, dim = _coefficient_rows(gens)
    meta = RepMeta(variant="standard", modes=n, labels=labels)
    set_sectors(meta, dim)
    # 2^n diagonal entries per row, and at most 2^(n-2) per nonzero C[a, b]
    ends = np.cumsum((1 << n) + (np.diff(coeffs.indptr) << n >> 2))

    def parts() -> Iterator[RepresentationResult]:
        start = 0
        while start < len(ends):
            base = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, base + _ASSEMBLY_ENTRIES, "right")))
            r, start = slice(start, stop), stop
            flat = _bilinears(sparse.take_rows(coeffs, r), n)
            yield RepresentationResult(flat, replace(meta, labels=labels[r]))

    return parts()


def nssfr_un(gens: liealg.GeneratorSet, n: int) -> RepresentationResult:
    """Number-selective realization of a traceless generator set.

    Builds  sum a+_a G_i^{ab} a_b * f(N; 1)  +  sum a+_a G'_i^{ab} a_b *
    f(N; n-1)  with G' the conjugate set and f(N; m) the selective
    polynomial evaluated at the total number operator.  The result acts
    as G_i on both the single-particle and the single-hole sector and
    vanishes everywhere else; tracelessness is required for the vanishing
    on the fully occupied sector, so non-traceless input is rejected.
    """
    meta = RepMeta(variant="nssfr", modes=n, labels=gens.labels)
    set_sectors(meta, gens.dim)
    low, high = gens.flat, liealg.conjugate_rep(gens).flat
    traces = sparse.toarray(sparse.matmul(low, sparse.from_dense(np.eye(n).reshape(-1, 1))))[:, 0]
    g = int(np.argmax(np.abs(traces) > TRACELESS_TOL))  # the first, if any
    if abs(traces[g]) > TRACELESS_TOL:
        raise ValidationError(
            f"generator {gens.labels[g]} is not traceless (trace {traces[g]:.3e})"
        )

    counts = fock._particle_counts(n)

    def term(rows: sparse.CSR, m: int) -> sparse.CSR:
        """The bilinears of rows times f(N; m), formed on the sectors it keeps
        (m, and the empty and the full one) alone: each entry times its
        column's f, as the product by the diagonal f(N; m) rounds it."""
        p = selective_function(n, m)
        f = np.array([float(p.evaluate(s)) for s in range(n + 1)], np.complex128)
        bilinears = _bilinears(rows, n, np.flatnonzero(f).tolist())
        return sparse.scaled(bilinears, f[counts[bilinears.indices & (1 << n) - 1]])

    # formed whole: n + 2 diagonal entries a side per generator on the kept
    # sectors and one move per nonzero C[a, b], 7,176 entries at n = 14
    return RepresentationResult(sparse.add(term(low, 1), term(high, n - 1)), meta)


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
    return RepresentationResult.from_ops(ops, meta)


@dataclass(frozen=True, eq=False)
class SectorOperatorSet:
    """Sector lowering operators O_i and their defining occupancy vectors.

    zetas[i] is the occupancy tuple (zeta_1, ..., zeta_n) of the i-th
    state of sector m in basis order, which is descending binary value
    with zeta_1 most significant.  O_i is the product of the selected
    annihilators with mode indices descending, so O+_i applied to the
    vacuum gives the i-th sector basis state with amplitude +1.
    """

    modes: int
    particles: int
    ops: tuple[FockOperator, ...]
    zetas: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.ops)


def sector_operators(n: int, m: int) -> SectorOperatorSet:
    """The C(n, m) sector lowering operators for particle count m."""
    masks = fock.build_basis(n)[fock.sector_indices(n, m)].tolist()
    zetas = tuple(tuple(mask >> i & 1 for i in range(n)) for mask in masks)
    ops = []
    for z in zetas:
        op = FockOperator.identity(n)
        for i in range(n, 0, -1):
            if z[i - 1]:
                op = op @ fock.annihilation(n, i)
        ops.append(op)
    return SectorOperatorSet(n, m, tuple(ops), zetas)


def element_operators(n: int, m: int) -> list[FockOperator]:
    """Sector unit operators Q_ij = O+_i |vac><vac| O_j, row-major.

    Q_ij is exactly the outer product of the i-th and j-th sector basis
    states, so the list realizes the matrix-unit commutation relations
    [Q_ij, Q_kl] = d_jk Q_il - d_li Q_kj on the C(n, m)-dimensional
    sector and vanishes on every other sector.
    """
    return list(unit_set(n, m))


def unit_set(n: int, m: int) -> RepresentationResult:
    """The operators of element_operators, on the sector a ucnm one takes,
    as one int64 record: Q_ij is the basis outer product e_{s+i, s+j}, s the
    sector's first index, equal to O+_i |vac><vac| O_j of sector_operators."""
    k, s = set_dim(RepMeta("ucnm", n, m)), fock._sector_starts(n)[m]
    i, j = np.divmod(np.arange(k * k, dtype=np.int64), k)
    flat = sparse.CSR(np.ones(k * k, np.int64), ((s + i) << n) + s + j, np.arange(k * k + 1),
                      (k * k, 1 << 2 * n))
    return RepresentationResult(flat, RepMeta("units", n, m))


def _placed(sets: Iterable[tuple[sparse.CSR, int]], n: int, count: int) -> sparse.CSR:
    """The record of count operators sum_ij G[i, j] Q_ij(m), summed over the
    pairs (G, m) of sets: G[i, j] of matrix g in row g at (s + i) 2^n + s + j,
    s sector m's first state, zero parts +0.0 as in the terms' sum from zero."""
    rows, keys, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for flat, m in sets:
        (i, j), s = np.divmod(flat.indices, math.comb(n, m)), fock._sector_starts(n)[m]
        rows.append(sparse.coo_rows(flat))
        keys.append(((s + i) << n) + s + j)
        vals.append(flat.data + 0.0)
    return sparse.from_triplets(*map(np.concatenate, (rows, keys, vals)), (count, 1 << 2 * n))


def rep_ucnm(
    gens: liealg.GeneratorSet | Sequence[np.ndarray], n: int, m: int
) -> RepresentationResult:
    """Realize a C(n, m)-dimensional generator set on the count-m sector.

    Each operator is sum_{a,b} G_i^{ab} Q_ab; its restriction to the
    sector block equals G_i and it vanishes on every other sector.
    """
    coeffs, labels, dim = _coefficient_rows(gens)
    meta = RepMeta(variant="ucnm", modes=n, particles=m, labels=labels)
    set_sectors(meta, dim)
    return RepresentationResult(_placed([(coeffs, m)], n, len(labels)), meta)


def _sector_sets(meta: RepMeta, gens: liealg.GeneratorSet) -> dict[int, liealg.GeneratorSet]:
    """The set each sector of set_sectors(meta, gens.dim) carries, G = gens
    or conjugate_rep(G).  Both keep G's structure constants: X -> -X^T is an
    automorphism, and conjugate_rep an exact signed index map."""
    sectors = set_sectors(meta, gens.dim)
    conjugate = liealg.conjugate_rep(gens) if any(sectors.values()) else gens
    return {s: conjugate if conjugated else gens for s, conjugated in sectors.items()}


def mixed_rep(
    gens: liealg.GeneratorSet, n: int, m: int, xi_minus: int, xi_plus: int, pairing: str,
) -> RepresentationResult:
    """Weighted pairing of two sector realizations on counts m and n - m.

    Builds  xi_minus * sum G_i^{ab} Q_ab(m)  +  xi_plus * sum G2_i^{ab}
    Q_ab(n-m), G2 the set pairing names: "conjugate" for conjugate_rep(gens),
    U (-G^T) U^T, or "same" for gens.  Either shares the structure constants
    of gens, Hermitian or not, so closure follows sector by sector.  The
    arguments are set_sectors' to refuse; xi = (1, 0) gives rep_ucnm(gens).

    With m = 1 and xi = (1, 1), the same pairing gives nssfr_un(gens, n) (G
    on both the single-particle and the single-hole sector).  The conjugate
    pairing gives standard_rep(gens, 3) only at n = 3; for n >= 4 the
    bilinear representation is also nonzero on the middle sectors.
    """
    meta = RepMeta("mixed", n, m, gens.labels, (xi_minus, xi_plus), pairing)
    sets = _sector_sets(meta, gens)
    return RepresentationResult(_placed([(g.flat, s) for s, g in sets.items()], n, len(gens)), meta)
