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
negative.  The bilinear families are formed in parts, runs of
consecutive generators that bound the entries formed at once; each
builder joins the parts into one stack, and ``standard_parts`` hands
out those of ``standard_rep`` as they are formed, for the one family
whose operators fill every sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import fock, liealg, sparse
from .errors import DegeneracyError, ValidationError
from .fock import FockOperator

__all__ = [
    "SelectivePolynomial",
    "SectorOperatorSet",
    "RepMeta",
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
    """Construction descriptor attached to a representation."""

    variant: str
    modes: int
    particles: int | None = None
    labels: tuple[str, ...] = ()
    xi: tuple[int, int] | None = None


@dataclass(frozen=True, eq=False)
class RepresentationResult:
    """Ordered operators realizing a generator set on the occupation space.

    Operator g is row block g (dim x dim) of the canonical CSR ``stack``
    and has value type ``dtypes[g]`` on its own (int64 for the zero
    operator, float64 for a real one).  Indexing, and iteration through
    it, cut a fresh FockOperator from the stack on each call.
    """

    stack: sparse.CSR
    dtypes: tuple[np.dtype, ...]
    meta: RepMeta

    def __post_init__(self) -> None:
        if self.stack.shape != (len(self) << self.modes, 1 << self.modes):
            raise ValueError(f"stack {self.stack.shape} is not {len(self)} operators")

    @classmethod
    def from_ops(cls, ops: Sequence[FockOperator], meta: RepMeta) -> "RepresentationResult":
        """The operators stacked in order."""
        parts = (cls(op.mat, (op.mat.dtype,), replace(meta, labels=meta.labels[g:g + 1]))
                 for g, op in enumerate(ops))
        return _joined(parts, meta, len(ops))

    @property
    def modes(self) -> int:
        return self.meta.modes

    @property
    def ops(self) -> tuple[FockOperator, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.dtypes)

    def __getitem__(self, g: int) -> FockOperator:
        g, dim = range(len(self))[g], 1 << self.modes
        block = sparse.take_rows(self.stack, slice(g * dim, (g + 1) * dim))
        values = block.data if self.dtypes[g].kind == "c" else block.data.real
        return FockOperator(self.modes, sparse.with_data(block, values.astype(self.dtypes[g])))


def _joined(
    parts: Iterable[RepresentationResult], meta: RepMeta, count: int
) -> RepresentationResult:
    """The operators of consecutive parts, count in all, as one representation
    of meta labelled as the parts are: one canonical complex128 stack, each
    part dropped once copied in.

    The entry arrays double when full.  Pages of np.empty never written
    stay out of the resident set.
    """
    dim = 1 << meta.modes
    index = np.int32 if count * dim < 2**31 else np.int64
    data, indices = np.empty(0, np.complex128), np.empty(0, index)
    indptr = np.zeros(count * dim + 1, index)
    end, row, dtypes, labels = 0, 0, [], []
    for part in parts:
        if part.modes != meta.modes:
            raise ValueError(f"a part on {part.modes} modes among operators on {meta.modes}")
        block, start, end = part.stack, end, end + part.stack.nnz
        if end > len(data):
            data, indices = _grown(data, start, end), _grown(indices, start, end)
        data[start:end], indices[start:end] = block.data, block.indices
        indptr[row + 1:row + block.shape[0] + 1] = block.indptr[1:] + start
        row += block.shape[0]
        dtypes += part.dtypes
        labels += part.meta.labels
    # trimmed in place: the constructor copies a slice of a much larger array
    data.resize(end, refcheck=False)
    indices.resize(end, refcheck=False)
    stack = sparse.CSR(data, indices, indptr, (count * dim, dim))
    return RepresentationResult(stack, tuple(dtypes), replace(meta, labels=tuple(labels)))


def _grown(values: np.ndarray, used: int, need: int) -> np.ndarray:
    """Room for need entries, at least double; only used ones are written."""
    grown = np.empty(max(need, 2 * len(values)), values.dtype)
    grown[:used] = values[:used]
    return grown


def _bilinear(n: int, alpha: int, beta: int) -> FockOperator:
    return fock.creation(n, alpha) @ fock.annihilation(n, beta)


def _coefficient_rows(
    gens: liealg.GeneratorSet | Sequence[np.ndarray],
) -> tuple[np.ndarray, tuple[str, ...], int]:
    """Coefficient rows, labels and dimension of a generator argument.

    Row g holds matrix g's entries row-major: the term order of a stack.
    Plain matrix sequences are accepted as well; unlike GeneratorSet they
    may be linearly dependent (e.g. contain zero matrices).
    """
    if isinstance(gens, liealg.GeneratorSet):
        mats, labels = gens.mats, gens.labels
    else:
        mats = np.asarray(gens, dtype=np.complex128)
        if len(mats) == 0:
            raise ValueError("need at least one coefficient matrix")
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError("coefficient matrices must be square with equal dimension")
        labels = tuple(f"g_{k}" for k in range(1, len(mats) + 1))
    return mats.reshape(len(mats), -1), labels, mats.shape[1]


def _subset_sums(diagonals: np.ndarray) -> np.ndarray:
    """Entry (p, S), S an occupation bitmask, is the sum of diagonals[p, a]
    over the modes a in S, added in ascending a starting from zero."""
    count, n = diagonals.shape
    sums = np.zeros((count, 1 << n), np.complex128)
    for a in range(n):
        # the sets whose highest mode is a: those below it, plus mode a
        sums[:, 1 << a:2 << a] = sums[:, :1 << a] + diagonals[:, a, None]
    return sums


def _bilinears(coeffs: np.ndarray, n: int, sectors: Iterable[int] | None = None) -> sparse.CSR:
    """Row block g is rho(C_g) = sum_ab C_g[a, b] a+_a a_b, C_g being row g
    of coeffs, row-major; with sectors, only its rows in those particle-
    number sectors, the others left empty.

    Written from the coefficients, with no ladder product: the diagonal
    entry of state S is the sum of C_g[a, a] over the modes a held in S
    (_subset_sums), and each C_g[a, b] != 0 with a != b takes each of the
    2^(n-2) states S that hold b and not a to S - b + a, signed by the
    modes held below b in S and below a in S - b.  Each zero part is +0.0,
    as in the terms' sum from zero.
    """
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
    states = np.flatnonzero(wanted[counts])
    sums = _subset_sums(coeffs[:, ::n + 1])[:, fock._masks(n)[states]]
    return sparse.from_triplets(
        np.concatenate([((g << n) + position[rest | 1 << a]).ravel(),
                        (np.arange(count)[:, None] << n | states).ravel()]),
        np.concatenate([position[rest | 1 << b].ravel(), np.tile(states, count)]),
        np.concatenate([moved.ravel(), sums.ravel()]), (count << n, dim),
    )


def _kinds(owners: np.ndarray, values: np.ndarray, count: int) -> tuple[np.dtype, ...]:
    """The type of each of count operators, operator owners[t] having the
    nonzero coefficient values[t]: int64 with none, float64 with only real
    ones, else complex128.  A real operator's complex entries have
    imaginary parts of zero and, to the bit, the real parts of a real sum."""
    live = np.bincount(owners, minlength=count) > 0
    imaginary = np.bincount(owners, values.imag != 0, minlength=count) > 0
    return tuple(map(np.dtype, np.where(imaginary, "c16", np.where(live, "f8", "i8"))))


# _parts forms about this many entries at a time, one part: one generator
# of the Gell-Mann set at n = 12, the whole set at n <= 6.  build
# un-standard --n 12 writes each part as it is formed and peaks at 35.2 MB
# RSS at 2^11 and 2^13, 38.0 at 2^15 and 50.9 at 2^17 (2-vCPU VM)
_ASSEMBLY_ENTRIES = 1 << 13


def _chunks(coeffs: np.ndarray, n: int) -> list[slice]:
    """Consecutive rows of coeffs, each run forming at most _ASSEMBLY_ENTRIES
    entries; a row over the bound is alone.  A row holds one or more n x n
    blocks C, each forming 2^n diagonal entries and at most 2^(n-2) per
    nonzero C[a, b]."""
    blocks, nonzero = coeffs.shape[1] // (n * n), np.count_nonzero(coeffs, axis=1)
    ends = np.cumsum((blocks << n) + (nonzero << n >> 2))
    pieces, start = [], 0
    while start < len(coeffs):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _ASSEMBLY_ENTRIES, "right")))
        pieces.append(slice(start, stop))
        start = stop
    return pieces


def _parts(
    coeffs: np.ndarray, form: Callable[[slice], sparse.CSR],
    dtypes: tuple[np.dtype, ...], meta: RepMeta,
) -> Iterator[RepresentationResult]:
    """The generators of meta as consecutive parts, one for each run of
    _chunks(coeffs), formed as form(run) when the iteration reaches it."""
    for r in _chunks(coeffs, meta.modes):
        yield RepresentationResult(form(r), dtypes[r], replace(meta, labels=meta.labels[r]))


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
    the iteration reaches it; the arguments are checked on the call."""
    coeffs, labels, dim = _coefficient_rows(gens)
    if dim != n:
        raise ValueError(f"generator dimension {dim} does not match n={n}")
    fock._require_modes(n)
    meta = RepMeta(variant="standard", modes=n, labels=labels)
    g, t = np.nonzero(coeffs)
    dtypes = _kinds(g, coeffs[g, t], len(coeffs))
    return _parts(coeffs, lambda r: _bilinears(coeffs[r], n), dtypes, meta)


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
    fock._require_modes(n)
    if gens.dim != n:
        raise ValueError(f"generator dimension {gens.dim} does not match n={n}")
    traces = np.trace(gens.mats, axis1=1, axis2=2)
    g = int(np.argmax(np.abs(traces) > TRACELESS_TOL))  # the first, if any
    if abs(traces[g]) > TRACELESS_TOL:
        raise ValidationError(
            f"generator {gens.labels[g]} is not traceless (trace {traces[g]:.3e})"
        )
    conj = liealg.conjugate_rep(gens)
    low, high = gens.mats.reshape(len(gens), -1), conj.mats.reshape(len(gens), -1)

    def factor(m: int) -> tuple[sparse.CSR, list[int]]:
        """f(N; m), and the sectors it keeps, where each bilinear is formed:
        m, and the empty and the full one."""
        p = selective_function(n, m)
        return eval_at_number_operator(p, n).mat, [s for s in range(n + 1) if p.evaluate(s)]

    (f_low, on_low), (f_high, on_high) = factor(1), factor(n - 1)

    def form(r: slice) -> sparse.CSR:
        return sparse.add(
            sparse.matmul(_bilinears(low[r], n, on_low), f_low),
            sparse.matmul(_bilinears(high[r], n, on_high), f_high),
        )

    meta = RepMeta(variant="nssfr", modes=n, labels=gens.labels)
    dtypes = (np.dtype(np.complex128),) * len(low)
    return _joined(_parts(np.hstack([low, high]), form, dtypes, meta), meta, len(low))


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
    """The operators of element_operators as one stack: Q_ij is the basis
    outer product e_{s+i, s+j}, s the sector's first index, equal entry for
    entry to the product O+_i |vac><vac| O_j of sector_operators."""
    _require_sector(n, m)
    dim, k, s = 1 << n, math.comb(n, m), fock._sector_start(n, m)
    i, j = np.divmod(np.arange(k * k, dtype=np.int64), k)
    stack = sparse.from_triplets(
        (i * k + j) * dim + s + i, s + j, np.ones(k * k, dtype=np.int64), (k * k * dim, dim)
    )
    return RepresentationResult(stack, (np.dtype(np.int64),) * k * k, RepMeta("units", n, m))


def _require_sector(n: int, m: int) -> None:
    if not 1 <= m <= n - 1:
        raise ValueError(f"particle count must be in [1, {n - 1}] for unit operators, got {m}")
    fock._require_modes(n)


def _sector_rep(sets: Sequence[tuple[np.ndarray, int]], meta: RepMeta) -> RepresentationResult:
    """The operators sum_ij G[i, j] Q_ij(m) summed over the pairs (G, m) of
    sets, G running over the matrices of a set: each nonzero G[i, j] of
    matrix g is written at (g * 2^n + s + i, s + j), s the first state of
    sector m, with each zero part +0.0, as in the terms' sum from zero.
    Only the nonzero coefficients are formed."""
    n, count = meta.modes, len(sets[0][0])
    rows, cols, vals = [], [], []
    for mats, m in sets:
        _require_sector(n, m)
        g, i, j = np.nonzero(mats)
        s = fock._sector_start(n, m)
        rows.append((g << n) + s + i)
        cols.append(s + j)
        vals.append(mats[g, i, j] + 0.0)
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    stack = sparse.from_triplets(rows, cols, vals, (count << n, 1 << n))
    return _joined([RepresentationResult(stack, _kinds(rows >> n, vals, count), meta)], meta, count)


def rep_ucnm(
    gens: liealg.GeneratorSet | Sequence[np.ndarray], n: int, m: int
) -> RepresentationResult:
    """Realize a C(n, m)-dimensional generator set on the count-m sector.

    Each operator is sum_{a,b} G_i^{ab} Q_ab; its restriction to the
    sector block equals G_i and it vanishes on every other sector.
    """
    k = fock.sector_dimension(n, m)
    coeffs, labels, dim = _coefficient_rows(gens)
    if dim != k:
        raise ValueError(
            f"generator dimension {dim} does not match C({n},{m}) = {k}"
        )
    meta = RepMeta(variant="ucnm", modes=n, particles=m, labels=labels)
    return _sector_rep([(coeffs.reshape(-1, k, k), m)], meta)


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

    The conjugate set conjugate_rep(gens), U (-G^T) U^T, shares the
    structure constants of any set gens, Hermitian or not.  With m = 1
    and xi = (1, 1), gens2 = gens gives nssfr_un(gens, n) (G on both the
    single-particle and the single-hole sector).  The conjugate pairing
    gens2 = conjugate_rep(gens) gives
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

    meta = RepMeta(
        variant="mixed",
        modes=n,
        particles=m,
        labels=gens.labels,
        xi=(xi_minus, xi_plus),
    )
    return _sector_rep([(gens.mats, m)] * xi_minus + [(gens2.mats, mbar)] * xi_plus, meta)
