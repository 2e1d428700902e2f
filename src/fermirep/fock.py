"""Occupation-number spaces and exact fermionic ladder matrices.

Basis states for n modes are ordered by particle count and, inside each
count sector, lexicographically by the tuple of occupied mode indices.
With that ordering every number-conserving operator is block diagonal
with one contiguous block per sector.

Ladder and number matrices carry exact integer entries; they are only
promoted to floats or complex numbers when a later composition
introduces them.  All values here are immutable after construction and
every operation is a pure function, so everything can be shared freely
across threads or processes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Mapping

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError

__all__ = [
    "DEFAULT_MODE_CAP",
    "CAP_ENV_VAR",
    "mode_capacity",
    "OccupationState",
    "FockBasis",
    "FockOperator",
    "build_basis",
    "annihilation",
    "creation",
    "number_operator",
    "total_number",
    "sector_dimension",
    "sector_indices",
    "vacuum_projector",
]

DEFAULT_MODE_CAP = 14
CAP_ENV_VAR = "FERMIREP_MAX_MODES"


def mode_capacity() -> int:
    """Largest permitted mode count; FERMIREP_MAX_MODES overrides the default."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_MODE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise CapacityError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise CapacityError(f"{CAP_ENV_VAR} must be at least 1, got {cap}")
    return cap


def _require_modes(n: int) -> None:
    cap = mode_capacity()
    if not 1 <= n <= cap:
        raise CapacityError(f"mode count must be in [1, {cap}], got {n}")


def _require_mode_index(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"mode index must be in [1, {n}], got {i}")


@dataclass(frozen=True)
class OccupationState:
    """Occupancies (zeta_1, ..., zeta_n) of n fermionic modes, each 0 or 1."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"occupancies must be 0 or 1, got {self.bits}")

    @classmethod
    def from_occupied(cls, n: int, occupied: Iterable[int]) -> "OccupationState":
        """State of n modes with the given 1-based mode indices occupied."""
        bits = [0] * n
        for i in occupied:
            if not 1 <= i <= n:
                raise ValueError(f"occupied index {i} outside [1, {n}]")
            if bits[i - 1]:
                raise ValueError(f"mode {i} listed twice")
            bits[i - 1] = 1
        return cls(tuple(bits))

    @property
    def modes(self) -> int:
        return len(self.bits)

    def particle_count(self) -> int:
        return sum(self.bits)

    def occupied(self) -> tuple[int, ...]:
        """1-based indices of the occupied modes, ascending."""
        return tuple(i + 1 for i, b in enumerate(self.bits) if b)

    def binary_value(self) -> int:
        """The bits read as a binary number with zeta_1 most significant."""
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    def __str__(self) -> str:
        return "|" + "".join(str(b) for b in self.bits) + ">"


class FockBasis:
    """Ordered occupation basis: vacuum first, fully occupied state last.

    States are grouped by particle count; inside a sector they follow the
    ascending lexicographic order of their occupied-index tuples, e.g. for
    n = 3:  {}, {1}, {2}, {3}, {1,2}, {1,3}, {2,3}, {1,2,3}.
    """

    def __init__(self, modes: int, states: Iterable[OccupationState]):
        self.modes = modes
        self.states = tuple(states)
        if len(self.states) != 1 << modes:
            raise ValueError("basis must contain exactly 2^n states")
        self._index = {s.bits: k for k, s in enumerate(self.states)}

    @property
    def dim(self) -> int:
        return 1 << self.modes

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[OccupationState]:
        return iter(self.states)

    def __getitem__(self, k: int) -> OccupationState:
        return self.states[k]

    def index_of(self, state: OccupationState | tuple[int, ...]) -> int:
        bits = state.bits if isinstance(state, OccupationState) else tuple(state)
        return self._index[bits]

    def sector_range(self, m: int) -> range:
        """Contiguous index range of the particle-count-m sector."""
        if not 0 <= m <= self.modes:
            raise ValueError(f"particle count must be in [0, {self.modes}], got {m}")
        start = sum(math.comb(self.modes, k) for k in range(m))
        return range(start, start + math.comb(self.modes, m))


@lru_cache(maxsize=None)
def _basis(n: int) -> FockBasis:
    states = []
    for m in range(n + 1):
        for occ in combinations(range(1, n + 1), m):
            states.append(OccupationState.from_occupied(n, occ))
    return FockBasis(n, states)


def build_basis(n: int) -> FockBasis:
    """Canonical ordered basis of the 2^n-dimensional occupation space."""
    _require_modes(n)
    return _basis(n)


class FockOperator:
    """Sparse operator on the 2^n-dimensional occupation space.

    A thin wrapper around a CSR matrix carrying the mode count.  Stored
    entries are kept in canonical form (no explicit zeros).  Instances are
    immutable by convention: every arithmetic method returns a new
    operator and nothing mutates the wrapped matrix after construction.
    """

    __slots__ = ("modes", "mat")

    def __init__(self, modes: int, mat):
        dim = 1 << modes
        mat = sp.csr_matrix(mat, copy=True)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match 2^{modes}")
        mat.sum_duplicates()
        mat.eliminate_zeros()
        self.modes = modes
        self.mat = mat

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, modes: int) -> "FockOperator":
        dim = 1 << modes
        return cls(modes, sp.csr_matrix((dim, dim), dtype=np.int64))

    @classmethod
    def identity(cls, modes: int) -> "FockOperator":
        return cls(modes, sp.identity(1 << modes, dtype=np.int64, format="csr"))

    @classmethod
    def from_entries(
        cls, modes: int, entries: Mapping[tuple[int, int], complex]
    ) -> "FockOperator":
        """Operator from a {(row, col): value} map."""
        dim = 1 << modes
        rows, cols, vals = [], [], []
        for (r, c), v in entries.items():
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry position ({r}, {c}) outside [0, {dim})")
            rows.append(r)
            cols.append(c)
            vals.append(v)
        dtype = np.int64 if all(isinstance(v, int) for v in vals) else np.complex128
        mat = sp.csr_matrix(
            (np.array(vals, dtype=dtype), (rows, cols)), shape=(dim, dim)
        )
        return cls(modes, mat)

    @classmethod
    def diagonal(cls, modes: int, values) -> "FockOperator":
        dim = 1 << modes
        values = list(values)
        if len(values) != dim:
            raise ValueError(f"need {dim} diagonal values, got {len(values)}")
        dtype = np.int64 if all(isinstance(v, int) for v in values) else np.complex128
        # built as CSR directly: sp.diags would cast an int64 diagonal to float64
        mat = sp.csr_matrix(
            (np.array(values, dtype=dtype), np.arange(dim), np.arange(dim + 1)),
            shape=(dim, dim),
        )
        return cls(modes, mat)

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return 1 << self.modes

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def entries(self) -> dict[tuple[int, int], complex]:
        """Stored entries as a {(row, col): value} map with Python scalars."""
        coo = self.mat.tocoo()
        return {
            (int(r), int(c)): complex(v)
            for r, c, v in zip(coo.row, coo.col, coo.data)
        }

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.mat.todense(), dtype=np.complex128)

    def trace(self) -> complex:
        return complex(self.mat.diagonal().sum())

    def max_abs(self) -> float:
        """Largest absolute entry (Chebyshev norm); 0.0 for the zero operator."""
        if self.mat.nnz == 0:
            return 0.0
        return float(np.max(np.abs(self.mat.data)))

    # -- arithmetic ---------------------------------------------------------

    def _require_same_modes(self, other: "FockOperator") -> None:
        if not isinstance(other, FockOperator):
            raise TypeError(f"expected FockOperator, got {type(other).__name__}")
        if other.modes != self.modes:
            raise ValueError(
                f"mode counts differ: {self.modes} vs {other.modes}"
            )

    def __add__(self, other: "FockOperator") -> "FockOperator":
        self._require_same_modes(other)
        return FockOperator(self.modes, self.mat + other.mat)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        self._require_same_modes(other)
        return FockOperator(self.modes, self.mat - other.mat)

    def __neg__(self) -> "FockOperator":
        return FockOperator(self.modes, -self.mat)

    def __mul__(self, scalar) -> "FockOperator":
        if isinstance(scalar, FockOperator):
            raise TypeError("use @ for operator composition")
        return FockOperator(self.modes, self.mat * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FockOperator":
        return self * (1.0 / scalar)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._require_same_modes(other)
        return FockOperator(self.modes, self.mat @ other.mat)

    def dagger(self) -> "FockOperator":
        """Conjugate transpose."""
        return FockOperator(self.modes, self.mat.conj().T.tocsr())

    def commutator(self, other: "FockOperator") -> "FockOperator":
        self._require_same_modes(other)
        return FockOperator(self.modes, self.mat @ other.mat - other.mat @ self.mat)

    def anticommutator(self, other: "FockOperator") -> "FockOperator":
        self._require_same_modes(other)
        return FockOperator(self.modes, self.mat @ other.mat + other.mat @ self.mat)

    def diff_max(self, other: "FockOperator") -> float:
        """Largest absolute entrywise difference."""
        return (self - other).max_abs()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockOperator):
            return NotImplemented
        return self.modes == other.modes and (self.mat - other.mat).nnz == 0

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"FockOperator(modes={self.modes}, dim={self.dim}, nnz={self.nnz})"
        )


# -- ladder and number operators --------------------------------------------


@lru_cache(maxsize=None)
def _annihilation(n: int, i: int) -> FockOperator:
    basis = _basis(n)
    rows, cols, vals = [], [], []
    for col, state in enumerate(basis.states):
        if not state.bits[i - 1]:
            continue
        # sign convention: (-1)^(number of occupied modes below i)
        phase = -1 if sum(state.bits[: i - 1]) % 2 else 1
        removed = list(state.bits)
        removed[i - 1] = 0
        rows.append(basis.index_of(tuple(removed)))
        cols.append(col)
        vals.append(phase)
    mat = sp.csr_matrix(
        (np.array(vals, dtype=np.int64), (rows, cols)),
        shape=(basis.dim, basis.dim),
    )
    return FockOperator(n, mat)


def annihilation(n: int, i: int) -> FockOperator:
    """Matrix of a_i in the canonical basis.

    Acting on a state whose occupied modes are j1 < ... < jk, it removes
    mode i with amplitude (-1)^(number of occupied modes below i), or
    yields zero if mode i is empty.
    """
    _require_modes(n)
    _require_mode_index(n, i)
    return _annihilation(n, i)


def creation(n: int, i: int) -> FockOperator:
    """Matrix of the creation operator; exact adjoint of annihilation(n, i)."""
    _require_modes(n)
    _require_mode_index(n, i)
    return _creation(n, i)


@lru_cache(maxsize=None)
def _creation(n: int, i: int) -> FockOperator:
    return _annihilation(n, i).dagger()


def number_operator(n: int, i: int) -> FockOperator:
    """Diagonal occupancy readout for mode i."""
    _require_modes(n)
    _require_mode_index(n, i)
    basis = _basis(n)
    return FockOperator.diagonal(n, [s.bits[i - 1] for s in basis.states])


def _particle_counts(n: int) -> np.ndarray:
    """Particle count of each basis state, in the order of FockBasis."""
    return np.repeat(np.arange(n + 1), [math.comb(n, m) for m in range(n + 1)])


@lru_cache(maxsize=None)
def _total_number(n: int) -> FockOperator:
    return FockOperator.diagonal(n, _particle_counts(n).tolist())


def total_number(n: int) -> FockOperator:
    """Total particle-number operator; eigenvalue m has multiplicity C(n, m)."""
    _require_modes(n)
    return _total_number(n)


def sector_dimension(n: int, m: int) -> int:
    """Dimension C(n, m) of the particle-count-m sector."""
    if not 0 <= m <= n:
        raise ValueError(f"particle count must be in [0, {n}], got {m}")
    return math.comb(n, m)


def sector_indices(n: int, m: int) -> list[int]:
    """Basis indices with particle count m (a contiguous ascending run)."""
    _require_modes(n)
    return list(build_basis(n).sector_range(m))


def vacuum_projector(n: int) -> FockOperator:
    """Rank-one projector onto the vacuum state."""
    _require_modes(n)
    return FockOperator.from_entries(n, {(0, 0): 1})
