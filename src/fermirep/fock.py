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
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Mapping

import numpy as np

from . import sparse
from .errors import CapacityError

__all__ = [
    "DEFAULT_MODE_CAP",
    "CAP_ENV_VAR",
    "mode_capacity",
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


@lru_cache(maxsize=None)
def _masks(n: int) -> np.ndarray:
    # the one definition of the basis order; mode i is bit i - 1
    masks = np.array(
        [sum(1 << a for a in occ) for m in range(n + 1) for occ in combinations(range(n), m)],
        dtype=np.int64,
    )
    masks.flags.writeable = False
    return masks


def build_basis(n: int) -> np.ndarray:
    """Occupation bitmasks of the 2^n basis states, in basis order; read-only.

    State k has mode i occupied iff bit i - 1 of entry k is set.  States
    are grouped by particle count; inside a sector they follow the
    ascending lexicographic order of their occupied-index tuples, e.g. for
    n = 3:  {}, {1}, {2}, {3}, {1,2}, {1,3}, {2,3}, {1,2,3}.
    """
    _require_modes(n)
    return _masks(n)


class FockOperator:
    """Sparse operator on the 2^n-dimensional occupation space.

    A thin wrapper around a read-only sparse.CSR record carrying the mode
    count, with its stored zeros dropped.  Every arithmetic method returns
    a new operator.
    """

    __slots__ = ("modes", "mat")

    def __init__(self, modes: int, mat: sparse.CSR):
        dim = 1 << modes
        if not isinstance(mat, sparse.CSR):
            raise TypeError(f"expected a sparse.CSR record, got {type(mat).__name__}")
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match 2^{modes}")
        self.modes = modes
        self.mat = sparse.pruned(mat)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, modes: int) -> "FockOperator":
        return cls(modes, sparse.diags(np.zeros(1 << modes, np.int64)))

    @classmethod
    def identity(cls, modes: int) -> "FockOperator":
        return cls(modes, sparse.diags(np.ones(1 << modes, np.int64)))

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
        return cls(modes, sparse.from_triplets(rows, cols, np.array(vals, dtype), (dim, dim)))

    @classmethod
    def diagonal(cls, modes: int, values) -> "FockOperator":
        dim = 1 << modes
        values = list(values)
        if len(values) != dim:
            raise ValueError(f"need {dim} diagonal values, got {len(values)}")
        dtype = np.int64 if all(isinstance(v, int) for v in values) else np.complex128
        return cls(modes, sparse.diags(np.array(values, dtype=dtype)))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return 1 << self.modes

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def entries(self) -> dict[tuple[int, int], complex]:
        """Stored entries as a {(row, col): value} map with Python scalars."""
        mat = self.mat
        return {
            (int(r), int(c)): complex(v)
            for r, c, v in zip(sparse.coo_rows(mat), mat.indices, mat.data)
        }

    def to_dense(self) -> np.ndarray:
        return sparse.toarray(self.mat).astype(np.complex128)

    def trace(self) -> complex:
        return complex(sparse.diagonal(self.mat).sum())

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
        return FockOperator(self.modes, sparse.add(self.mat, other.mat))

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        self._require_same_modes(other)
        return FockOperator(self.modes, sparse.subtract(self.mat, other.mat))

    def __neg__(self) -> "FockOperator":
        return FockOperator(self.modes, sparse.with_data(self.mat, -self.mat.data))

    def __mul__(self, scalar) -> "FockOperator":
        if isinstance(scalar, FockOperator):
            raise TypeError("use @ for operator composition")
        return FockOperator(self.modes, sparse.with_data(self.mat, self.mat.data * scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FockOperator":
        return self * (1.0 / scalar)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        self._require_same_modes(other)
        return FockOperator(self.modes, sparse.matmul(self.mat, other.mat))

    def dagger(self) -> "FockOperator":
        """Conjugate transpose."""
        return FockOperator(self.modes, sparse.conj_transpose(self.mat))

    def commutator(self, other: "FockOperator") -> "FockOperator":
        return self @ other - other @ self

    def anticommutator(self, other: "FockOperator") -> "FockOperator":
        return self @ other + other @ self

    def diff_max(self, other: "FockOperator") -> float:
        """Largest absolute entrywise difference."""
        return (self - other).max_abs()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockOperator):
            return NotImplemented
        return self.modes == other.modes and (self - other).nnz == 0

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"FockOperator(modes={self.modes}, dim={self.dim}, nnz={self.nnz})"
        )


# -- ladder and number operators --------------------------------------------


@lru_cache(maxsize=None)
def _annihilation(n: int, i: int) -> FockOperator:
    # each bitmask with mode i occupied goes to the mask with it cleared, with
    # sign (-1)^(number of occupied modes below i), the particle count of the
    # state whose mask keeps only those modes
    bit = 1 << (i - 1)
    masks = np.flatnonzero(np.arange(1 << n) & bit)
    positions = _state_positions(n)
    below = _particle_counts(n)[positions[masks & (bit - 1)]]
    signs = (1 - 2 * (below & 1)).astype(np.int64)
    mat = sparse.from_triplets(positions[masks ^ bit], positions[masks], signs, (1 << n, 1 << n))
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
    # a list of Python ints keeps the diagonal int64
    return FockOperator.diagonal(n, ((_masks(n) >> (i - 1)) & 1).tolist())


def _particle_counts(n: int) -> np.ndarray:
    """Particle count of each basis state, in basis order."""
    return np.repeat(np.arange(n + 1), [math.comb(n, m) for m in range(n + 1)])


@lru_cache(maxsize=None)
def _state_positions(n: int) -> np.ndarray:
    """Basis position of each occupation bitmask: the inverse of build_basis; read-only."""
    positions = np.empty(1 << n, dtype=np.int32)
    positions[_masks(n)] = np.arange(1 << n, dtype=np.int32)
    positions.flags.writeable = False
    return positions


@lru_cache(maxsize=None)
def _sector_starts(n: int) -> tuple[int, ...]:
    """Basis index of the first state of each particle count 0..n, and 2^n."""
    return tuple(accumulate((math.comb(n, q) for q in range(n + 1)), initial=0))


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
    size = sector_dimension(n, m)  # m is checked before the table is read
    return list(range(_sector_starts(n)[m], _sector_starts(n)[m] + size))


def vacuum_projector(n: int) -> FockOperator:
    """Rank-one projector onto the vacuum state."""
    _require_modes(n)
    return FockOperator.from_entries(n, {(0, 0): 1})
