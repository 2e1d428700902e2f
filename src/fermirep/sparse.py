"""Compressed sparse row (CSR) matrices on numpy arrays alone.

A ``CSR`` record holds canonical arrays: within each row the column
indices strictly increase, and no stored value is zero.  Every function
here returns canonical records from canonical inputs, and the record's
arrays are read-only views, so records can be shared freely.

Sums follow one rule: entries that land on the same place are added in
input order, starting from zero, with ``np.bincount`` on the real and
imaginary parts (integer values are summed exactly).  ``matmul`` lists
its product terms in the order of the SMMP algorithm (Bank & Douglas,
Adv. Comput. Math. 1, 127 (1993)): each stored entry of A's row, then
each entry of the matching row of B.  So every product entry is rounded
exactly as that algorithm rounds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CSR",
    "from_triplets",
    "from_dense",
    "diags",
    "pruned",
    "with_data",
    "add",
    "subtract",
    "matmul",
    "scaled",
    "vstack",
    "take_rows",
    "reshape",
    "conj_transpose",
    "coo_rows",
    "diagonal",
    "toarray",
]


@dataclass(frozen=True, eq=False)
class CSR:
    """A shape[0] x shape[1] matrix: row r holds data[indptr[r]:indptr[r + 1]]
    at columns indices[indptr[r]:indptr[r + 1]].

    The arrays are taken as given, so they must already be canonical;
    from_triplets builds a record from arbitrary entries.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        for name in ("data", "indices", "indptr"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        object.__setattr__(self, "shape", (int(self.shape[0]), int(self.shape[1])))
        if len(self.indptr) != self.shape[0] + 1 or len(self.indices) != len(self.data):
            raise ValueError(f"CSR arrays do not describe a {self.shape} matrix")

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nnz(self) -> int:
        return len(self.data)


def _summed(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct int64 keys, ascending, and the sum of the values at each,
    in input order; keys is overwritten."""
    count = len(keys)
    if count == 0:
        return keys, vals
    shift = (count - 1).bit_length()
    if int(keys.max()) < 1 << (63 - shift):
        # one sort of each key with its position in the low bits: equal keys
        # keep their input order, at about half the time of a stable argsort;
        # in place, since this sort sets the peak of the closure kernel
        keys <<= shift
        keys |= np.arange(count)
        keys.sort()
        order = keys & ((1 << shift) - 1)
        keys >>= shift
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    first = np.ones(count, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    if vals.dtype.kind in "iu":
        # integer sums are exact in any order
        return keys[first], np.add.reduceat(vals[order], np.flatnonzero(first))
    group = np.cumsum(first)
    group -= 1
    size = int(group[-1]) + 1
    if vals.dtype.kind == "f":
        return keys[first], np.bincount(group, vals[order], size)
    sums = np.empty(size, vals.dtype)
    sums.real = np.bincount(group, vals.real[order], size)
    sums.imag = np.bincount(group, vals.imag[order], size)
    return keys[first], sums


def from_triplets(rows, cols, vals, shape: tuple[int, int]) -> CSR:
    """The matrix holding vals[t] at (rows[t], cols[t]), with the values at
    one place summed in input order and zero sums dropped."""
    keys = np.asarray(rows, dtype=np.int64) * shape[1]
    keys += np.asarray(cols, dtype=np.int64)
    places, sums = _summed(keys, np.asarray(vals))
    keep = sums != 0
    return _from_places(places[keep], sums[keep], shape)


def _from_places(places: np.ndarray, vals: np.ndarray, shape: tuple[int, int]) -> CSR:
    """The matrix holding vals at the ascending row-major places row * shape[1] + col."""
    return CSR(vals, places % shape[1], _pointer(places // shape[1], shape[0]), shape)


def _pointer(rows: np.ndarray, count: int) -> np.ndarray:
    """The row pointer of count rows holding entries in the ascending rows.

    Each row's last entry sets the pointer past it, and a running maximum
    carries that over the empty rows.  It is int32 while the entries
    allow, as scipy made it.
    """
    last = np.flatnonzero(np.diff(rows, append=count))
    indptr = np.zeros(count + 1, np.int32 if len(rows) < 2**31 else np.int64)
    indptr[rows[last] + 1] = last + 1
    np.maximum.accumulate(indptr, out=indptr)
    return indptr


def from_dense(array: np.ndarray) -> CSR:
    """The nonzero entries of a 2-D array."""
    array = np.asarray(array)
    rows, cols = np.nonzero(array)
    return CSR(array[rows, cols], cols, _pointer(rows, array.shape[0]), array.shape)


def diags(values) -> CSR:
    """The square diagonal matrix of values, without its zeros."""
    values = np.asarray(values)
    dim = len(values)
    return pruned(CSR(values, np.arange(dim), np.arange(dim + 1), (dim, dim)))


def pruned(a: CSR) -> CSR:
    """a without its stored zeros (a itself when it has none)."""
    keep = a.data != 0
    if keep.all():
        return a
    kept = np.concatenate([[0], np.cumsum(keep)])  # kept entries before each one
    return CSR(a.data[keep], a.indices[keep], kept[a.indptr], a.shape)


def with_data(a: CSR, data: np.ndarray) -> CSR:
    """a's pattern holding data instead, without the entries data makes zero."""
    return pruned(CSR(data, a.indices, a.indptr, a.shape))


def add(a: CSR, b: CSR) -> CSR:
    """a + b."""
    return _combined(a, b, np.add)


def subtract(a: CSR, b: CSR) -> CSR:
    """a - b."""
    return _combined(a, b, np.subtract)


def _combined(a: CSR, b: CSR, op) -> CSR:
    """op applied to each place stored in a or b, a zero standing in for
    the missing side, so a lone entry of a keeps the sign of its zero parts."""
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    ncols = a.shape[1]
    keys = [coo_rows(m) * ncols + m.indices for m in (a, b)]
    # distinct by a sort: np.unique would hash, ten times slower here (numpy 2.4)
    places = np.sort(np.concatenate(keys))
    first = np.ones(len(places), dtype=bool)
    first[1:] = places[1:] != places[:-1]
    places = places[first]
    dtype = np.result_type(a.dtype, b.dtype)
    sides = []
    for m, k in zip((a, b), keys):
        side = np.zeros(len(places), dtype)
        side[np.searchsorted(places, k)] = m.data
        sides.append(side)
    vals = op(*sides)
    keep = vals != 0
    return _from_places(places[keep], vals[keep], a.shape)


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions starts[t], ..., starts[t] + lengths[t] - 1 for each t in turn."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def matmul(a: CSR, b: CSR) -> CSR:
    """a @ b, both converted to their common type first."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    dtype = np.result_type(a.dtype, b.dtype)
    starts = b.indptr[a.indices]
    lengths = b.indptr[a.indices + 1] - starts
    pos = _spans(starts, lengths)
    rows = np.repeat(coo_rows(a), lengths)
    vals = _times(np.repeat(a.data, lengths).astype(dtype, copy=False),
                  b.data[pos].astype(dtype, copy=False))
    return from_triplets(rows, b.indices[pos], vals, (a.shape[0], b.shape[1]))


def scaled(a: CSR, factors: np.ndarray) -> CSR:
    """a with entry t times factors[t], rounded as a matmul term and summed from zero."""
    dtype = np.result_type(a.dtype, factors.dtype)
    return from_triplets(coo_rows(a), a.indices, _times(a.data.astype(dtype), factors.astype(dtype)), a.shape)


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y; complex products by the textbook formula, each part rounded
    once per operation (numpy's own complex loop may fuse them with FMA)."""
    if x.dtype.kind != "c":
        return x * y
    product = np.empty(len(x), x.dtype)
    np.multiply(x.real, y.real, out=product.real)
    product.real -= x.imag * y.imag
    np.multiply(x.real, y.imag, out=product.imag)
    product.imag += x.imag * y.real
    return product


def vstack(mats) -> CSR:
    """The matrices, all of one width, as consecutive row blocks."""
    mats = list(mats)
    width = mats[0].shape[1]
    if any(m.shape[1] != width for m in mats):
        raise ValueError("row blocks of different widths")
    dtype = np.result_type(*(m.dtype for m in mats))
    offsets = np.cumsum([0] + [m.nnz for m in mats])
    indptr = np.concatenate([[0]] + [m.indptr[1:] + off for m, off in zip(mats, offsets)])
    return CSR(
        np.concatenate([m.data.astype(dtype) for m in mats]),
        np.concatenate([m.indices for m in mats]),
        indptr,
        (sum(m.shape[0] for m in mats), width),
    )


def take_rows(a: CSR, rows) -> CSR:
    """The rows of a that rows selects: a slice (its arrays are views) or an index array."""
    if isinstance(rows, slice):
        start, stop, step = rows.indices(a.shape[0])
        if step != 1:
            raise ValueError("only unit-step row slices are views")
        stop = max(start, stop)
        lo, hi = a.indptr[start], a.indptr[stop]
        return CSR(a.data[lo:hi], a.indices[lo:hi], a.indptr[start:stop + 1] - lo,
                   (stop - start, a.shape[1]))
    rows = np.asarray(rows, dtype=np.int64)
    starts = a.indptr[rows]
    lengths = a.indptr[rows + 1] - starts
    pos = _spans(starts, lengths)
    indptr = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return CSR(a.data[pos], a.indices[pos], indptr, (len(rows), a.shape[1]))


def reshape(a: CSR, shape: tuple[int, int]) -> CSR:
    """a read row-major as a shape[0] x shape[1] matrix of as many places."""
    return _from_places(coo_rows(a) * a.shape[1] + a.indices, a.data, shape)


def conj_transpose(a: CSR) -> CSR:
    """The conjugate transpose of a."""
    order = np.argsort(a.indices, kind="stable")
    indptr = _pointer(a.indices[order], a.shape[1])
    return CSR(a.data[order].conj(), coo_rows(a)[order], indptr, a.shape[::-1])


def coo_rows(a: CSR) -> np.ndarray:
    """The row of each stored entry, aligned with a.indices and a.data."""
    return np.repeat(np.arange(a.shape[0], dtype=np.int64), np.diff(a.indptr))


def diagonal(a: CSR) -> np.ndarray:
    """The main diagonal of a, zeros included."""
    rows = coo_rows(a)
    on = rows == a.indices
    diag = np.zeros(min(a.shape), a.dtype)
    diag[rows[on]] += a.data[on]  # added to zero, as scipy does: -0.0 parts become 0.0
    return diag


def toarray(a: CSR) -> np.ndarray:
    """a as a dense array of its own type."""
    dense = np.zeros(a.shape, a.dtype)
    dense[coo_rows(a), a.indices] += a.data  # added to zero, as in diagonal
    return dense
