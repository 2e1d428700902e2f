"""The numpy CSR primitives against scipy.sparse, bit for bit.

scipy is a test-only dependency: it is the oracle here and nowhere in the
package.  Every comparison covers indptr, indices, the dtype and the bytes
of the data, so the sign of a zero part counts too.
"""

import functools
import operator

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirep import sparse

DTYPES = (np.int64, np.float64, np.complex128)

_FLOATS = st.one_of(
    st.sampled_from([1.0, -1.0, 0.1, -0.3, 1 / 3, 2.5, 1e-17, -7e15]),
    st.builds(lambda x, neg: -x if neg else x, st.floats(1e-8, 1e8), st.booleans()),
)
# parts of +-0.0 exercise the sign rules of complex products and sums
_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), _FLOATS)


def _values(dtype):
    if dtype is np.int64:
        return st.integers(-3, 3).filter(bool)
    if dtype is np.float64:
        return _FLOATS
    return st.builds(complex, _PARTS, _PARTS).filter(bool)


@st.composite
def _scipy_csr(draw, rows=None, cols=None, dtype=None):
    """A canonical scipy CSR matrix: sorted, no duplicates, no stored zeros."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    dtype = draw(st.sampled_from(DTYPES)) if dtype is None else dtype
    cells = draw(st.sets(st.tuples(st.integers(0, max(rows - 1, 0)),
                                   st.integers(0, max(cols - 1, 0))),
                         max_size=rows * cols)) if rows and cols else set()
    cells = sorted(cells)
    values = draw(st.lists(_values(dtype), min_size=len(cells), max_size=len(cells)))
    mat = sp.csr_matrix(
        (np.array(values, dtype=dtype), ([r for r, _ in cells], [c for _, c in cells])),
        shape=(rows, cols),
    )
    mat.sort_indices()
    return mat


def _ours(mat):
    return sparse.CSR(mat.data, mat.indices, mat.indptr, mat.shape)


def _assert_same(ours, theirs):
    theirs = sp.csr_matrix(theirs)
    theirs.sort_indices()
    assert ours.shape == theirs.shape
    assert ours.dtype == theirs.dtype
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert ours.data.tobytes() == theirs.data.tobytes()


_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)


@_SETTINGS
@given(st.data(), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_matmul_matches_scipy(data, rows, inner, cols):
    a = data.draw(_scipy_csr(rows, inner))
    b = data.draw(_scipy_csr(inner, cols))
    _assert_same(sparse.matmul(_ours(a), _ours(b)), a @ b)


@pytest.mark.parametrize("dtype", DTYPES)
def test_matmul_of_long_rows_matches_scipy(dtype):
    # many terms per output entry, so the summation order shows in the bits
    rng = np.random.default_rng(7)
    a, b = (sp.random(40, 40, density=0.5, random_state=rng, format="csr") for _ in "ab")
    for mat in (a, b):
        if dtype is np.int64:
            mat.data = rng.integers(-9, 10, mat.nnz).astype(float)
        elif dtype is np.complex128:
            mat.data = mat.data - 0.5 + 1j * rng.standard_normal(mat.nnz)
    a, b = a.astype(dtype), b.astype(dtype)
    a.eliminate_zeros()
    b.eliminate_zeros()
    _assert_same(sparse.matmul(_ours(a), _ours(b)), a @ b)


@_SETTINGS
@given(st.data(), st.integers(0, 6), st.integers(0, 6))
def test_add_and_subtract_match_scipy(data, rows, cols):
    a = data.draw(_scipy_csr(rows, cols))
    b = data.draw(_scipy_csr(rows, cols))
    _assert_same(sparse.add(_ours(a), _ours(b)), a + b)
    _assert_same(sparse.subtract(_ours(a), _ours(b)), a - b)


@_SETTINGS
@given(st.data(), st.integers(0, 6), st.integers(0, 6))
def test_row_selection_stacking_and_transpose_match_scipy(data, rows, cols):
    a = data.draw(_scipy_csr(rows, cols))
    b = data.draw(_scipy_csr(cols=cols))
    start, stop = sorted(data.draw(st.lists(st.integers(0, rows), min_size=2, max_size=2)))
    _assert_same(sparse.take_rows(_ours(a), slice(start, stop)), a[start:stop])
    _assert_same(sparse.vstack([_ours(a), _ours(b)]), sp.vstack([a, b], format="csr"))
    _assert_same(sparse.conj_transpose(_ours(a)), a.conj().T)
    dense = sparse.toarray(_ours(a))
    assert dense.dtype == a.dtype and dense.tobytes() == a.toarray().tobytes()
    assert sparse.diagonal(_ours(a)).tobytes() == a.diagonal().tobytes()
    _assert_same(sparse.from_dense(dense), sp.csr_matrix(dense))


@_SETTINGS
@given(st.data(), st.integers(1, 5), st.integers(1, 5), st.sampled_from(DTYPES))
def test_from_triplets_sums_each_place_in_input_order(data, rows, cols, dtype):
    count = data.draw(st.integers(0, 12))
    r = data.draw(st.lists(st.integers(0, rows - 1), min_size=count, max_size=count))
    c = data.draw(st.lists(st.integers(0, cols - 1), min_size=count, max_size=count))
    vals = np.array(data.draw(st.lists(_values(dtype), min_size=count, max_size=count)),
                    dtype=dtype)
    got = sparse.from_triplets(r, c, vals, (rows, cols))
    # scipy sums duplicates in the order of an unstable sort, so the values
    # are summed here, from zero in input order, and scipy only places them
    places = {}
    for t, place in enumerate(zip(r, c)):
        places[place] = places.get(place, dtype(0)) + vals[t]
    places = {place: v for place, v in places.items() if v != 0}
    want = sp.csr_matrix(
        (np.array(list(places.values()), dtype=dtype),
         ([p for p, _ in places], [q for _, q in places])),
        shape=(rows, cols),
    )
    _assert_same(got, want)
    if dtype is np.int64:  # exact in any order
        want = sp.coo_matrix((vals, (r, c)), shape=(rows, cols)).tocsr()
        want.eliminate_zeros()
        _assert_same(got, want)


def test_from_triplets_sums_from_zero_in_input_order():
    # 0 + 1e16 + 1 + 1 rounds each step; any other order or grouping gives more
    vals = np.array([1e16, 1.0, 1.0])
    got = sparse.from_triplets([0, 0, 0], [0, 0, 0], vals, (1, 1))
    assert got.data.tolist() == [functools.reduce(operator.add, vals.tolist(), 0.0)] == [1e16]
    # -0.0 alone sums to +0.0 and is dropped
    assert sparse.from_triplets([0], [0], np.array([-0.0]), (1, 1)).nnz == 0
    # keys too large to carry their positions in the low bits take the
    # stable argsort, with the same order of summation
    keys = np.array([2**62, 3, 2**62, 3, 2**62])
    vals = np.array([1e16, 1.0, 1.0, 2.0, 1.0])
    places, sums = sparse._summed(keys.copy(), vals)
    assert places.tolist() == [3, 2**62] and sums.tolist() == [3.0, 1e16]


def test_records_are_read_only_views():
    data = np.array([1.0, 2.0])
    mat = sparse.CSR(data, np.array([0, 1]), np.array([0, 1, 2]), (2, 2))
    with pytest.raises(ValueError, match="read-only"):
        mat.data[0] = 5.0
    data[0] = 3.0  # the caller's array stays writable
    assert mat.data[0] == 3.0
    with pytest.raises(ValueError):
        sparse.CSR(data, np.array([0]), np.array([0, 1, 2]), (2, 2))
