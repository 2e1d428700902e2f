import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirep import fock, sparse
from fermirep.errors import CapacityError
from fermirep.fock import FockOperator


def _oracle_masks(n):
    """The basis order by its definition, apart from fock: sectors by particle
    count, each in ascending lexicographic order of occupied modes."""
    return [
        sum(1 << (i - 1) for i in occ)
        for m in range(n + 1)
        for occ in combinations(range(1, n + 1), m)
    ]


def _occupied(mask, n):
    return tuple(i for i in range(1, n + 1) if mask >> (i - 1) & 1)


def test_basis_ordering_three_modes():
    basis = fock.build_basis(3)
    assert [_occupied(mask, 3) for mask in basis.tolist()] == [
        (),
        (1,),
        (2,),
        (3,),
        (1, 2),
        (1, 3),
        (2, 3),
        (1, 2, 3),
    ]


def test_basis_single_mode():
    assert fock.build_basis(1).tolist() == [0, 1]


def test_basis_endpoints():
    basis = fock.build_basis(5)
    assert basis[0] == 0
    assert basis[2**5 - 1] == 2**5 - 1


def test_basis_four_mode_pair_sector():
    masks = fock.build_basis(4)[fock.sector_indices(4, 2)].tolist()
    pairs = [_occupied(mask, 4) for mask in masks]
    assert pairs == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=10))
def test_basis_array_is_the_one_bitmask_table(n):
    masks = fock.build_basis(n)
    assert masks.dtype == np.int64
    assert masks.tolist() == _oracle_masks(n)
    positions = fock._state_positions(n)
    assert positions[masks].tolist() == list(range(1 << n))
    counts = fock._particle_counts(n)
    assert counts.tolist() == [bin(mask).count("1") for mask in masks.tolist()]
    for m in range(n + 1):
        # the states of count m, which must be one contiguous run
        run = np.flatnonzero(counts == m).tolist()
        assert run == list(range(run[0], run[0] + math.comb(n, m)))
        assert fock.sector_indices(n, m) == run
    for cached in (masks, positions):
        with pytest.raises(ValueError):
            cached[0] = cached[0]


def test_state_positions_index_the_basis_by_bitmask():
    for n in range(1, 8):
        masks = fock.build_basis(n)
        assert fock._state_positions(n)[masks].tolist() == list(range(1 << n))


def _annihilation_over_basis_states(n, i):
    """a_i built state by state from the oracle's bitmask list."""
    masks = _oracle_masks(n)
    index = {mask: k for k, mask in enumerate(masks)}
    bit = 1 << (i - 1)
    rows, cols, vals = [], [], []
    for col, mask in enumerate(masks):
        if mask & bit:
            rows.append(index[mask ^ bit])
            cols.append(col)
            vals.append(-1 if bin(mask & (bit - 1)).count("1") % 2 else 1)
    mat = sparse.from_triplets(rows, cols, np.array(vals, dtype=np.int64), (1 << n,) * 2)
    return FockOperator(n, mat)


def test_ladders_from_bitmasks_equal_the_basis_state_loop():
    for n in range(1, 13):
        for i in range(1, n + 1):
            got, want = fock.annihilation(n, i).mat, _annihilation_over_basis_states(n, i).mat
            assert got.dtype == want.dtype == np.int64
            for field in ("indptr", "indices", "data"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, i, field)


def test_basis_states_unique():
    basis = fock.build_basis(5)
    assert len(set(basis.tolist())) == 2**5


def test_capacity_errors(monkeypatch):
    with pytest.raises(CapacityError):
        fock.build_basis(0)
    with pytest.raises(CapacityError):
        fock.build_basis(15)
    monkeypatch.setenv(fock.CAP_ENV_VAR, "4")
    with pytest.raises(CapacityError):
        fock.build_basis(5)
    assert len(fock.build_basis(4)) == 2**4
    monkeypatch.setenv(fock.CAP_ENV_VAR, "junk")
    with pytest.raises(CapacityError):
        fock.build_basis(2)


def test_annihilation_single_mode():
    a = fock.annihilation(1, 1)
    assert a.entries() == {(0, 1): 1}


def test_annihilation_sign_two_modes():
    # a_2 on the doubly occupied state passes one occupied mode: sign -1
    basis = fock.build_basis(2).tolist()
    a2 = fock.annihilation(2, 2)
    col = basis.index(0b11)
    row = basis.index(0b01)
    assert a2.entries()[(row, col)] == -1


def test_ladder_nilpotent():
    for n, i in [(1, 1), (3, 2), (4, 4)]:
        a = fock.annihilation(n, i)
        assert (a @ a).nnz == 0
        c = fock.creation(n, i)
        assert (c @ c).nnz == 0


def test_creation_is_adjoint():
    for n in (1, 2, 3, 4):
        for i in range(1, n + 1):
            assert fock.creation(n, i) == fock.annihilation(n, i).dagger()


def test_creation_on_vacuum():
    basis = fock.build_basis(2).tolist()
    col = fock.creation(2, 1).to_dense()[:, 0]
    assert col[basis.index(0b01)] == 1
    assert np.count_nonzero(col) == 1


def test_ladder_sparsity_pattern():
    for n in (1, 2, 3, 5):
        for i in range(1, n + 1):
            a = fock.annihilation(n, i)
            assert a.nnz == 2 ** (n - 1)
            assert set(np.unique(np.abs(a.mat.data))) == {1}


def test_mode_index_errors():
    with pytest.raises(ValueError):
        fock.annihilation(3, 0)
    with pytest.raises(ValueError):
        fock.annihilation(3, 4)
    with pytest.raises(ValueError):
        fock.number_operator(2, 3)


def test_number_operator_diagonal():
    n1 = fock.number_operator(2, 1)
    assert np.allclose(np.diag(n1.to_dense()), [0, 1, 0, 1])


def test_total_number_diagonal_three_modes():
    nt = fock.total_number(3)
    assert np.allclose(np.diag(nt.to_dense()), [0, 1, 1, 1, 2, 2, 2, 3])


def test_total_number_trace():
    for n in (1, 2, 3, 6):
        assert fock.total_number(n).trace() == n * 2 ** (n - 1)


def test_total_number_eigenvalue_multiplicities():
    nt = np.real(np.diag(fock.total_number(4).to_dense()))
    for m in range(5):
        assert np.count_nonzero(nt == m) == fock.sector_dimension(4, m)


def test_anticommutation_exact():
    for n in (1, 2, 3, 4, 5):
        eye = FockOperator.identity(n)
        zero = FockOperator.zero(n)
        for i in range(1, n + 1):
            ai = fock.annihilation(n, i)
            ci = fock.creation(n, i)
            for j in range(1, n + 1):
                aj = fock.annihilation(n, j)
                cj = fock.creation(n, j)
                assert ai.anticommutator(aj).max_abs() == 0.0
                assert ci.anticommutator(cj).max_abs() == 0.0
                expected = eye if i == j else zero
                assert (ai.anticommutator(cj) - expected).max_abs() == 0.0


def test_total_number_commutes_with_bilinears():
    nt = fock.total_number(3)
    for i in range(1, 4):
        for j in range(1, 4):
            q = fock.creation(3, i) @ fock.annihilation(3, j)
            assert q.commutator(nt).max_abs() == 0.0


def test_sector_indices_partition():
    for n in (2, 4, 5):
        seen = []
        for m in range(n + 1):
            idx = fock.sector_indices(n, m)
            assert len(idx) == fock.sector_dimension(n, m)
            seen.extend(idx)
        assert seen == list(range(2**n))
    assert fock.sector_indices(3, 0) == [0]
    assert len(fock.sector_indices(4, 2)) == 6


def test_sector_index_errors():
    with pytest.raises(ValueError):
        fock.sector_indices(3, -1)
    with pytest.raises(ValueError):
        fock.sector_indices(3, 4)


def test_number_conserving_block_pattern():
    # with the canonical ordering, bilinears connect only equal-count states
    counts = [bin(mask).count("1") for mask in fock.build_basis(4).tolist()]
    q = fock.creation(4, 2) @ fock.annihilation(4, 3)
    for (r, c), _ in q.entries().items():
        assert counts[r] == counts[c]


def test_operator_mode_mismatch():
    a = fock.annihilation(2, 1)
    b = fock.annihilation(3, 1)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        _ = a @ b
    with pytest.raises(TypeError):
        _ = a * b
    with pytest.raises(TypeError, match="sparse.CSR"):
        FockOperator(1, np.eye(2))


def test_from_entries_validation():
    with pytest.raises(ValueError):
        FockOperator.from_entries(1, {(0, 2): 1})
    op = FockOperator.from_entries(2, {(0, 3): 2, (3, 0): -1})
    assert op.entries() == {(0, 3): 2, (3, 0): -1}


def test_canonical_form_drops_zeros():
    op = FockOperator.from_entries(2, {(0, 1): 1})
    diff = op - op
    assert diff.nnz == 0
    assert diff.max_abs() == 0.0


def test_vacuum_projector():
    p = fock.vacuum_projector(3)
    assert p.entries() == {(0, 0): 1}
    assert (p @ p) == p


def test_number_operators_are_exact_int64():
    assert fock.number_operator(3, 1).mat.dtype == np.int64
    assert fock.total_number(3).mat.dtype == np.int64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fock.number_operator(3, 2).mat.dtype == np.int64
        assert FockOperator.diagonal(1, [0, 2]).mat.dtype == np.int64
        assert FockOperator.diagonal(1, [0.5, 2.0]).mat.dtype == np.complex128
        assert FockOperator.diagonal(1, [1j, 2]).mat.dtype == np.complex128
