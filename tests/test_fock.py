import warnings

import numpy as np
import pytest

from fermirep import fock
from fermirep.errors import CapacityError
from fermirep.fock import FockOperator, OccupationState


def test_basis_ordering_three_modes():
    basis = fock.build_basis(3)
    assert [s.occupied() for s in basis] == [
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
    basis = fock.build_basis(1)
    assert [s.bits for s in basis] == [(0,), (1,)]


def test_basis_endpoints():
    basis = fock.build_basis(5)
    assert basis[0].particle_count() == 0
    assert basis[2**5 - 1].particle_count() == 5


def test_basis_four_mode_pair_sector():
    basis = fock.build_basis(4)
    pairs = [basis[k].occupied() for k in basis.sector_range(2)]
    assert pairs == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_basis_states_unique():
    basis = fock.build_basis(5)
    assert len({s.bits for s in basis}) == 2**5


def test_capacity_errors(monkeypatch):
    with pytest.raises(CapacityError):
        fock.build_basis(0)
    with pytest.raises(CapacityError):
        fock.build_basis(15)
    monkeypatch.setenv(fock.CAP_ENV_VAR, "4")
    with pytest.raises(CapacityError):
        fock.build_basis(5)
    assert fock.build_basis(4).modes == 4
    monkeypatch.setenv(fock.CAP_ENV_VAR, "junk")
    with pytest.raises(CapacityError):
        fock.build_basis(2)


def test_occupation_state_validation():
    with pytest.raises(ValueError):
        OccupationState((0, 2))
    with pytest.raises(ValueError):
        OccupationState.from_occupied(3, [1, 1])
    s = OccupationState.from_occupied(4, [2, 4])
    assert s.bits == (0, 1, 0, 1)
    assert s.particle_count() == 2
    assert str(s) == "|0101>"


def test_annihilation_single_mode():
    a = fock.annihilation(1, 1)
    assert a.entries() == {(0, 1): 1}


def test_annihilation_sign_two_modes():
    # a_2 on the doubly occupied state passes one occupied mode: sign -1
    basis = fock.build_basis(2)
    a2 = fock.annihilation(2, 2)
    col = basis.index_of((1, 1))
    row = basis.index_of((1, 0))
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
    basis = fock.build_basis(2)
    col = fock.creation(2, 1).to_dense()[:, 0]
    assert col[basis.index_of((1, 0))] == 1
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
    basis = fock.build_basis(4)
    counts = [s.particle_count() for s in basis]
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
