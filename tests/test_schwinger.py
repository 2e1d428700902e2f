import math
from fractions import Fraction

import numpy as np
import pytest

from fermirep import fock, liealg, schwinger
from fermirep.errors import DegeneracyError, ValidationError
from fermirep.fock import FockOperator


def _max_diff(rep_a, rep_b):
    return max(a.diff_max(b) for a, b in zip(rep_a, rep_b))


# -- selective polynomials ---------------------------------------------------


def test_selective_printed_values():
    f31 = schwinger.selective_function(3, 1)
    f32 = schwinger.selective_function(3, 2)
    f42 = schwinger.selective_function(4, 2)
    assert f31.coeffs == (Fraction(2), Fraction(-1))
    assert f32.coeffs == (Fraction(-1), Fraction(1))
    assert f42.coeffs == (Fraction(-3), Fraction(4), Fraction(-1))
    assert str(f31) == "-x + 2"
    assert str(f32) == "x - 1"
    assert str(f42) == "-x^2 + 4x - 3"


def test_selective_degree_and_fractions():
    f52 = schwinger.selective_function(5, 2)
    assert f52.degree == 3
    # (x-1)(x-3)(x-4)/2
    assert f52.evaluate(2) == 1
    assert f52.evaluate(Fraction(1, 2)) == Fraction(-1, 2) * Fraction(-5, 2) * Fraction(-7, 2) / 2


def test_selective_selectivity_exact_to_ten_modes():
    for n in range(2, 11):
        for m in range(1, n):
            f = schwinger.selective_function(n, m)
            for k in range(1, n):
                assert f.evaluate(k) == (1 if k == m else 0)


def test_selective_domain_errors():
    with pytest.raises(ValueError):
        schwinger.selective_function(1, 1)
    with pytest.raises(ValueError):
        schwinger.selective_function(4, 0)
    with pytest.raises(ValueError):
        schwinger.selective_function(4, 4)


def test_eval_at_number_operator_diagonal():
    f31 = schwinger.selective_function(3, 1)
    d = schwinger.eval_at_number_operator(f31, 3)
    assert np.allclose(np.diag(d.to_dense()), [2, 1, 1, 1, 0, 0, 0, -1])


def test_eval_at_number_operator_sector_action():
    f42 = schwinger.selective_function(4, 2)
    d = schwinger.eval_at_number_operator(f42, 4).to_dense()
    for k in fock.sector_indices(4, 2):
        assert d[k, k] == 1
    for m in (1, 3):
        for k in fock.sector_indices(4, m):
            assert d[k, k] == 0


def test_eval_at_number_operator_constant_one():
    # two modes leave an empty product: the polynomial is the constant 1
    f21 = schwinger.selective_function(2, 1)
    assert f21.coeffs == (Fraction(1),)
    assert schwinger.eval_at_number_operator(f21, 2) == FockOperator.identity(2)


def test_eval_at_number_operator_mode_mismatch():
    f31 = schwinger.selective_function(3, 1)
    with pytest.raises(ValueError):
        schwinger.eval_at_number_operator(f31, 4)


# -- bilinear representation -------------------------------------------------


def test_standard_rep_pauli_half_two_modes():
    g = liealg.generalized_gell_mann(2)
    rep = schwinger.standard_rep([m / 2 for m in g.mats], 2)
    b = fock.build_basis(2)
    j3 = rep[2].to_dense()
    assert np.allclose(np.diag(j3), [0, 0.5, -0.5, 0])
    j1 = rep[0].to_dense()
    assert j1[b.index_of((1, 0)), b.index_of((0, 1))] == 0.5
    assert j1[b.index_of((0, 1)), b.index_of((1, 0))] == 0.5


def test_standard_rep_spin1_three_modes():
    sp = liealg.spin1_matrices()
    rep = schwinger.standard_rep(sp, 3)
    s = math.sqrt(2)
    b12 = fock.creation(3, 1) @ fock.annihilation(3, 2)
    b23 = fock.creation(3, 2) @ fock.annihilation(3, 3)
    expected = s * b12 + s * b23
    assert rep[0].diff_max(expected) < 1e-15
    n1 = fock.number_operator(3, 1)
    n3 = fock.number_operator(3, 3)
    assert rep[2].diff_max(n1 - n3) < 1e-15


def test_standard_rep_zero_generator():
    rep = schwinger.standard_rep([np.zeros((3, 3))], 3)
    assert rep[0].nnz == 0


def test_standard_rep_dimension_mismatch():
    with pytest.raises(ValueError):
        schwinger.standard_rep(liealg.gell_mann(), 4)


def test_standard_rep_commutes_with_number():
    rep = schwinger.standard_rep(liealg.generalized_gell_mann(4), 4)
    nt = fock.total_number(4)
    assert all(op.commutator(nt).max_abs() < 1e-12 for op in rep)


def test_standard_rep_hermiticity_inherited():
    rep = schwinger.standard_rep(liealg.gell_mann(), 3)
    assert all(op.diff_max(op.dagger()) < 1e-14 for op in rep)


# -- number-selective representation ------------------------------------------


def test_nssfr_explicit_single_particle_block():
    rep = schwinger.nssfr_u3_explicit()
    gm = liealg.gell_mann()
    rng = fock.build_basis(3).sector_range(1)
    for op, lam in zip(rep, gm):
        block = op.to_dense()[np.ix_(rng, rng)]
        assert np.max(np.abs(block - lam)) < 1e-13


def test_nssfr_explicit_kills_vacuum_and_full():
    for op in schwinger.nssfr_u3_explicit():
        dense = op.to_dense()
        assert np.max(np.abs(dense[0, :])) < 1e-14
        assert np.max(np.abs(dense[:, 0])) < 1e-14
        assert np.max(np.abs(dense[7, :])) < 1e-14
        assert np.max(np.abs(dense[:, 7])) < 1e-14


def test_nssfr_explicit_diagonal_member():
    lam8 = schwinger.nssfr_u3_explicit()[7]
    s3 = math.sqrt(3)
    assert np.allclose(
        np.diag(lam8.to_dense()),
        np.array([0, 1, 1, -2, 1, 1, -2, 0]) / s3,
    )


def test_nssfr_uniform_equals_explicit():
    uniform = schwinger.nssfr_un(liealg.gell_mann(), 3)
    explicit = schwinger.nssfr_u3_explicit()
    assert _max_diff(uniform, explicit) < 1e-12


def test_nssfr_uniform_hermitian():
    rep = schwinger.nssfr_un(liealg.generalized_gell_mann(4), 4)
    assert all(op.diff_max(op.dagger()) < 1e-13 for op in rep)


def test_nssfr_four_modes_commutes_with_number():
    rep = schwinger.nssfr_un(liealg.generalized_gell_mann(4), 4)
    nt = fock.total_number(4)
    assert all(op.commutator(nt).max_abs() < 1e-12 for op in rep)


def test_nssfr_rejects_non_traceless():
    gm = liealg.gell_mann()
    with_identity = liealg.GeneratorSet.create(list(gm.mats) + [np.eye(3)])
    with pytest.raises(ValidationError):
        schwinger.nssfr_un(with_identity, 3)


def test_nssfr_needs_three_modes():
    with pytest.raises(ValueError):
        schwinger.nssfr_un(liealg.generalized_gell_mann(2), 2)


def test_nssfr_dimension_mismatch():
    with pytest.raises(ValueError):
        schwinger.nssfr_un(liealg.gell_mann(), 4)


# -- sector operators ----------------------------------------------------------


def test_sector_operators_listing_four_two():
    so = schwinger.sector_operators(4, 2)
    assert [z.occupied() for z in so.zetas] == [
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 4),
    ]
    # O_1 = a_2 a_1
    expected = fock.annihilation(4, 2) @ fock.annihilation(4, 1)
    assert so.ops[0] == expected
    # O_6 = a_4 a_3
    assert so.ops[5] == fock.annihilation(4, 4) @ fock.annihilation(4, 3)


def test_sector_operators_single_particle():
    so = schwinger.sector_operators(3, 1)
    for i in range(3):
        assert so.ops[i] == fock.annihilation(3, i + 1)


def test_sector_zeta_order_is_descending_binary():
    for n, m in [(4, 2), (5, 2), (5, 3), (6, 3)]:
        so = schwinger.sector_operators(n, m)
        values = [z.binary_value() for z in so.zetas]
        assert values == sorted(values, reverse=True)
        assert so.zetas[0].occupied() == tuple(range(1, m + 1))
        # descending binary order coincides with the canonical sector order
        idx = fock.sector_indices(n, m)
        basis = fock.build_basis(n)
        assert [z.occupied() for z in so.zetas] == [basis[k].occupied() for k in idx]


def test_sector_vacuum_images_orthonormal():
    so = schwinger.sector_operators(4, 2)
    vecs = [op.dagger().to_dense()[:, 0] for op in so.ops]
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    assert np.allclose(gram, np.eye(6))


def test_sector_operators_domain():
    with pytest.raises(ValueError):
        schwinger.sector_operators(3, 4)
    empty = schwinger.sector_operators(3, 0)
    assert len(empty) == 1 and empty.ops[0] == FockOperator.identity(3)


# -- sector unit operators ------------------------------------------------------


def test_element_operators_are_exact_outer_products():
    for n, m in [(3, 1), (3, 2), (4, 2)]:
        units = schwinger.element_operators(n, m)
        idx = fock.sector_indices(n, m)
        k = len(idx)
        for i in range(k):
            for j in range(k):
                expected = FockOperator.from_entries(n, {(idx[i], idx[j]): 1})
                assert units[i * k + j] == expected


def test_element_operators_projectors():
    units = schwinger.element_operators(4, 2)
    k = 6
    for i in range(k):
        q = units[i * k + i]
        assert (q @ q) == q
        assert q.trace() == 1


def test_element_operators_commute_with_number():
    units = schwinger.element_operators(4, 2)
    nt = fock.total_number(4)
    assert all(q.commutator(nt).max_abs() == 0.0 for q in units)


def test_element_operators_fresh_list_per_call():
    first = schwinger.element_operators(3, 1)
    first[1] = 2 * first[1]
    first.pop()
    second = schwinger.element_operators(3, 1)
    assert second is not first and len(second) == 9
    idx = fock.sector_indices(3, 1)
    assert second[1] == FockOperator.from_entries(3, {(idx[0], idx[1]): 1})


def test_element_operators_domain_errors():
    with pytest.raises(ValueError):
        schwinger.element_operators(4, 0)
    with pytest.raises(ValueError):
        schwinger.element_operators(4, 4)


def test_number_composition_leaves_full_state_remnant():
    """Composing O+_i O_i with the selective factor is NOT the outer product.

    The product O+_i O_i acts as the identity on the fully occupied state,
    and the selective polynomial does not vanish at x = n, so the diagonal
    compositions keep a remnant there.  This is why the unit operators are
    built through the vacuum projector instead.
    """
    n, m = 4, 2
    so = schwinger.sector_operators(n, m)
    f = schwinger.selective_function(n, m)
    f_n = schwinger.eval_at_number_operator(f, n)
    idx = fock.sector_indices(n, m)
    full = 2**n - 1
    for i, op in enumerate(so.ops):
        composed = op.dagger() @ op @ f_n
        outer = FockOperator.from_entries(n, {(idx[i], idx[i]): 1})
        remnant = (composed - outer).entries()
        assert remnant == {(full, full): complex(f.evaluate(n))}


# -- sector representations -----------------------------------------------------


def test_rep_ucnm_restriction_and_support():
    gens = liealg.generalized_gell_mann(6)
    rep = schwinger.rep_ucnm(gens, 4, 2)
    basis = fock.build_basis(4)
    rng = basis.sector_range(2)
    for op, g in zip(rep, gens):
        dense = op.to_dense()
        assert np.max(np.abs(dense[np.ix_(rng, rng)] - g)) < 1e-13
        outside = dense.copy()
        outside[np.ix_(rng, rng)] = 0
        assert np.max(np.abs(outside)) == 0.0


def test_rep_ucnm_dimension_error():
    with pytest.raises(ValueError):
        schwinger.rep_ucnm(liealg.gell_mann(), 4, 2)


def test_mixed_rep_reduces_to_sector_rep():
    gens = liealg.generalized_gell_mann(3)
    gens2 = liealg.conjugate_rep(gens)
    mixed = schwinger.mixed_rep(gens, gens2, 3, 1, 1, 0)
    plain = schwinger.rep_ucnm(gens, 3, 1)
    assert _max_diff(mixed, plain) == 0.0


def test_mixed_rep_same_set_reproduces_number_selective():
    # pairing a set with itself on the complementary sector gives the
    # number-selective construction
    gm = liealg.gell_mann()
    mixed = schwinger.mixed_rep(gm, gm, 3, 1, 1, 1)
    nssfr = schwinger.nssfr_un(gm, 3)
    assert _max_diff(mixed, nssfr) < 1e-12


def test_mixed_rep_conjugate_set_reproduces_bilinear():
    # pairing with the conjugate set reproduces the bilinear representation:
    # the complementary-sector restriction of a bilinear already carries the
    # conjugation, while the unit-operator restriction is the raw matrix
    gm = liealg.gell_mann()
    mixed = schwinger.mixed_rep(gm, liealg.conjugate_rep(gm), 3, 1, 1, 1)
    std = schwinger.standard_rep(gm, 3)
    assert _max_diff(mixed, std) < 1e-12


def test_rep_ucnm_hermiticity_inherited():
    gens = liealg.generalized_gell_mann(6)
    rep = schwinger.rep_ucnm(gens, 4, 2)
    assert all(op.diff_max(op.dagger()) < 1e-13 for op in rep)


def test_mixed_rep_hermiticity_inherited():
    gm = liealg.gell_mann()
    rep = schwinger.mixed_rep(gm, liealg.conjugate_rep(gm), 3, 1, 1, 1)
    assert all(op.diff_max(op.dagger()) < 1e-13 for op in rep)


def test_mixed_rep_five_modes_closes():
    from fermirep import verify

    gens = liealg.generalized_gell_mann(10)
    rep = schwinger.mixed_rep(gens, liealg.conjugate_rep(gens), 5, 2, 1, 1)
    sc = liealg.structure_constants(gens)
    report = verify.check_closure(rep, sc, tol=1e-10)
    assert report.overall


def test_mixed_rep_supported_on_two_sectors():
    gens = liealg.generalized_gell_mann(10)
    rep = schwinger.mixed_rep(gens, liealg.conjugate_rep(gens), 5, 2, 1, 1)
    basis = fock.build_basis(5)
    r2, r3 = basis.sector_range(2), basis.sector_range(3)
    for op in rep.ops[:5]:
        dense = op.to_dense()
        outside = dense.copy()
        outside[np.ix_(r2, r2)] = 0
        outside[np.ix_(r3, r3)] = 0
        assert np.max(np.abs(outside)) == 0.0


def test_mixed_rep_errors():
    gm = liealg.gell_mann()
    gens4 = liealg.generalized_gell_mann(4)
    with pytest.raises(DegeneracyError):
        schwinger.mixed_rep(gens4, gens4, 4, 2, 1, 1)
    with pytest.raises(ValueError):
        schwinger.mixed_rep(gm, gm, 3, 1, 0, 0)
    with pytest.raises(ValueError):
        schwinger.mixed_rep(gm, gm, 4, 1, 1, 1)  # dimension 3 vs C(4,1) = 4
    scaled = liealg.GeneratorSet.create([2 * m for m in gm.mats])
    with pytest.raises(ValidationError):
        schwinger.mixed_rep(gm, scaled, 3, 1, 1, 1)


def test_representation_result_rejects_mixed_modes():
    with pytest.raises(ValueError):
        schwinger.RepresentationResult(
            (FockOperator.zero(2), FockOperator.zero(3)),
            schwinger.RepMeta(variant="x", modes=2),
        )
