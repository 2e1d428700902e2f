import contextlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirep import fock, liealg, schwinger, sparse
from fermirep.errors import CapacityError, DegeneracyError, ValidationError
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
    rep = schwinger.standard_rep([m / 2 for m in g], 2)
    # basis position of the state with mode 1 occupied (mask 1), and mode 2 (mask 2)
    one, two = (fock.build_basis(2).tolist().index(mask) for mask in (1, 2))
    j3 = rep[2].to_dense()
    assert np.allclose(np.diag(j3), [0, 0.5, -0.5, 0])
    j1 = rep[0].to_dense()
    assert j1[one, two] == 0.5
    assert j1[two, one] == 0.5


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


def _tall(flat, n):
    """A record of operators on n modes read as their (k * 2^n, 2^n) stack."""
    return sparse.reshape(flat, (flat.shape[0] << n, 1 << n))


def _identity_bilinears(n):
    """rho(e_ab) = a+_a a_b for every a, b, row-major, from identity rows,
    as their stack."""
    return _tall(schwinger._bilinears(sparse.from_dense(np.eye(n * n)), n), n)


def test_bilinears_of_identity_rows_are_the_ladder_products():
    for n in range(1, 8):
        modes = range(1, n + 1)
        products = [schwinger._bilinear(n, a, b).mat for a in modes for b in modes]
        got, want = _identity_bilinears(n), sparse.vstack(products)
        assert got.dtype == np.complex128 and want.dtype == np.int64
        for field in ("indptr", "indices"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (n, field)
        # byte comparison, so every imaginary part is +0.0
        assert got.data.tobytes() == want.data.astype(np.complex128).tobytes(), n


def test_bilinears_need_no_numpy_2_popcount(monkeypatch):
    # pyproject.toml admits numpy 1.x, which has no np.bitwise_count
    monkeypatch.delattr(np, "bitwise_count")
    for n in range(1, 9):
        modes = range(1, n + 1)
        products = [(fock.creation(n, a) @ fock.annihilation(n, b)).mat for a in modes for b in modes]
        got, want = _identity_bilinears(n), sparse.vstack(products)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (n, field)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.integers(1, 6), count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_bilinears_on_some_sectors_are_those_rows_of_all_of_them(n, count, seed, data):
    rng = np.random.default_rng(seed)
    coeffs = (rng.normal(size=(count, n * n)) + 1j * rng.normal(size=(count, n * n)))
    coeffs *= rng.random((count, n * n)) < 0.6
    sectors = data.draw(st.sets(st.integers(0, n)))
    rows = sparse.from_dense(coeffs)
    whole, some = schwinger._bilinears(rows, n), schwinger._bilinears(rows, n, sectors)
    assert some.shape == whole.shape == (count, 1 << 2 * n)
    whole, some = _tall(whole, n), _tall(some, n)
    rows = np.flatnonzero(np.isin(np.tile(fock._particle_counts(n), count), list(sectors)))
    want = sparse.take_rows(whole, rows)
    got = sparse.take_rows(some, rows)
    assert some.nnz == got.nnz
    for field in ("indptr", "indices"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert got.data.tobytes() == want.data.tobytes()


def test_nssfr_un_forms_its_bilinears_on_the_kept_sectors_only(monkeypatch):
    # f(N; 1) and f(N; n - 1) vanish on sectors 2..n-2: the whole bilinears
    # would form 623,029 entries here for the 714 the result keeps
    gens, formed = liealg.generalized_gell_mann(12), []
    bilinears = schwinger._bilinears

    def counted(*args):
        out = bilinears(*args)
        formed.append(out.nnz)
        return out

    monkeypatch.setattr(schwinger, "_bilinears", counted)
    rep = schwinger.nssfr_un(gens, 12)
    # one part: one call for G's bilinears, one for its conjugate's
    assert rep.flat.nnz == 714 and sum(formed) <= 2 * rep.flat.nnz and len(formed) == 2
    monkeypatch.undo()
    tracemalloc.start()
    try:
        schwinger.nssfr_un(gens, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 4.1 MiB forming the whole bilinears; 0.76 MiB in one part as a record
    assert peak < 3.8 * 2**20


def test_standard_rep_refuses_modes_over_the_cap(monkeypatch):
    monkeypatch.setenv(fock.CAP_ENV_VAR, "3")
    gens = liealg.generalized_gell_mann(4)
    for build in (schwinger.standard_rep, schwinger.standard_parts, schwinger.nssfr_un):
        # standard_parts refuses on the call, before any part is formed
        with pytest.raises(CapacityError):
            build(gens, 4)


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
    rng = fock.sector_indices(3, 1)
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
    with_identity = liealg.GeneratorSet.create(list(gm) + [np.eye(3)])
    with pytest.raises(ValidationError):
        schwinger.nssfr_un(with_identity, 3)


def test_nssfr_needs_three_modes():
    with pytest.raises(ValueError):
        schwinger.nssfr_un(liealg.generalized_gell_mann(2), 2)


def test_nssfr_dimension_mismatch():
    with pytest.raises(ValueError):
        schwinger.nssfr_un(liealg.gell_mann(), 4)


# -- sector operators ----------------------------------------------------------


def _occupied(zeta):
    """1-based indices of the occupied modes of an occupancy tuple."""
    return tuple(i + 1 for i, bit in enumerate(zeta) if bit)


def test_sector_operators_listing_four_two():
    so = schwinger.sector_operators(4, 2)
    assert [_occupied(z) for z in so.zetas] == [
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
        # zeta read as a binary number, zeta_1 most significant
        values = [int("".join(map(str, z)), 2) for z in so.zetas]
        assert values == sorted(values, reverse=True)
        assert _occupied(so.zetas[0]) == tuple(range(1, m + 1))
        # descending binary order coincides with the canonical sector order
        masks = fock.build_basis(n)[fock.sector_indices(n, m)].tolist()
        assert [sum(bit << i for i, bit in enumerate(z)) for z in so.zetas] == masks


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
    rng = fock.sector_indices(4, 2)
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
    mixed = schwinger.mixed_rep(gens, 3, 1, 1, 0, "conjugate")
    plain = schwinger.rep_ucnm(gens, 3, 1)
    assert _max_diff(mixed, plain) == 0.0


def test_mixed_rep_same_set_reproduces_number_selective():
    # pairing a set with itself on the complementary sector gives the
    # number-selective construction: the paper's uniform approach
    for n in range(3, 9):
        gens = liealg.generalized_gell_mann(n)
        mixed = schwinger.mixed_rep(gens, n, 1, 1, 1, "same")
        assert _max_diff(mixed, schwinger.nssfr_un(gens, n)) < 1e-12, n


def test_mixed_rep_conjugate_set_reproduces_bilinear():
    # pairing with the conjugate set reproduces the bilinear representation:
    # the complementary-sector restriction of a bilinear already carries the
    # conjugation, while the unit-operator restriction is the raw matrix
    gm = liealg.gell_mann()
    mixed = schwinger.mixed_rep(gm, 3, 1, 1, 1, "conjugate")
    std = schwinger.standard_rep(gm, 3)
    assert _max_diff(mixed, std) < 1e-12


def test_rep_ucnm_hermiticity_inherited():
    gens = liealg.generalized_gell_mann(6)
    rep = schwinger.rep_ucnm(gens, 4, 2)
    assert all(op.diff_max(op.dagger()) < 1e-13 for op in rep)


def test_mixed_rep_hermiticity_inherited():
    gm = liealg.gell_mann()
    rep = schwinger.mixed_rep(gm, 3, 1, 1, 1, "conjugate")
    assert all(op.diff_max(op.dagger()) < 1e-13 for op in rep)


def test_mixed_rep_five_modes_closes():
    from fermirep import verify

    gens = liealg.generalized_gell_mann(10)
    rep = schwinger.mixed_rep(gens, 5, 2, 1, 1, "conjugate")
    sc = liealg.structure_constants(gens)
    report = verify.check_closure(rep, sc, tol=1e-10)
    assert report.overall


def _chevalley(d):
    """sl(d) in its Chevalley basis: E_ij for i != j, and H_i = E_ii - E_{i+1,i+1}.

    Real and traceless, but not Hermitian.
    """
    units = np.eye(d * d).reshape(d * d, d, d)
    mats = [units[i * d + j] for i in range(d) for j in range(d) if i != j]
    mats += [units[i * (d + 1)] - units[(i + 1) * (d + 1)] for i in range(d - 1)]
    return liealg.GeneratorSet.create(mats)


def test_conjugate_constructions_close_on_a_non_hermitian_set():
    from fermirep import verify

    for n, m in [(3, 1), (4, 1), (5, 1), (5, 2)]:
        gens = _chevalley(math.comb(n, m))
        sc = liealg.structure_constants(gens)
        reps = [schwinger.mixed_rep(gens, n, m, 1, 1, "conjugate")]
        if m == 1:
            reps.append(schwinger.nssfr_un(gens, n))
        for rep in reps:
            assert verify.check_closure(rep, sc, tol=1e-10).overall, (n, m, rep.meta.variant)


def test_mixed_rep_supported_on_two_sectors():
    gens = liealg.generalized_gell_mann(10)
    rep = schwinger.mixed_rep(gens, 5, 2, 1, 1, "conjugate")
    r2, r3 = fock.sector_indices(5, 2), fock.sector_indices(5, 3)
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
        schwinger.mixed_rep(gens4, 4, 2, 1, 1, "same")
    with pytest.raises(ValueError):
        schwinger.mixed_rep(gm, 3, 1, 0, 0, "same")
    with pytest.raises(ValueError):
        schwinger.mixed_rep(gm, 4, 1, 1, 1, "same")  # dimension 3 vs C(4,1) = 4
    for pairing in ("other", None):
        for xi in ((1, 1), (1, 0)):
            with pytest.raises(ValueError, match=f"unknown pairing {pairing!r}"):
                schwinger.mixed_rep(gm, 3, 1, *xi, pairing)


def test_representation_result_rejects_mixed_modes():
    with pytest.raises(ValueError):
        schwinger.RepresentationResult.from_ops(
            (FockOperator.zero(2), FockOperator.zero(3)),
            schwinger.RepMeta(variant="x", modes=2),
        )
    for shape in ((3, 16), (2, 4 * 4 * 4), (2 * 4, 4)):
        flat = sparse.from_triplets([], [], np.zeros(0), shape)
        with pytest.raises(ValueError, match="is not 2 operators"):
            schwinger.RepresentationResult(flat, (np.dtype(np.int64),) * 2, schwinger.RepMeta("x", 2))
    rep = schwinger.rep_ucnm(liealg.generalized_gell_mann(3), 3, 1)
    for key in (slice(0, 2), 1.0, [0, 1]):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            rep[key]
    with pytest.raises(IndexError):
        rep[8]
    assert rep[np.int64(-1)] == rep[7]


# -- one-product assembly against the term-by-term sum --------------------------


def _term_sum(coeffs, terms, n):
    """sum_t coeffs.flat[t] terms[t], one term at a time in row-major order,
    skipping zero coefficients and applying real ones as real scalars."""
    op = FockOperator.zero(n)
    for t in np.flatnonzero(coeffs):
        v = coeffs.flat[t]
        op = op + (v.real if v.imag == 0 else complex(v)) * terms[t]
    return op


def _oracle_bilinears(n):
    return [
        fock.creation(n, a) @ fock.annihilation(n, b)
        for a in range(1, n + 1) for b in range(1, n + 1)
    ]


def _oracle_units(n, m):
    ops = schwinger.sector_operators(n, m).ops
    pvac = fock.vacuum_projector(n)
    return [op_i.dagger() @ pvac @ op_j for op_i in ops for op_j in ops]


def _assert_bitwise_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.mat.dtype == b.mat.dtype
        assert a.nnz == b.nnz
        assert np.array_equal(a.mat.indptr, b.mat.indptr)
        assert np.array_equal(a.mat.indices, b.mat.indices)
        # byte comparison, so the sign of a zero part counts too
        assert a.mat.data.tobytes() == b.mat.data.tobytes()


_KINDS = ("real", "complex", "imaginary", "mixed-rows", "sparse", "zero")


def _coefficients(rng, kind, count, d):
    """count random d x d coefficient matrices, generally not traceless."""
    shape = (count, d, d)
    real = rng.standard_normal(shape)
    if kind == "real":
        return list(real)
    if kind == "imaginary":
        return list(1j * real)
    if kind == "zero":
        mats = real * (rng.random(shape) < 0.5)
        mats[0] = 0.0
        return list(mats.astype(np.complex128))
    mats = real + 1j * rng.standard_normal(shape)
    if kind == "mixed-rows":
        mats[::2] = mats[::2].real
    if kind == "sparse":
        mats *= rng.random(shape) < 0.3
        mats.imag *= rng.random(shape) < 0.5
    return list(mats)


def _conjugated(gens, rng, kind):
    """gens conjugated by a random unitary (orthogonal for real kinds) and
    scaled by a real factor, so the conjugate set keeps its constants."""
    d = gens.dim
    z = rng.standard_normal((d, d))
    if kind not in ("real", "imaginary"):
        z = z + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(z)
    scale = rng.choice([1.0, 0.3, -2.0])
    return liealg.GeneratorSet.create([scale * u @ g @ u.conj().T for g in gens])


# the default part bound (one part at these sizes), a bound of several
# parts per set, and the least bound: one part per generator
_BOUNDS = (None, 16, 1)


@contextlib.contextmanager
def _chunked(bound):
    """With a bound, that bound on the entries each part forms."""
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            mp.setattr(schwinger, "_ASSEMBLY_ENTRIES", bound)
        yield


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 4), kind=st.sampled_from(_KINDS), seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 5), bound=st.sampled_from(_BOUNDS),
)
def test_standard_rep_matches_term_sum(n, kind, seed, count, bound):
    mats = _coefficients(np.random.default_rng(seed), kind, count, n)
    with _chunked(bound):
        rep = schwinger.standard_rep(mats, n)
        parts = list(schwinger.standard_parts(mats, n))
    terms = _oracle_bilinears(n)
    _assert_bitwise_equal(rep.ops, [_term_sum(g, terms, n) for g in mats])
    # the parts are the operators in order, each labelled and typed as in the whole
    _assert_bitwise_equal([op for part in parts for op in part], rep.ops)
    assert sum((part.meta.labels for part in parts), ()) == rep.meta.labels
    assert sum((part.dtypes for part in parts), ()) == rep.dtypes
    if bound == 1:
        assert [len(part) for part in parts] == [1] * count


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    nm=st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]),
    kind=st.sampled_from(_KINDS), seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 5),
)
def test_rep_ucnm_matches_term_sum(nm, kind, seed, count):
    n, m = nm
    k = math.comb(n, m)
    mats = _coefficients(np.random.default_rng(seed), kind, count, k)
    rep = schwinger.rep_ucnm(mats, n, m)
    units = _oracle_units(n, m)
    _assert_bitwise_equal(rep.ops, [_term_sum(g, units, n) for g in mats])
    _assert_bitwise_equal(schwinger.element_operators(n, m), units)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    n=st.integers(3, 5), kind=st.sampled_from(("real", "complex", "imaginary")),
    seed=st.integers(0, 2**32 - 1), bound=st.sampled_from(_BOUNDS),
)
def test_nssfr_un_matches_term_sum(n, kind, seed, bound):
    gens = _conjugated(liealg.generalized_gell_mann(n), np.random.default_rng(seed), kind)
    with _chunked(bound):
        rep = schwinger.nssfr_un(gens, n)
    terms = _oracle_bilinears(n)
    f_low = schwinger.eval_at_number_operator(schwinger.selective_function(n, 1), n)
    f_high = schwinger.eval_at_number_operator(schwinger.selective_function(n, n - 1), n)
    conj = liealg.conjugate_rep(gens)
    expected = [
        _term_sum(g, terms, n) @ f_low + _term_sum(gc, terms, n) @ f_high
        for g, gc in zip(gens, conj)
    ]
    _assert_bitwise_equal(rep.ops, expected)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    nm=st.sampled_from([(3, 1), (4, 1), (5, 1), (5, 4)]),
    kind=st.sampled_from(("real", "complex", "imaginary")),
    seed=st.integers(0, 2**32 - 1),
    xi=st.sampled_from([(1, 1), (1, 0), (0, 1)]),
    pairing=st.sampled_from(("same", "conjugate")),
)
def test_mixed_rep_matches_term_sum(nm, kind, seed, xi, pairing):
    n, m = nm
    k = math.comb(n, m)
    gens = _conjugated(liealg.generalized_gell_mann(k), np.random.default_rng(seed), kind)
    gens2 = gens if pairing == "same" else liealg.conjugate_rep(gens)
    rep = schwinger.mixed_rep(gens, n, m, *xi, pairing)
    units_m, units_mbar = _oracle_units(n, m), _oracle_units(n, n - m)
    expected = []
    for g, g2 in zip(gens, gens2):
        op = FockOperator.zero(n)
        if xi[0]:
            op = op + _term_sum(g, units_m, n)
        if xi[1]:
            op = op + _term_sum(g2, units_mbar, n)
        expected.append(op)
    _assert_bitwise_equal(rep.ops, expected)


# -- both mixed pairings at random (n, m) ------------------------------------------


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    nm=st.sampled_from([(n, m) for n in range(3, 7) for m in range(1, n) if 2 * m != n]),
    pairing=st.sampled_from(("same", "conjugate")), seed=st.integers(0, 2**32 - 1),
)
def test_mixed_rep_sector_blocks_of_both_pairings(nm, pairing, seed):
    n, m = nm
    k = math.comb(n, m)
    gens = liealg.generalized_gell_mann(k)
    if k <= 6:
        # a rotated set is dense, and its k^3 constants grow fast beyond this
        gens = _conjugated(gens, np.random.default_rng(seed), "complex")
    second = gens if pairing == "same" else liealg.conjugate_rep(gens)
    rep = schwinger.mixed_rep(gens, n, m, 1, 1, pairing)
    low, high = fock.sector_indices(n, m), fock.sector_indices(n, n - m)
    for op, g, g2 in zip(rep, gens, second):
        dense = op.to_dense()
        assert np.max(np.abs(dense[np.ix_(low, low)] - g)) < 1e-12
        assert np.max(np.abs(dense[np.ix_(high, high)] - g2)) < 1e-12
        dense[np.ix_(low, low)] = 0
        dense[np.ix_(high, high)] = 0
        # every other sector block and every entry between sectors
        assert not dense.any()
    if m == 1 and pairing == "same":
        assert _max_diff(rep, schwinger.nssfr_un(gens, n)) < 1e-12


def test_representation_views_are_fresh_copies_of_row_blocks():
    rep = schwinger.standard_rep(liealg.gell_mann(), 3)
    dim = 8
    assert len(rep) == 8 and rep.modes == 3
    assert rep[-1] == rep[7] and rep.ops[2] == rep[2]
    with pytest.raises(IndexError):
        rep[8]
    first = rep[0]
    with pytest.raises(ValueError, match="read-only"):
        first.mat.data[:] = 0
    assert not np.shares_memory(first.mat.data, rep.flat.data)
    tall = _tall(rep.flat, 3)
    for g, op in enumerate(rep):
        assert op == FockOperator(3, sparse.take_rows(tall, slice(g * dim, (g + 1) * dim)))
    # the gell-mann set has real, imaginary and diagonal members
    assert {op.mat.dtype for op in rep} == {np.dtype(np.float64), np.dtype(np.complex128)}


def _unit_stack_from_sector_operators(n, m):
    """Q_ij = O+_i |vac><vac| O_j as the sparse products of sector_operators."""
    sector = schwinger.sector_operators(n, m)
    dim, k = 1 << n, len(sector)
    half = sparse.vstack([op.dagger().mat for op in sector.ops])
    half = sparse.matmul(half, fock.vacuum_projector(n).mat)
    # hstack(O_j) as the transpose of vstack(O_j^T); the entries are real
    wide = sparse.conj_transpose(sparse.vstack([op.dagger().mat for op in sector.ops]))
    blocks = sparse.matmul(half, wide)
    i, r = np.divmod(sparse.coo_rows(blocks), dim)
    j, c = np.divmod(blocks.indices, dim)
    return sparse.from_triplets((i * k + j) * dim + r, c, blocks.data, (k * k * dim, dim))


def test_unit_stack_equals_the_sector_operator_products():
    for n in range(2, 9):
        for m in range(1, n):
            got, want = _tall(schwinger.unit_set(n, m).flat, n), _unit_stack_from_sector_operators(n, m)
            assert got.shape == want.shape and got.dtype == want.dtype == np.int64
            for field in ("indptr", "indices", "data"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, m, field)


def test_unit_set_is_the_element_operator_list():
    units = schwinger.unit_set(4, 2)
    assert len(units) == 36 and units.meta.particles == 2
    assert all(a == b for a, b in zip(units, schwinger.element_operators(4, 2)))
    with pytest.raises(ValueError):
        schwinger.unit_set(4, 4)


# -- one record per operator set: index it, and each operator comes back --------


def _entries(op):
    """An operator's keys r * 2^n + c, value type and value bytes."""
    keys = sparse.coo_rows(op.mat) * op.dim + op.mat.indices
    return keys.tolist(), op.mat.dtype, op.mat.data.tobytes()


def _stored(rep, g):
    """Row g of rep's record as _entries reads an operator, at its own type."""
    row, dtype = sparse.take_rows(rep.flat, [g]), rep.dtypes[g]
    values = row.data if dtype.kind == "c" else row.data.real
    return row.indices.tolist(), dtype, values.astype(dtype).tobytes()


# zero parts of both signs, and integers that cancel nothing
_PARTS = [0.0, -0.0, 1.5, -2.25, 1e-300, -7.0]


@st.composite
def _operator_lists(draw):
    """Operators on n <= 6 modes of int64, float64 or complex128 entries,
    complex ones with zero parts of either sign."""
    n = draw(st.integers(1, 6))
    dim, ops = 1 << n, []
    for _ in range(draw(st.integers(1, 4))):
        places = sorted(draw(st.sets(st.integers(0, dim * dim - 1), max_size=12)))
        kind = draw(st.sampled_from(["i8", "f8", "c16"]))
        if kind == "i8":
            vals = np.array([draw(st.integers(1, 9)) * draw(st.sampled_from([-1, 1]))
                             for _ in places], np.int64)
        elif kind == "f8":
            vals = np.array([draw(st.sampled_from(_PARTS[2:])) for _ in places], np.float64)
        else:
            vals = np.array([complex(*draw(st.sampled_from(
                [(x, y) for x in _PARTS for y in _PARTS if x or y]))) for _ in places], np.complex128)
        rows, cols = np.divmod(np.array(places, np.int64), dim)
        indptr = np.searchsorted(rows, np.arange(dim + 1))
        ops.append(FockOperator(n, sparse.CSR(vals, cols, indptr, (dim, dim))))
    return ops


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_operator_lists())
def test_from_ops_then_index_gives_back_each_operator_bit_for_bit(ops):
    rep = schwinger.RepresentationResult.from_ops(ops, schwinger.RepMeta("x", ops[0].modes))
    assert rep.flat.shape == (len(ops), 1 << 2 * ops[0].modes)
    for g, op in enumerate(ops):
        assert _entries(rep[g]) == _entries(op) == _stored(rep, g)


def _built(case):
    n, m, kind = case
    ggm = liealg.generalized_gell_mann
    if kind == "standard":
        return schwinger.standard_rep(ggm(n), n)
    if kind == "nssfr":
        return schwinger.nssfr_un(ggm(n), n)
    if kind == "units":
        return schwinger.unit_set(n, m)
    if kind == "ucnm":
        return schwinger.rep_ucnm(ggm(math.comb(n, m)), n, m)
    return schwinger.mixed_rep(ggm(math.comb(n, m)), n, m, 1, 1, kind)


# every builder at n <= 6, on sectors of dimension up to 10
_BUILT = [
    *((n, None, "standard") for n in range(2, 7)),
    *((n, None, "nssfr") for n in range(3, 7)),
    *((n, m, kind) for n in range(2, 7) for m in range(1, n) if math.comb(n, m) <= 10
      for kind in ("units", "ucnm", *(schwinger.PAIRINGS if 2 * m != n else ()))),
]


@pytest.mark.parametrize("case", _BUILT, ids=[f"{k}-{n}-{m}" for n, m, k in _BUILT])
def test_every_builder_indexes_its_record_back_bit_for_bit(case):
    rep = _built(case)
    again = schwinger.RepresentationResult.from_ops(list(rep), rep.meta)
    for g in range(len(rep)):
        assert _entries(rep[g]) == _stored(rep, g) == _entries(again[g])
