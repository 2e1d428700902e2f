import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirep import liealg, sparse
from fermirep.errors import ClosureError, DependenceError


def test_gell_mann_basics():
    gm = liealg.gell_mann()
    assert len(gm) == 8
    assert gm.dim == 3
    assert np.allclose(gm[2], np.diag([1, -1, 0]))
    for mat in gm:
        assert abs(np.trace(mat)) < 1e-14
        assert np.allclose(mat, mat.conj().T)


def test_gell_mann_trace_orthogonality():
    gm = liealg.gell_mann()
    for a in range(8):
        for b in range(8):
            tr = np.trace(gm[a] @ gm[b])
            assert abs(tr - (2.0 if a == b else 0.0)) < 1e-13


def test_generalized_d2_is_pauli():
    g = liealg.generalized_gell_mann(2)
    assert np.allclose(g[0], [[0, 1], [1, 0]])
    assert np.allclose(g[1], [[0, -1j], [1j, 0]])
    assert np.allclose(g[2], [[1, 0], [0, -1]])


def test_generalized_d3_matches_gell_mann():
    gm = liealg.gell_mann()
    g3 = liealg.generalized_gell_mann(3)
    for a, b in zip(g3, gm):
        assert np.max(np.abs(a - b)) == 0.0


def test_generalized_d6_count_traceless_orthogonal():
    g = liealg.generalized_gell_mann(6)
    assert len(g) == 35
    stack = np.stack(list(g))
    assert np.max(np.abs(np.einsum("aii->a", stack))) < 1e-13
    gram = np.einsum("aij,bji->ab", stack, stack)
    assert np.max(np.abs(gram - 2 * np.eye(35))) < 1e-12


def test_generalized_bad_dimension():
    with pytest.raises(ValueError):
        liealg.generalized_gell_mann(1)


def _record(gens):
    """A set's stored entries: their places g * d^2 + i * d + j, and their bits."""
    flat = gens.flat
    return (sparse.coo_rows(flat) * flat.shape[1] + flat.indices).tolist(), _bits(flat.data).tolist()


def _nonzeros(mats):
    """_record of the nonzero entries of dense matrices."""
    flat = np.asarray(mats, dtype=np.complex128).reshape(len(mats), -1)
    g, t = np.nonzero(flat)
    return (g * flat.shape[1] + t).tolist(), _bits(flat[g, t]).tolist()


def test_generator_set_holds_one_read_only_array_copied_from_its_input():
    # the one stored form is the (k, d^2) record; indexing cuts a fresh matrix
    g = liealg.generalized_gell_mann(4)
    assert g.flat.shape == (15, 16) and g.flat.dtype == np.complex128
    assert [name for name, v in vars(g).items() if isinstance(v, np.ndarray)] == []
    assert not hasattr(g, "mats") and g.flat.nnz == 2 * 12 + 9
    with pytest.raises(ValueError):
        g.flat.data[0] = 1
    arr = np.array(list(g))
    for given in (arr, tuple(arr), list(arr)):
        copy = liealg.GeneratorSet.create(given)
        assert not np.shares_memory(copy.flat.data, arr)
        assert _record(copy) == _record(g) == _nonzeros(arr)
        assert len(copy) == 15 and np.array_equal(copy[3], g[3])
        assert all(np.array_equal(a, b) for a, b in zip(copy, g))
    g[3][0, 0] = 7  # a fresh matrix on each call
    assert g[3][0, 0] == 0 and g[-1].shape == (4, 4)
    with pytest.raises(IndexError):
        g[15]
    assert arr.flags.writeable


def _ggm_reference(d):
    """generalized_gell_mann(d)'s matrices, built one at a time."""
    mats = []
    for k in range(2, d + 1):
        for j in range(1, k):
            sym = np.zeros((d, d), dtype=np.complex128)
            sym[j - 1, k - 1] = 1
            sym[k - 1, j - 1] = 1
            mats.append(sym)
            asym = np.zeros((d, d), dtype=np.complex128)
            asym[j - 1, k - 1] = -1j
            asym[k - 1, j - 1] = 1j
            mats.append(asym)
        l = k - 1
        diag = np.zeros((d, d), dtype=np.complex128)
        for r in range(l):
            diag[r, r] = 1
        diag[l, l] = -l
        mats.append(diag * math.sqrt(2.0 / (l * (l + 1))))
    return mats


def _bits(mats):
    # real and imaginary parts as raw words, so a zero's sign bit counts too
    return np.ascontiguousarray(mats, dtype=np.complex128).view(np.uint64)


def test_generator_arrays_match_the_per_matrix_construction_bit_for_bit():
    # the stored entries are the nonzeros of the dense per-matrix construction
    for d in range(2, 25):
        gens = liealg.generalized_gell_mann(d)
        reference = _ggm_reference(d)
        assert _record(gens) == _nonzeros(reference), d
        u = liealg.conjugation_matrix(d)
        conj = [u @ (-m.T) @ u.T for m in reference]
        assert _record(liealg.conjugate_rep(gens)) == _nonzeros(conj), d


def test_spin1_matrices_exact():
    jp, jm, j3 = liealg.spin1_matrices()
    s = math.sqrt(2)
    assert np.allclose(jp, [[0, s, 0], [0, 0, s], [0, 0, 0]])
    assert np.allclose(jm, jp.conj().T)
    assert np.allclose(j3, np.diag([1, 0, -1]))


def test_spin1_ladder_commutators():
    jp, jm, j3 = liealg.spin1_matrices()
    assert np.allclose(j3 @ jp - jp @ j3, jp)
    assert np.allclose(j3 @ jm - jm @ j3, -jm)
    assert np.allclose(jp @ jm - jm @ jp, 2 * j3)


def test_gellmann_from_spin1_equals_standard():
    gm = liealg.gell_mann()
    rebuilt = liealg.gellmann_from_spin1()
    for a, b in zip(rebuilt, gm):
        assert np.max(np.abs(a - b)) < 1e-12


def test_gellmann_from_spin1_lambda4_entries():
    lam4 = liealg.gellmann_from_spin1()[3]
    expected = np.zeros((3, 3))
    expected[0, 2] = expected[2, 0] = 1
    assert np.max(np.abs(lam4 - expected)) < 1e-12


def _dense(sc):
    """The k x k x k tensor of the stored records, for small test sets."""
    k = sc.size
    c = np.zeros((k, k, k), dtype=np.complex128)
    c[sc.c["i"], sc.c["j"], sc.c["l"]] = sc.c["value"]
    return c


def test_structure_constants_gell_mann():
    gm = liealg.gell_mann()
    sc = liealg.structure_constants(gm)
    assert sc.size == 8
    c = _dense(sc)
    assert abs(c[0, 1, 2] - 2j) < 1e-12
    # antisymmetry in the first index pair and zero diagonal
    assert np.max(np.abs(c + c.transpose(1, 0, 2))) < 1e-12
    for i in range(8):
        assert np.max(np.abs(c[i, i])) < 1e-13
    # for a Hermitian orthogonal set, c = 2i f with f real and totally antisymmetric
    f = (c / 2j).real
    assert np.max(np.abs((c / 2j).imag)) < 1e-12
    assert np.max(np.abs(f + f.transpose(0, 2, 1))) < 1e-12
    assert np.max(np.abs(f + f.transpose(2, 1, 0))) < 1e-12


def test_structure_constants_pauli_half():
    g = liealg.generalized_gell_mann(2)
    half = liealg.GeneratorSet.create([m / 2 for m in g])
    sc = liealg.structure_constants(half)
    assert abs(_dense(sc)[0, 1, 2] - 1j) < 1e-12


def test_structure_constants_non_orthogonal_set():
    # (J+, J-, J3 + J+) spans the spin-1 algebra, but J3 + J+ overlaps J+ in
    # the trace inner product, so the projection takes the dense inverse
    jp, jm, j3 = liealg.spin1_matrices()
    gens = liealg.GeneratorSet.create([jp, jm, j3 + jp])
    stack = sparse.toarray(gens.flat)
    gram = stack.conj() @ stack.T
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) > 1
    c = _dense(liealg.structure_constants(gens))
    # with K = J3 + J+: [J+, J-] = 2 J3 = 2 K - 2 J+, [J+, K] = -J+ and
    # [J-, K] = J- + [J-, J+] = 2 J+ + J- - 2 K
    expected = np.zeros((3, 3, 3))
    expected[0, 1] = -2, 0, 2
    expected[0, 2] = -1, 0, 0
    expected[1, 2] = 2, 1, -2
    expected -= expected.transpose(1, 0, 2)
    assert np.max(np.abs(c - expected)) < 1e-12


def test_structure_constants_closure_error():
    g = liealg.generalized_gell_mann(2)
    open_set = liealg.GeneratorSet.create([g[0], g[1]])
    with pytest.raises(ClosureError):
        liealg.structure_constants(open_set)


def test_dependent_set_rejected():
    g = liealg.generalized_gell_mann(2)
    with pytest.raises(DependenceError):
        liealg.GeneratorSet.create([g[0], g[0]])
    with pytest.raises(DependenceError):
        liealg.GeneratorSet.create([g[0], np.zeros((2, 2))])


def test_generator_set_shape_validation():
    eye = sparse.from_dense(np.eye(2).reshape(1, 4))
    with pytest.raises(ValueError):
        liealg.GeneratorSet(3, eye, ("x",))
    with pytest.raises(ValueError):
        liealg.GeneratorSet(2, eye, ("x", "y"))
    for mats in ([np.ones((2, 3))], np.ones((2, 2)), np.ones(4), []):
        with pytest.raises(ValueError):
            liealg.GeneratorSet.create(mats)
    gens = liealg.gell_mann()
    for key in (slice(0, 2), 1.0, [0, 1]):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            gens[key]
    with pytest.raises(IndexError):
        gens[8]
    assert np.array_equal(gens[np.int64(-1)], gens[7])


def test_conjugation_matrix_values():
    assert np.allclose(liealg.conjugation_matrix(2), [[0, 1], [-1, 0]])
    assert np.allclose(
        liealg.conjugation_matrix(3), [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    )


def test_conjugation_matrix_unitary():
    for n in range(2, 9):
        u = liealg.conjugation_matrix(n)
        assert np.allclose(u @ u.conj().T, np.eye(n))
        assert np.allclose(u.conj().T, u.T)


def test_conjugate_rep_lambda3():
    conj = liealg.conjugate_rep(liealg.gell_mann())
    assert np.allclose(conj[2], np.diag([0, 1, -1]))


def test_conjugate_rep_preserves_structure_constants():
    # what lets a mixed representation pair G with its conjugate set unchecked
    from test_schwinger import _chevalley
    sets = [liealg.generalized_gell_mann(d) for d in range(2, 13)]
    sets += [liealg.gell_mann(), liealg.spin1_matrices(), liealg.gellmann_from_spin1()]
    sets += [_chevalley(d) for d in range(3, 7)]  # real, traceless, not Hermitian
    for gens in sets:
        sc_conj = liealg.structure_constants(liealg.conjugate_rep(gens))
        assert gens.constants.max_difference(sc_conj) <= 1e-12, gens.labels[0]


def test_conjugate_rep_involution():
    for gens in [liealg.gell_mann()] + [liealg.generalized_gell_mann(d) for d in range(2, 7)]:
        twice = liealg.conjugate_rep(liealg.conjugate_rep(gens))
        for a, b in zip(twice, gens):
            assert np.max(np.abs(a - b)) < 1e-14


def test_conjugate_rep_imaginary_antisymmetric_fixed_up_to_basis():
    # for a purely imaginary antisymmetric matrix, -A* = A, so A' = U A U+
    gm = liealg.gell_mann()
    lam2 = gm[1]
    u = liealg.conjugation_matrix(3)
    conj = liealg.conjugate_rep(gm)
    assert np.allclose(conj[1], u @ lam2 @ u.T)


def test_conjugate_rep_dimension_mismatch():
    with pytest.raises(ValueError):
        liealg.conjugate_rep(liealg.gell_mann(), n=4)


# -- Gram projection against the per-generator einsum definition -----------------


def _oracle_structure_constants(gens):
    """Structure constants by an einsum projection per generator."""
    k = len(gens)
    stack = np.stack(list(gens))
    gram_inv = np.linalg.inv(np.einsum("ayx,byx->ab", stack.conj(), stack))
    c = np.zeros((k, k, k), dtype=np.complex128)
    for i in range(k):
        comm = np.matmul(stack[i][None, :, :], stack) - np.matmul(stack, stack[i][None, :, :])
        c[i] = np.einsum("ayx,jyx->ja", stack.conj(), comm) @ gram_inv.T
    return c


def _mixed_gell_mann():
    # invertible triangular mixing of the Gell-Mann set: closed, not orthogonal
    gm = liealg.gell_mann()
    return liealg.GeneratorSet.create(
        [gm[a] + 0.5 * gm[a + 1] - 0.25j * gm[0] if a < 7 else gm[a] for a in range(8)]
    )


@pytest.mark.parametrize(
    "make",
    [*(functools.partial(liealg.generalized_gell_mann, d) for d in range(2, 7)),
     liealg.gell_mann, liealg.spin1_matrices, _mixed_gell_mann],
    ids=[*(f"ggm{d}" for d in range(2, 7)), "gell_mann", "spin1", "mixed_gell_mann"],
)
def test_structure_constants_match_einsum_oracle(make):
    gens = make()
    sc = liealg.structure_constants(gens)
    assert np.max(np.abs(_dense(sc) - _oracle_structure_constants(gens))) <= 1e-15


def test_mixed_gell_mann_is_not_orthogonal():
    stack = np.stack(list(_mixed_gell_mann()))
    gram = np.einsum("ayx,byx->ab", stack.conj(), stack)
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) > 0.1


def test_structure_constants_errors_after_projection_change():
    g = liealg.generalized_gell_mann(3)
    with pytest.raises(ClosureError, match="leaves the span"):
        liealg.structure_constants(liealg.GeneratorSet.create([g[a] for a in range(4)]))
    # a singular Gram is refused once, when the set is built
    with pytest.raises(DependenceError):
        liealg.GeneratorSet.create([g[0], g[0], g[2]])


# -- sparse records --------------------------------------------------------------


def test_structure_constants_records_are_sorted_nonzero_coefficients():
    gens = liealg.generalized_gell_mann(5)
    rec = liealg.structure_constants(gens).c
    assert rec.dtype == liealg.RECORD_DTYPE
    keys = (rec["i"] * 24 + rec["j"]) * 24 + rec["l"]
    assert np.all(np.diff(keys) > 0)
    assert np.all(rec["value"] != 0)


def test_matrix_unit_constants_match_the_gram_projection():
    for k in range(1, 7):
        # row a of eye(k^2) reshaped is the unit e_ij with a = i * k + j
        units = liealg.GeneratorSet.create(list(np.eye(k * k).reshape(k * k, k, k)))
        ref = liealg.structure_constants(units)
        got = liealg.matrix_unit_constants(k)
        assert got.size == ref.size == k * k
        assert np.array_equal(got.c, ref.c), k
        assert got.max_difference(ref) == 0.0
        # 2k records per unit, less the two cancelling terms of [e_ii, e_ii]
        assert len(got.c) == 2 * k**3 - 2 * k
    with pytest.raises(ValueError):
        liealg.matrix_unit_constants(0)


def _pair_rows_difference(a, b):
    """max_difference as it was: each set a (k^2, k) CSR matrix whose row
    i * k + j holds the expansion of [G_i, G_j]."""
    k = a.size
    rows = [sparse.from_triplets(c["i"] * k + c["j"], c["l"], c["value"], (k * k, k))
            for c in (a.c, b.c)]
    return float(np.max(np.abs(sparse.subtract(*rows).data), initial=0.0))


@st.composite
def _hand_made_pair(draw):
    """Two hand-made sets of one size: records in any order, (i, j, l) repeated,
    and the second a shuffled copy of the first with records changed and added."""
    k = draw(st.integers(1, 4))
    index = st.integers(0, k - 1)
    value = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1j, -1e-17]),
                      st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
    record = st.tuples(index, index, index, value)
    first = draw(st.lists(record, max_size=12))
    second = draw(st.permutations(first))
    for at in draw(st.lists(st.integers(0, max(len(second) - 1, 0)), max_size=3)):
        if second:
            second[at] = (*second[at][:3], draw(value))
    second += draw(st.lists(record, max_size=3))
    return [liealg.StructureConstants(k, np.array(recs, dtype=liealg.RECORD_DTYPE))
            for recs in (first, second)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_hand_made_pair())
def test_max_difference_is_the_pair_row_subtraction_bit_for_bit(pair):
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a)):
        got, want = x.max_difference(y), _pair_rows_difference(x, y)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_max_difference_of_su5_and_its_conjugate_is_the_pair_row_subtraction():
    gens = liealg.generalized_gell_mann(5)
    a, b = gens.constants, liealg.conjugate_rep(gens).constants
    assert a.max_difference(b) == _pair_rows_difference(a, b) > 0
    with pytest.raises(ValueError):
        a.max_difference(liealg.gell_mann().constants)


def test_max_difference_peaks_under_twice_its_records_traced():
    # as (k^2, k) matrices the two sets of su(28) peaked at 19.3 MiB traced
    gens = liealg.generalized_gell_mann(28)
    a, b = gens.constants, liealg.conjugate_rep(gens).constants
    held = a.c.nbytes + b.c.nbytes
    tracemalloc.start()
    try:
        assert a.max_difference(b) < 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * held


def test_constants_are_formed_once_per_set(monkeypatch):
    calls = []
    original = liealg.structure_constants
    monkeypatch.setattr(liealg, "structure_constants",
                        lambda gens: calls.append(gens) or original(gens))
    gens = liealg.generalized_gell_mann(4)
    assert calls == []
    sc = gens.constants
    assert gens.constants is sc and calls == [gens]
    assert np.array_equal(sc.c, original(gens).c)
    # sorted records are read in place
    assert np.shares_memory(sc.records(0, len(gens)), sc.c)


def test_records_of_a_hand_made_set_are_sorted_once_stably_by_first_index(monkeypatch):
    rec = np.zeros(6, dtype=liealg.RECORD_DTYPE)
    rec["i"], rec["j"], rec["value"] = [2, 0, 1, 0, 2, 1], [0, 1, 2, 1, 0, 2], np.arange(6)
    sc = liealg.StructureConstants(3, rec)
    records = sc.records
    assert [r["value"].real.tolist() for r in (records(0, 1), records(1, 3), records(0, 3))] == [
        [1, 3], [2, 5, 0, 4], [1, 3, 2, 5, 0, 4]]
    # read again, nothing is sorted anew
    monkeypatch.setattr(np, "argsort", None)
    assert sc.records is records and len(sc.records(0, 3)) == 6


def test_commutator_entries_sign_one_gives_anticommutators(monkeypatch):
    # integer entries, so every sum is exact whatever its order
    d = 3
    mats = list(np.random.default_rng(0).integers(-3, 4, size=(3, d, d)).astype(float))
    flat = sparse.from_dense(np.reshape(mats, (3, d * d)))
    for bound, chunks in ((liealg._COMMUTATOR_TERMS, [(0, 3)]), (1, [(0, 1), (1, 2), (2, 3)])):
        monkeypatch.setattr(liealg, "_COMMUTATOR_TERMS", bound)
        for sign, upper in itertools.product((-1, 1), (False, True)):
            full, ranges = np.zeros((3 * d, 3 * d)), []
            for a0, a1, rows, cols, vals in liealg.commutator_entries(flat, sign, upper):
                assert np.all((rows >= a0 * d) & (rows < a1 * d))
                np.add.at(full, (rows, cols), vals)
                ranges.append((a0, a1))
            assert ranges == chunks
            for a in range(3):
                for b in range(3):
                    expected = mats[a] @ mats[b] + sign * mats[b] @ mats[a]
                    if upper and b + (sign > 0) <= a:  # left out
                        expected = 0 * expected
                    assert np.array_equal(full[a * d:(a + 1) * d, b * d:(b + 1) * d], expected)


def test_structure_constants_ggm28_sparse_and_totally_antisymmetric():
    gens = liealg.generalized_gell_mann(28)
    k = len(gens)
    tracemalloc.start()
    try:
        sc = liealg.structure_constants(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense k^3 tensor would take 7.7 GB
    assert peak < 100e6
    rec = sc.c
    assert len(rec) == 102_654
    f = rec["value"] / 2j
    assert np.max(np.abs(f.imag)) < 1e-12
    keys = (rec["i"] * k + rec["j"]) * k + rec["l"]
    # every permutation of (i, j, l) is stored, with f's sign of the permutation
    for a, b, c in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        idx = (rec["ijl"[a]] * k + rec["ijl"[b]]) * k + rec["ijl"[c]]
        pos = np.searchsorted(keys, idx)
        assert np.array_equal(keys[pos], idx)
        assert np.max(np.abs(f.real[pos] + f.real)) < 1e-12


def test_structure_constants_of_su15_peak_under_3_mb_traced():
    # one chunk of rows i at a time; all 224^2 pairs at once peaked at 5.6-6.0 MB
    gens = liealg.generalized_gell_mann(15)
    tracemalloc.start()
    try:
        sc = liealg.structure_constants(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sc.c) > 10_000 and peak < 3e6


def _random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_structure_constants_invariant_under_unitary_conjugation(d, seed):
    gens = liealg.generalized_gell_mann(d)
    u = _random_unitary(d, seed)
    rotated = liealg.GeneratorSet.create([u @ g @ u.conj().T for g in gens])
    assert min(np.count_nonzero(m) for m in rotated) > d
    sc = liealg.structure_constants(gens)
    assert liealg.structure_constants(rotated).max_difference(sc) <= 1e-12


# -- the dependence decision against the dense rule it replaces -------------------


def _dense_rule_dependent(mats):
    """The rule GeneratorSet applied before its sparse certificate: the rank
    of the dense Gram, with matrix_rank's own tolerance."""
    flat = np.asarray(mats, dtype=np.complex128).reshape(len(mats), -1)
    return np.linalg.matrix_rank(flat.conj() @ flat.T, hermitian=True) < len(mats)


def _decided_dependent(mats):
    try:
        liealg.GeneratorSet.create(list(mats))
    except DependenceError:
        return True
    return False


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from(["none", "small", "copy", "rounded", "zero", "tiny"]),
)
def test_dependence_decision_matches_the_dense_rank(d, seed, mixed, case):
    rng = np.random.default_rng(seed)
    base = np.array(list(liealg.generalized_gell_mann(d)))
    k = len(base)
    if mixed:  # an invertible complex mix: no longer trace-orthogonal
        mix = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    else:  # rescaled members stay orthogonal, so the sparse certificate decides
        mix = np.diag(rng.uniform(0.5, 2, k) * np.exp(2j * np.pi * rng.uniform(size=k)))
    mats = np.einsum("ab,bxy->axy", mix, base)
    a, b = rng.choice(k, 2, replace=False)
    if case == "small":
        mats[a] *= 1e-3
    elif case == "copy":
        mats[a] = 2 * mats[b]  # exactly dependent
    elif case == "rounded":  # dependent up to rounding
        coeff = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        coeff[a] = 0
        mats[a] = np.einsum("b,bxy->xy", coeff, mats)
    elif case == "zero":
        mats[a] = 0
    elif case == "tiny":
        mats[a] *= 1e-20
    expected = _dense_rule_dependent(mats)
    assert _decided_dependent(mats) == expected
    assert expected == (case not in ("none", "small"))


def test_dependence_decision_on_orthogonal_and_chevalley_sets(monkeypatch):
    from test_schwinger import _chevalley

    ggm = [np.array(list(liealg.generalized_gell_mann(d))) for d in range(2, 7)]
    chevalley = [np.array(list(_chevalley(d))) for d in range(2, 6)]
    assert not any(map(_dense_rule_dependent, ggm + chevalley))
    calls = []
    rank = np.linalg.matrix_rank
    monkeypatch.setattr(
        np.linalg, "matrix_rank", lambda *a, **kw: calls.append(a[0].shape) or rank(*a, **kw)
    )
    # the sparse certificate decides every Gell-Mann set without a dense rank
    assert not any(map(_decided_dependent, ggm)) and calls == []
    # the H_i of a Chevalley set have the tridiagonal Gram (2, -1), which is
    # not strictly diagonally dominant from three H_i on: from d = 4 the set
    # takes the dense k x k rank
    assert not any(map(_decided_dependent, chevalley))
    assert calls == [(15, 15), (24, 24)]
    assert _decided_dependent([*chevalley[-1][:-1], chevalley[-1][0] + chevalley[-1][-2]])


def test_generator_set_peak_memory_stays_near_its_array():
    ggm32 = liealg.generalized_gell_mann(32)
    k = len(ggm32)
    tracemalloc.start()
    try:
        liealg.GeneratorSet(32, ggm32.flat, ggm32.labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Gram's product terms (1.3 MB), with no dense k x k Gram and no
    # dense (k, d, d) set beside the record: each would take 16.7 MB
    assert peak <= 2e6 < 16 * k * k / 8


def test_generalized_gell_mann_56_peaks_under_5_mb_traced():
    # 7,755 stored entries; the dense (3135, 56, 56) set held 157 MB and
    # peaked at 321 MB
    tracemalloc.start()
    try:
        gens = liealg.generalized_gell_mann(56)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gens.flat.nnz == 7755 and peak < 5e6


def _random_set(rng, k, d):
    """k independent complex d x d matrices with zero entries and signed zero
    parts: matrix g alone holds an entry at place p[g]."""
    parts = rng.choice([0.0, 1.0], size=(2, k, d * d), p=[0.5, 0.5])
    parts *= rng.standard_normal((2, k, d * d))  # 0.0 * x < 0 is -0.0
    flat = np.empty((k, d * d), np.complex128)
    flat.real, flat.imag = parts  # x + 1j * y would make each -0.0 real part +0.0
    p = rng.choice(d * d, k, replace=False)
    flat[:, p] = 0
    flat[np.arange(k), p] = rng.standard_normal(k) + 1j
    return flat.reshape(k, d, d)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 5), st.data())
def test_create_then_indexing_returns_every_nonzero_entry_bit_for_bit(d, data):
    k, seed = data.draw(st.integers(1, d * d)), data.draw(st.integers(0, 2**32 - 1))
    mats = _random_set(np.random.default_rng(seed), k, d)
    gens = liealg.GeneratorSet.create(mats)
    assert _record(gens) == _nonzeros(mats)
    assert len(gens) == k
    for got, want in zip(gens, mats):
        assert np.array_equal(got != 0, want != 0)
        assert np.array_equal(_bits(got[want != 0]), _bits(want[want != 0]))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.data())
def test_conjugate_rep_equals_the_dense_conjugation_on_random_sets(d, data):
    k, seed = data.draw(st.integers(1, d * d)), data.draw(st.integers(0, 2**32 - 1))
    mats = _random_set(np.random.default_rng(seed), k, d)
    conj = liealg.conjugate_rep(liealg.GeneratorSet.create(mats))
    u = liealg.conjugation_matrix(d) if d > 1 else np.eye(1)
    # U is a signed permutation, so the dense products are exact
    want = [u @ -m.T @ u.T for m in mats]
    assert len(conj) == k and all(np.array_equal(a, b) for a, b in zip(conj, want))
    assert conj.labels == tuple(f"g_{g}_conj" for g in range(1, k + 1))
    words = conj.flat.data.view(np.float64)
    assert not np.any(np.signbit(words) & (words == 0))  # every zero part is +0.0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.data())
def test_conjugate_rep_twice_returns_the_original_record_exactly(d, data):
    k, seed = data.draw(st.integers(1, d * d)), data.draw(st.integers(0, 2**32 - 1))
    gens = liealg.GeneratorSet.create(_random_set(np.random.default_rng(seed), k, d))
    for once in (gens, liealg.conjugate_rep(gens)):
        twice = liealg.conjugate_rep(liealg.conjugate_rep(once)).flat
        assert np.array_equal(twice.indptr, once.flat.indptr)
        assert np.array_equal(twice.indices, once.flat.indices)
        # equal values; the map writes +0.0 for each zero part, a -0.0 included
        assert np.array_equal(_bits(twice.data), _bits(once.flat.data + 0.0))
