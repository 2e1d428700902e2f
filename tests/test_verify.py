import functools
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fermirep import fock, liealg, schwinger, verify
from fermirep.errors import CapacityError
from fermirep.fock import FockOperator
from fermirep.verify import VerificationReport


def _flip_entry(op, which=0):
    mat = op.mat.copy()
    mat.data = mat.data.copy()
    mat.data[which] = -mat.data[which]
    return FockOperator(op.modes, mat)


def test_check_anticommutation_counts_and_exactness():
    report = verify.check_anticommutation(4)
    assert len(report.checks) == 3 * 16
    assert report.overall
    assert all(c.residual == 0.0 for c in report.checks)


def test_check_anticommutation_single_mode():
    report = verify.check_anticommutation(1)
    assert len(report.checks) == 3
    assert report.overall


def test_check_anticommutation_detects_sign_flip():
    def corrupted(n, i):
        op = fock.annihilation(n, i)
        return _flip_entry(op) if (n, i) == (3, 2) else op

    report = verify.check_anticommutation(3, annihilation_source=corrupted)
    assert not report.overall
    assert max(c.residual for c in report.failed()) == 2.0


def test_check_closure_pass_and_fault():
    gm = liealg.gell_mann()
    sc = liealg.structure_constants(gm)
    rep = schwinger.standard_rep(gm, 3)
    report = verify.check_closure(rep, sc)
    assert report.overall
    assert len(report.checks) == 8 * 7 // 2
    assert report.max_residual() < 1e-12

    broken = list(rep.ops)
    broken[0] = FockOperator.zero(3)
    assert not verify.check_closure(broken, sc).overall


def test_check_closure_size_mismatch():
    gm = liealg.gell_mann()
    sc = liealg.structure_constants(gm)
    with pytest.raises(ValueError):
        verify.check_closure(list(schwinger.standard_rep(gm, 3).ops)[:5], sc)


def test_check_eij_full_sector_units():
    units = schwinger.element_operators(4, 2)
    report = verify.check_eij_algebra(units, 6, tol=0.0)
    assert report.overall
    assert len(report.checks) == 36
    assert report.max_residual() == 0.0


def test_check_eij_bilinears():
    # plain bilinears a+_i a_j satisfy the matrix-unit algebra as well
    units = [
        fock.creation(3, i) @ fock.annihilation(3, j)
        for i in (1, 2, 3)
        for j in (1, 2, 3)
    ]
    report = verify.check_eij_algebra(units, 3, tol=0.0)
    assert report.overall


def test_check_eij_trivial_single_projector():
    q = schwinger.element_operators(3, 1)[0]
    report = verify.check_eij_algebra([q], 1, tol=0.0)
    assert report.overall


def test_check_eij_detects_corruption():
    units = schwinger.element_operators(3, 1)
    units[1] = 2 * units[1]
    assert not verify.check_eij_algebra(units, 3).overall


def test_check_eij_length_error():
    with pytest.raises(ValueError):
        verify.check_eij_algebra(schwinger.element_operators(3, 1), 2)


def test_check_eij_stray_entry_fails_its_own_pair_in_largest_sector():
    units = schwinger.element_operators(6, 3)
    k = 20
    assert verify.check_eij_algebra(units, k, tol=0.0).overall
    idx = fock.sector_indices(6, 3)
    a = 3 * k + 7  # Q_48, whose own entry is (idx[3], idx[7])
    units[a] = units[a] + FockOperator.from_entries(6, {(idx[0], idx[5]): 1})
    report = verify.check_eij_algebra(units, k, tol=0.0)
    failed = {c.name: c.residual for c in report.failed()}
    assert failed["eij/[04,08]"] == 1.0


def test_check_number_commutant():
    rep = schwinger.nssfr_un(liealg.generalized_gell_mann(4), 4)
    assert verify.check_number_commutant(rep, 4).overall
    units = schwinger.element_operators(4, 2)
    report = verify.check_number_commutant(units, 4)
    assert report.overall and len(report.checks) == 36
    bad = verify.check_number_commutant([fock.annihilation(3, 1)], 3)
    assert not bad.overall


def test_block_decompose_roundtrip():
    rep = schwinger.nssfr_un(liealg.gell_mann(), 3)
    for op in rep:
        dec = verify.block_decompose(op)
        assert dec.off_block_norm == 0.0
        # the basis lists the sectors in order of their particle count
        placed = sp.block_diag([dec.blocks[m] for m in range(4)], format="csr")
        assert abs(placed - op.mat).max() == 0.0


def test_block_decompose_blocks_match_sectors():
    gm = liealg.gell_mann()
    dec = verify.block_decompose(schwinger.nssfr_un(gm, 3)[2])
    assert np.max(np.abs(dec.blocks[1] - gm[2])) < 1e-13
    assert np.max(np.abs(dec.blocks[2] - gm[2])) < 1e-13
    assert abs(dec.blocks[0][0, 0]) == 0.0
    assert abs(dec.blocks[3][0, 0]) == 0.0


def test_block_decompose_total_number():
    dec = verify.block_decompose(fock.total_number(3))
    for m in range(4):
        assert np.allclose(dec.blocks[m], m * np.eye(dec.blocks[m].shape[0]))


def test_block_decompose_off_block_norm():
    dec = verify.block_decompose(fock.annihilation(3, 1))
    assert dec.off_block_norm == 1.0
    assert all(np.max(np.abs(b)) == 0 for b in dec.blocks.values())


def test_compare_ops():
    rep = schwinger.standard_rep(liealg.gell_mann(), 3)
    report = verify.compare_ops(rep, rep)
    assert report.overall and report.max_residual() == 0.0
    with pytest.raises(ValueError):
        verify.compare_ops(rep, list(rep.ops)[:3])


def test_run_suite_small_passes_and_is_deterministic():
    r1 = verify.run_suite(3)
    r2 = verify.run_suite(3)
    assert r1.overall
    assert r1 == r2
    names = [c.name for c in r1.checks]
    assert names == sorted(names)


def test_run_suite_single_mode():
    report = verify.run_suite(1)
    assert report.overall
    assert all(c.name.startswith("anticomm") for c in report.checks)


def test_run_suite_argument_and_capacity_errors(monkeypatch):
    with pytest.raises(ValueError):
        verify.run_suite(0)
    monkeypatch.setenv(fock.CAP_ENV_VAR, "3")
    with pytest.raises(CapacityError):
        verify.run_suite(4)


def test_run_suite_sensitive_to_every_ladder_sign_flip():
    # flipping any single stored entry of any two-mode ladder matrix must fail
    for i in (1, 2):
        base = fock.annihilation(2, i)
        for which in range(base.nnz):

            def corrupted(n, j, _i=i, _w=which):
                op = fock.annihilation(n, j)
                return _flip_entry(op, _w) if (n, j) == (2, _i) else op

            report = verify.run_suite(2, annihilation_source=corrupted)
            assert not report.overall, (i, which)


def test_report_json_roundtrip_and_text():
    report = verify.run_suite(2)
    payload = json.loads(report.to_json())
    restored = VerificationReport.from_dict(payload)
    assert restored == report
    text = report.to_text()
    assert "overall: PASS" in text
    assert f"({len(report.checks)} checks, 0 failed)" in text


def test_report_json_round_trip_run_suite_4():
    report = verify.run_suite(4)
    restored = VerificationReport.from_dict(json.loads(report.to_json()))
    assert restored == report
    assert restored.params == report.params
    assert restored.timings == report.timings
    assert [c.elapsed for c in restored.checks] == [c.elapsed for c in report.checks]


def test_report_json_has_one_check_per_line():
    report = verify.run_suite(3)
    lines = report.to_json().splitlines()
    start = lines.index('"checks": [')
    body = lines[start + 1:start + 1 + len(report.checks)]
    assert lines[start + 1 + len(report.checks)] == "],"
    for line, c in zip(body, report.checks):
        assert json.loads(line.removesuffix(",")) == {
            "name": c.name, "passed": c.passed,
            "residual": c.residual, "elapsed": c.elapsed,
        }
    empty = VerificationReport()
    assert VerificationReport.from_dict(json.loads(empty.to_json())) == empty


def test_report_residual_validation():
    report = VerificationReport()
    with pytest.raises(ValueError):
        report.add("x", float("nan"), 1e-10)
    with pytest.raises(ValueError):
        report.add("x", -1.0, 1e-10)


def test_report_equality_ignores_elapsed():
    a = VerificationReport()
    a.add("x", 0.0, 1e-10, elapsed=1.0)
    a.timings["batch"] = 1.0
    b = VerificationReport()
    b.add("x", 0.0, 1e-10, elapsed=2.0)
    assert a == b
    assert a.signature() == b.signature()


def test_run_suite_timings_are_batch_measurements():
    report = verify.run_suite(3)
    assert sum(report.timings.values()) > 0
    assert {"closure/standard/n03", "eij/n03m01", "outer/n03m02"} <= set(report.timings)
    batched = ("closure/", "eij/", "outer/")
    assert all(c.elapsed == 0.0 for c in report.checks if c.name.startswith(batched))
    restored = VerificationReport.from_dict(json.loads(report.to_json()))
    assert restored.timings == report.timings


def test_run_suite_checks_every_sector_unit_algebra_exhaustively():
    report = verify.run_suite(6)
    assert report.overall
    assert len(report.checks) == 17_902
    names = [c.name for c in report.checks]
    assert not any("sampled" in name for name in names)
    for n in range(2, 7):
        for m in range(1, n):
            prefix = f"eij/n{n:02d}m{m:02d}/["
            count = sum(name.startswith(prefix) for name in names)
            assert count == math.comb(n, m) ** 2, (n, m)


def test_sparse_closure_path_records_its_batch_time(monkeypatch):
    monkeypatch.setattr(verify, "_CLOSURE_PRODUCT_TERMS", 0)
    gens = liealg.generalized_gell_mann(4)
    rep = schwinger.standard_rep(gens, 4)
    report = verify.check_closure(rep, liealg.structure_constants(gens), label="x")
    assert report.overall and len(report.checks) == 15 * 14 // 2
    assert set(report.timings) == {"x"}
    assert report.timings["x"] >= sum(c.elapsed for c in report.checks) > 0


def _gell_mann_mix():
    """G'_a = lambda_a + lambda_(a+1): a non-orthogonal basis of su(3).

    Its structure constants include rounding-noise records below 1e-14.
    """
    gm = liealg.gell_mann().mats
    return liealg.GeneratorSet.create([gm[a] + gm[a + 1] for a in range(7)] + [gm[7]])


def test_whole_set_and_pairwise_closure_paths_agree(monkeypatch):
    gens = liealg.generalized_gell_mann(4)
    flipped = list(schwinger.nssfr_un(gens, 4).ops)
    flipped[3] = _flip_entry(flipped[3])
    mix = _gell_mann_mix()
    mix_sc = liealg.structure_constants(mix)
    assert np.min(np.abs(mix_sc.c["value"])) < 1e-14
    cases = [
        (flipped, liealg.structure_constants(gens), False),
        (schwinger.standard_rep(mix, 3).ops, mix_sc, True),
    ]
    for ops, sc, passes in cases:
        whole = verify.check_closure(ops, sc, label="x")
        with monkeypatch.context() as m:
            m.setattr(verify, "_CLOSURE_PRODUCT_TERMS", 0)
            pairwise = verify.check_closure(ops, sc, label="x")
        assert pairwise.overall == passes
        assert [c[:2] for c in pairwise.signature()] == [c[:2] for c in whole.signature()]
        assert max(abs(a.residual - b.residual)
                   for a, b in zip(pairwise.checks, whole.checks)) <= 1e-15


def test_report_extend_sums_timings():
    a = VerificationReport()
    a.timings["batch"] = 1.0
    b = VerificationReport()
    b.timings.update({"batch": 0.5, "other": 2.0})
    a.extend(b)
    assert a.timings == {"batch": 1.5, "other": 2.0}


# -- whole-set kernels against the per-quadruple and per-unit definitions --------


def _oracle_eij(units, k, tol, label):
    def q(i, j):
        return units[i * k + j]

    def identity_residual(i, j, p, qq):
        lhs = q(i, j).commutator(q(p, qq))
        rhs = FockOperator.zero(lhs.modes)
        if j == p:
            rhs = rhs + q(i, qq)
        if qq == i:
            rhs = rhs - q(p, j)
        return (lhs - rhs).max_abs()

    report = VerificationReport()
    for i in range(k):
        for j in range(k):
            worst = 0.0
            for p in range(k):
                for qq in range(k):
                    worst = max(worst, identity_residual(i, j, p, qq))
            report.add(f"{label}/[{i + 1:02d},{j + 1:02d}]", worst, tol)
    return report


def _oracle_outer(units, n, m, tol, label):
    idx = fock.sector_indices(n, m)
    k = len(idx)
    worst = 0.0
    for i in range(k):
        for j in range(k):
            expected = FockOperator.from_entries(n, {(idx[i], idx[j]): 1})
            worst = max(worst, units[i * k + j].diff_max(expected))
    report = VerificationReport()
    report.add(label, worst, tol)
    return report


def _oracle_numcomm(ops, n, tol, label):
    ntot = fock.total_number(n)
    report = VerificationReport()
    for a, op in enumerate(ops):
        report.add(f"{label}/{a + 1:03d}", op.commutator(ntot).max_abs(), tol)
    return report


_SMALL_SECTORS = [
    (n, m) for n in range(2, 7) for m in range(1, n) if math.comb(n, m) <= 6
]


@st.composite
def _corrupted_unit_sets(draw):
    if draw(st.booleans()):
        n, m = draw(st.sampled_from(_SMALL_SECTORS))
        units = schwinger.element_operators(n, m)
    else:
        n, m = draw(st.integers(2, 4)), None
        units = [
            fock.creation(n, i) @ fock.annihilation(n, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
    dim = 1 << n
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, len(units) - 1))
        mat = units[a].mat.copy()
        kind = draw(st.sampled_from(["flip", "scale", "stray", "zero"]))
        if kind in ("flip", "scale") and mat.nnz:
            which = draw(st.integers(0, mat.nnz - 1))
            factor = -1 if kind == "flip" else draw(st.sampled_from([-3, -2, 0, 2, 3]))
            mat.data[which] *= factor
        elif kind == "stray":
            r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            mat = mat + FockOperator.from_entries(n, {(r, c): draw(st.integers(1, 3))}).mat
        elif kind == "zero":
            mat = mat * 0
        units[a] = FockOperator(n, mat)
    return n, m, units


@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_corrupted_unit_sets())
def test_kernels_match_naive_oracle(case):
    n, m, units = case
    k = math.isqrt(len(units))
    tol = verify.DEFAULT_TOL
    pairs = [
        (verify.check_eij_algebra(units, k, tol, label="e"),
         _oracle_eij(units, k, tol, "e")),
        (verify.check_number_commutant(units, n, tol, label="c"),
         _oracle_numcomm(units, n, tol, "c")),
    ]
    if m is not None:  # the bilinears are not outer products
        pairs.append((verify._outer_product_check(units, n, m, tol, "o"),
                      _oracle_outer(units, n, m, tol, "o")))
    for fast, slow in pairs:
        assert fast.signature() == slow.signature()


# -- block-wise closure against the full-space dense definition ------------------


def _oracle_closure(ops, constants, tol, label):
    """Closure residuals from dense products on the full 2^n space."""
    k = len(ops)
    c = np.zeros((k, k, k), dtype=np.complex128)
    c[constants.c["i"], constants.c["j"], constants.c["l"]] = constants.c["value"]
    stack = np.stack([op.to_dense() for op in ops])
    report = VerificationReport()
    for i in range(k):
        comm = np.matmul(stack[i][None, :, :], stack) - np.matmul(
            stack, stack[i][None, :, :]
        )
        recon = np.tensordot(c[i], stack, axes=(1, 0))
        resid = np.max(np.abs(comm - recon), axis=(1, 2))
        for j in range(i + 1, k):
            report.add(f"{label}/[{i + 1:02d},{j + 1:02d}]", float(resid[j]), tol)
    return report


@functools.lru_cache(maxsize=None)
def _ggm_with_constants(d):
    gens = liealg.generalized_gell_mann(d)
    return gens, liealg.structure_constants(gens)


@st.composite
def _corrupted_representations(draw):
    kind = draw(st.sampled_from(["ucnm", "mixed", "standard"]))
    if kind == "standard":
        n = draw(st.integers(2, 5))
        gens, sc = _ggm_with_constants(n)
        ops = list(schwinger.standard_rep(gens, n).ops)
    else:
        n = draw(st.integers(3 if kind == "mixed" else 2, 5))
        m = draw(st.integers(1, n - 1).filter(lambda m: kind == "ucnm" or 2 * m != n))
        gens, sc = _ggm_with_constants(math.comb(n, m))
        if kind == "ucnm":
            ops = list(schwinger.rep_ucnm(gens, n, m).ops)
        else:
            gens2 = gens if draw(st.booleans()) else liealg.conjugate_rep(gens)
            ops = list(schwinger.mixed_rep(gens, gens2, n, m, 1, 1).ops)
    dim = 1 << n
    counts = fock.total_number(n).mat.diagonal()
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, len(ops) - 1))
        mat = ops[a].mat.astype(np.complex128)
        what = draw(st.sampled_from(["link", "edge", "flip", "zero"]))
        if what == "link":
            s, t = draw(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True))
            r = draw(st.sampled_from(np.flatnonzero(counts == s).tolist()))
            c = draw(st.sampled_from(np.flatnonzero(counts == t).tolist()))
            mat = mat + FockOperator.from_entries(n, {(r, c): draw(st.integers(1, 3))}).mat
        elif what == "edge":
            r, c = draw(st.sampled_from([(0, 0), (dim - 1, dim - 1), (0, dim - 1)]))
            mat = mat + FockOperator.from_entries(n, {(r, c): 1.5 - 0.5j}).mat
        elif what == "flip" and mat.nnz:
            mat.data[draw(st.integers(0, mat.nnz - 1))] *= -1
        elif what == "zero":
            mat = mat * 0
        ops[a] = FockOperator(n, mat)
    return ops, sc


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_corrupted_representations())
def test_block_closure_matches_full_space_oracle(case):
    ops, sc = case
    tol = verify.DEFAULT_TOL
    fast = verify.check_closure(ops, sc, tol, label="x")
    slow = _oracle_closure(ops, sc, tol, "x")
    assert [c[:2] for c in fast.signature()] == [c[:2] for c in slow.signature()]
    worst = max((abs(a.residual - b.residual) for a, b in zip(fast.checks, slow.checks)),
                default=0.0)
    assert worst <= 1e-15


def test_closure_stray_entry_joining_sectors_fails_exactly_the_affected_pairs():
    gens, sc = _ggm_with_constants(3)
    ops = list(schwinger.standard_rep(gens, 3).ops)
    one, two = fock.sector_indices(3, 1), fock.sector_indices(3, 2)
    ops[4] = ops[4] + FockOperator.from_entries(3, {(one[0], two[2]): 1})
    tol = verify.DEFAULT_TOL
    fast = verify.check_closure(ops, sc, tol, label="x")
    slow = _oracle_closure(ops, sc, tol, "x")
    assert [c[:2] for c in fast.signature()] == [c[:2] for c in slow.signature()]
    assert max(abs(a.residual - b.residual) for a, b in zip(fast.checks, slow.checks)) <= 1e-15
    # a pair is affected when it holds r_5 or its expansion uses r_5
    rec = sc.c[sc.c["l"] == 4]
    affected = {f"x/[{i + 1:02d},{j + 1:02d}]" for i, j in zip(rec["i"], rec["j"]) if i < j}
    affected |= {f"x/[{min(a, 4) + 1:02d},{max(a, 4) + 1:02d}]" for a in range(8) if a != 4}
    failed = {c.name for c in fast.failed()}
    assert failed and failed <= affected


def test_closure_of_zero_operators_is_zero(monkeypatch):
    zero = FockOperator.zero(3)
    gens, sc = _ggm_with_constants(2)
    report = verify.check_closure([zero] * 3, sc)
    assert report.overall and report.max_residual() == 0.0
    monkeypatch.setattr(verify, "_CLOSURE_PRODUCT_TERMS", 0)
    report = verify.check_closure([zero] * 3, sc)
    assert report.overall and report.max_residual() == 0.0


def test_closure_path_selection_bound():
    def terms(rep):
        return verify._product_terms(list(rep.ops))

    ggm = liealg.generalized_gell_mann
    assert terms(schwinger.standard_rep(ggm(12), 12)) == 23_971_064
    assert 23_971_064 > verify._CLOSURE_PRODUCT_TERMS
    whole_set = [
        terms(schwinger.rep_ucnm(ggm(15), 6, 2)),
        terms(schwinger.mixed_rep(ggm(10), liealg.conjugate_rep(ggm(10)), 5, 2, 1, 1)),
        terms(schwinger.rep_ucnm(ggm(28), 8, 2)),
    ]
    assert whole_set == [19_635, 11_100, 133_047]
    assert max(whole_set) <= verify._CLOSURE_PRODUCT_TERMS


def test_particle_counts_are_the_total_number_diagonal():
    for n in range(1, 9):
        counts = fock._particle_counts(n)
        assert counts.tolist() == [s.particle_count() for s in fock.build_basis(n)]
        assert counts.tolist() == fock.total_number(n).mat.diagonal().tolist()
