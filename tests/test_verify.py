import json
import math

import numpy as np
import pytest
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


def test_check_eij_sampled_deterministic():
    units = schwinger.element_operators(4, 2)
    r1 = verify.check_eij_algebra(units, 6, samples=100, seed=7)
    r2 = verify.check_eij_algebra(units, 6, samples=100, seed=7)
    assert r1.signature() == r2.signature()
    assert len(r1.checks) == 1
    assert r1.overall


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
        assert dec.reassemble().diff_max(op) == 0.0


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


def test_report_extend_sums_timings():
    a = VerificationReport()
    a.timings["batch"] = 1.0
    b = VerificationReport()
    b.timings.update({"batch": 0.5, "other": 2.0})
    a.extend(b)
    assert a.timings == {"batch": 1.5, "other": 2.0}


# -- whole-set kernels against the per-quadruple and per-unit definitions --------


def _oracle_eij(units, k, tol, label, samples=None, seed=0):
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
    if samples is None:
        for i in range(k):
            for j in range(k):
                worst = 0.0
                for p in range(k):
                    for qq in range(k):
                        worst = max(worst, identity_residual(i, j, p, qq))
                report.add(f"{label}/[{i + 1:02d},{j + 1:02d}]", worst, tol)
    else:
        rng = np.random.RandomState(seed)
        worst = 0.0
        for _ in range(samples):
            i, j, p, qq = rng.randint(0, k, size=4)
            worst = max(worst, identity_residual(int(i), int(j), int(p), int(qq)))
        report.add(f"{label}/sampled[{samples}]", worst, tol)
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
        (verify.check_eij_algebra(units, k, tol, label="e", samples=60, seed=n),
         _oracle_eij(units, k, tol, "e", samples=60, seed=n)),
        (verify.check_number_commutant(units, n, tol, label="c"),
         _oracle_numcomm(units, n, tol, "c")),
    ]
    if m is not None:  # the bilinears are not outer products
        pairs.append((verify._outer_product_check(units, n, m, tol, "o"),
                      _oracle_outer(units, n, m, tol, "o")))
    for fast, slow in pairs:
        assert fast.signature() == slow.signature()
