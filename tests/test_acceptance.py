"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see
them all).

Criterion 11b was handed down as "pairing a generator set with its
conjugate on the complementary sector rebuilds the number-selective
representation".  That is false in every basis: on the two-particle
block at n = 3 the trace invariant tr(G_8^3) is -2/sqrt(3) for the
number-selective representation (3 + 3) and +2/sqrt(3) for the conjugate
pairing (3 + 3bar).  The criterion now checks the two true identities:
the same-set pairing rebuilds the number-selective representation, and
the conjugate pairing rebuilds the bilinear one.
"""

import time
from fractions import Fraction

import numpy as np

from fermirep import fock, liealg, schwinger, sparse, verify
from fermirep.cli import matfile
from fermirep.cli.main import build_variant, main

import json


def _criterion(tag: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[{tag:>3}/13] {name}: {status}{suffix}")
    assert ok, f"criterion {tag} ({name}) failed{suffix}"


def test_01_anticommutation_exact_up_to_eight_modes():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 9):
        report = verify.check_anticommutation(n, tol=0.0)
        assert len(report.checks) == 3 * n * n
        worst = max(worst, report.max_residual())
        assert report.overall
    elapsed = time.perf_counter() - start
    _criterion(
        "1",
        "ladder anticommutation exact, n = 1..8",
        worst == 0.0 and elapsed < 5.0,
        f"max residual {worst}, {elapsed:.2f}s",
    )


def test_02_spin1_quadratic_reconstruction():
    gm = liealg.gell_mann()
    rebuilt = liealg.gellmann_from_spin1()
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(rebuilt, gm))
    _criterion(
        "2",
        "quadratic spin-1 forms rebuild the Gell-Mann set",
        worst < 1e-12,
        f"max diff {worst:.2e}",
    )


def test_03_three_mode_higher_order_closure():
    sc = liealg.structure_constants(liealg.gell_mann())
    report = verify.check_closure(schwinger.nssfr_u3_explicit(), sc, tol=1e-10)
    _criterion(
        "3",
        "explicit three-mode higher-order operators close",
        report.overall,
        f"max residual {report.max_residual():.2e}",
    )


def test_04_three_mode_block_structure():
    gm = liealg.gell_mann()
    rep = schwinger.nssfr_un(gm, 3)
    worst_corner = 0.0
    worst_block = 0.0
    for op, lam in zip(rep, gm):
        dec = verify.block_decompose(op)
        worst_corner = max(worst_corner, dec.off_block_norm)
        worst_corner = max(worst_corner, float(np.max(np.abs(dec.blocks[0]))))
        worst_corner = max(worst_corner, float(np.max(np.abs(dec.blocks[3]))))
        worst_block = max(worst_block, float(np.max(np.abs(dec.blocks[1] - lam))))
        worst_block = max(worst_block, float(np.max(np.abs(dec.blocks[2] - lam))))
    _criterion(
        "4",
        "number-selective blocks are (0, G, G, 0)",
        worst_corner < 1e-12 and worst_block < 1e-12,
        f"corners {worst_corner:.2e}, blocks {worst_block:.2e}",
    )


def test_05_bilinear_complementary_block_is_conjugate():
    gm = liealg.gell_mann()
    u = liealg.conjugation_matrix(3)
    assert np.allclose(u, [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    rep = schwinger.standard_rep(gm, 3)
    worst = 0.0
    for op, lam in zip(rep, gm):
        block = verify.block_decompose(op).blocks[2]
        expected = u @ (-lam.conj()) @ u.conj().T
        worst = max(worst, float(np.max(np.abs(block - expected))))
    _criterion(
        "5",
        "two-particle block of the bilinear rep is the conjugate set",
        worst < 1e-12,
        f"max diff {worst:.2e}",
    )


def test_06_explicit_equals_uniform_three_modes():
    explicit = schwinger.nssfr_u3_explicit()
    uniform = schwinger.nssfr_un(liealg.gell_mann(), 3)
    worst = max(a.diff_max(b) for a, b in zip(explicit, uniform))
    _criterion(
        "6",
        "explicit and uniform three-mode constructions agree",
        worst < 1e-12,
        f"max diff {worst:.2e}",
    )


def test_07_selective_function_exactness():
    ok = True
    for n in range(2, 11):
        for m in range(1, n):
            f = schwinger.selective_function(n, m)
            ok &= f.evaluate(m) == 1
            ok &= all(f.evaluate(k) == 0 for k in range(1, n) if k != m)
    ok &= schwinger.selective_function(4, 2).coeffs == (
        Fraction(-3),
        Fraction(4),
        Fraction(-1),
    )
    ok &= schwinger.selective_function(3, 1).coeffs == (Fraction(2), Fraction(-1))
    ok &= schwinger.selective_function(3, 2).coeffs == (Fraction(-1), Fraction(1))
    _criterion("7", "selective polynomials exact with printed expansions", ok)


def test_08_number_selective_closure_four_five_modes():
    start = time.perf_counter()
    worst_closure = 0.0
    worst_comm = 0.0
    for n in (4, 5):
        gens = liealg.generalized_gell_mann(n)
        sc = liealg.structure_constants(gens)
        rep = schwinger.nssfr_un(gens, n)
        closure = verify.check_closure(rep, sc, tol=1e-10)
        commutant = verify.check_number_commutant(rep, n, tol=1e-12)
        assert closure.overall and commutant.overall
        worst_closure = max(worst_closure, closure.max_residual())
        worst_comm = max(worst_comm, commutant.max_residual())
    elapsed = time.perf_counter() - start
    _criterion(
        "8",
        "number-selective closure at n = 4, 5",
        worst_closure < 1e-10 and worst_comm < 1e-12 and elapsed < 30.0,
        f"closure {worst_closure:.2e}, commutant {worst_comm:.2e}, {elapsed:.1f}s",
    )


def test_09_sector_unit_algebra():
    ok = True
    for n, m in [(3, 1), (3, 2), (4, 2), (5, 2)]:
        k = fock.sector_dimension(n, m)
        units = schwinger.element_operators(n, m)
        report = verify.check_eij_algebra(units, k, tol=1e-12)
        ok &= report.overall
        idx = fock.sector_indices(n, m)
        for i in range(k):
            for j in range(k):
                expected = fock.FockOperator.from_entries(n, {(idx[i], idx[j]): 1})
                ok &= units[i * k + j] == expected
    commutant = verify.check_number_commutant(
        schwinger.element_operators(4, 2), 4, tol=1e-12
    )
    ok &= commutant.overall and len(commutant.checks) == 36
    _criterion("9", "sector unit operators: algebra and outer products", ok)


def test_10_sector_representation_closure():
    gens = liealg.generalized_gell_mann(6)
    sc = liealg.structure_constants(gens)
    rep = schwinger.rep_ucnm(gens, 4, 2)
    closure = verify.check_closure(rep, sc, tol=1e-10)
    rng = fock.sector_indices(4, 2)
    worst_block = max(
        float(np.max(np.abs(op.to_dense()[np.ix_(rng, rng)] - g)))
        for op, g in zip(rep, gens)
    )
    _criterion(
        "10",
        "sector representation closes and restricts to its input",
        closure.overall and worst_block < 1e-12,
        f"closure {closure.max_residual():.2e}, restriction {worst_block:.2e}",
    )


def test_11a_mixed_weights_reduce_to_sector_rep():
    # the complementary sector must differ, so use (n, m) = (3, 1)
    gens = liealg.generalized_gell_mann(3)
    mixed = schwinger.mixed_rep(gens, 3, 1, 1, 0, "conjugate")
    plain = schwinger.rep_ucnm(gens, 3, 1)
    worst = max(a.diff_max(b) for a, b in zip(mixed, plain))
    _criterion(
        "11a",
        "mixed weights (1, 0) reduce to the sector representation",
        worst < 1e-12,
        f"max diff {worst:.2e}",
    )


def test_11b_mixed_conjugate_pairing_reproduces_number_selective():
    """Both sectors on at (n, m) = (3, 1): the mixed pairing rebuilds the
    number-selective representation.

    The handed-down form paired the Gell-Mann set with its *conjugate* on
    the two-particle sector.  That pairing carries U(-G*)U+ there, while
    the number-selective representation carries G itself, so the
    handed-down identity would make 3bar equal to 3.  No basis change can
    rescue it: trace invariants do not depend on the basis, and on the
    two-particle block tr(G_8^3) is -2/sqrt(3) for nssfr_un but
    +2/sqrt(3) for the conjugate pairing (the sign of the d-tensor, which
    flips between 3 and 3bar).

    The criterion therefore checks the true identities:
    (a) the same-set pairing equals nssfr_un entrywise;
    (b) the conjugate pairing equals standard_rep entrywise;
    (c) the two-particle tr(G_8^3) values above, which record why the
    conjugate pairing cannot equal nssfr_un.
    """
    gm = liealg.gell_mann()
    nssfr = schwinger.nssfr_un(gm, 3)
    same = schwinger.mixed_rep(gm, 3, 1, 1, 1, "same")
    conj = schwinger.mixed_rep(gm, 3, 1, 1, 1, "conjugate")
    bilinear = schwinger.standard_rep(gm, 3)
    same_diff = max(a.diff_max(b) for a, b in zip(same, nssfr))
    conj_diff = max(a.diff_max(b) for a, b in zip(conj, bilinear))

    two = fock.sector_indices(3, 2)

    def cubic_trace(rep):
        block = rep[7].to_dense()[np.ix_(two, two)]
        return complex(np.trace(block @ block @ block))

    d = 2 / np.sqrt(3)
    nssfr_d = cubic_trace(nssfr)
    conj_d = cubic_trace(conj)
    _criterion(
        "11b",
        "mixed same-set pairing rebuilds the number-selective rep, "
        "conjugate pairing the bilinear rep",
        same_diff < 1e-12
        and conj_diff < 1e-12
        and abs(nssfr_d + d) < 1e-12
        and abs(conj_d - d) < 1e-12,
        f"same-set vs nssfr_un {same_diff:.2e}, "
        f"conjugate vs standard_rep {conj_diff:.2e}; "
        f"two-particle tr(G_8^3): nssfr_un {nssfr_d.real:+.6f}, "
        f"conjugate {conj_d.real:+.6f}",
    )


def test_12_fault_sensitivity():
    def corrupted(n, i):
        op = fock.annihilation(n, i)
        if (n, i) == (2, 1):
            data = op.mat.data.copy()
            data[0] = -data[0]
            return fock.FockOperator(n, sparse.with_data(op.mat, data))
        return op

    clean = verify.run_suite(4)
    report = verify.run_suite(4, annihilation_source=corrupted)
    _criterion(
        "12",
        "one flipped ladder sign fails the suite",
        clean.overall and not report.overall,
        f"clean suite passes, corrupted has {len(report.failed())} failures",
    )


def test_13_cli_round_trip(tmp_path):
    out = tmp_path / "nssfr3"
    report_path = tmp_path / "report.json"
    ok = main(["build", "un-nonstandard", "--n", "3", "--out", str(out)]) == 0
    ok &= (
        main(
            [
                "verify",
                "--from",
                str(out),
                "--report",
                str(report_path),
                "--format",
                "json",
            ]
        )
        == 0
    )

    payload = json.loads(report_path.read_text())
    rep, gens, _family = build_variant("un-nonstandard", 3, None, None)
    memory = verify.representation_checks(rep, gens, 1e-10)
    file_sig = tuple(
        (c["name"], c["passed"], c["residual"]) for c in payload["checks"]
    )
    ok &= file_sig == memory.signature()

    expression = "(adag(1)*a(3) + adag(3)*a(1)) * (1 - 2*N(2))"
    ok &= (
        main(
            [
                "eval",
                expression,
                "--n",
                "3",
                "--check",
                str(out / "generator_004.json"),
            ]
        )
        == 0
    )
    # the stored generator and the typed expression agree entrywise, exactly
    reference, _meta = matfile.read_operator(out / "generator_004.json")
    from fermirep.cli import expr as expr_mod

    typed = expr_mod.evaluate(expr_mod.parse_expression(expression), 3)
    ok &= typed.diff_max(reference) == 0.0
    _criterion("13", "CLI round trip: build, verify from files, eval", ok)
