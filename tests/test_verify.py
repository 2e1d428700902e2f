import contextlib
import functools
import hashlib
import io
import json
import math
import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fermirep.report
from fermirep import fock, liealg, schwinger, sparse, verify
from fermirep.errors import CapacityError, ClosureError
from fermirep.fock import FockOperator
from fermirep.verify import VerificationReport

DATA = Path(__file__).parent / "data"

def _scaled_entry(op, which, factor):
    data = op.mat.data.copy()
    data[which] *= factor
    return FockOperator(op.modes, sparse.with_data(op.mat, data))


def _flip_entry(op, which=0):
    return _scaled_entry(op, which, -1)


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
    # the pairs, then one span check per operator of a standard representation
    assert len(report.checks) == 8 * 7 // 2 + 8
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
        placed = np.zeros((8, 8), dtype=np.complex128)
        for m in range(4):
            start, size = fock._sector_starts(3)[m], math.comb(3, m)
            placed[start:start + size, start:start + size] = dec.blocks[m]
        assert np.array_equal(placed, op.to_dense())


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


def test_report_keeps_a_float64_batch_and_converts_anything_else():
    report = VerificationReport()
    given = np.array([0.0, 1e-12, 2.0])
    report.add_batch(["a", "b", "c"], given, 1e-10)
    assert np.shares_memory(report._batches[-1].residuals, given)
    for other in (given.astype(np.float32), [0.0, 1e-12, 2.0], np.array([0, 0, 2])):
        report.add_batch(["a", "b", "c"], other, 1e-10)
        kept = report._batches[-1].residuals
        assert kept.dtype == np.float64 and not np.shares_memory(kept, given)
    assert list(report.passed) == [True, True, False] * 4
    # a rejected batch records nothing
    with pytest.raises(ValueError):
        report.add_batch(["a", "b"], np.array([0.0, np.nan]), 1e-10)
    assert len(report.names) == 12


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
    assert {
        "anticomm/n03", "closure/standard/n03", "eij/n03m01", "outer/n03m02"
    } <= set(report.timings)
    batched = ("anticomm/", "closure/", "eij/", "outer/")
    assert all(c.elapsed == 0.0 for c in report.checks if c.name.startswith(batched))
    restored = VerificationReport.from_dict(json.loads(report.to_json()))
    assert restored.timings == report.timings


def test_run_suite_checks_every_sector_unit_algebra_exhaustively():
    report = verify.run_suite(6)
    assert report.overall
    assert len(report.checks) == 18_387
    digest = hashlib.sha256(repr(report.signature()).encode()).hexdigest()
    assert digest == (DATA / "run_suite6_catalogue.sha256").read_text().strip()
    # the report before representation_checks: without the ucnm number
    # commutant and the span checks, with the ucnm families named sector
    earlier = tuple(sorted(
        (re.sub(r"^(closure|block)/ucnm/", r"\1/sector/", name), passed, residual)
        for name, passed, residual in report.signature()
        if not name.startswith("numcomm/ucnm/") and "/span/" not in name
    ))
    assert len(earlier) == 17_902
    # every name and verdict as the scipy.sparse kernels gave them, and every
    # residual bit as the numpy kernels give them (within 1e-15 of scipy's,
    # test_closure_kernel_stays_within_1e15_of_the_scipy_kernel_on_run_suite6)
    # or, for the standard representations, their one-particle blocks (within
    # 1e-15 of the kernel, test_whole_set_and_factored_closure_paths_agree)
    verdicts = hashlib.sha256(repr(tuple(c[:2] for c in earlier)).encode())
    assert verdicts.hexdigest() == (DATA / "run_suite6_verdicts.sha256").read_text().strip()
    digest = hashlib.sha256(repr(earlier).encode()).hexdigest()
    assert digest == (DATA / "run_suite6_signature.sha256").read_text().strip()
    names = [c.name for c in report.checks]
    assert not any("sampled" in name for name in names)
    for n in range(2, 7):
        for m in range(1, n):
            prefix = f"eij/n{n:02d}m{m:02d}/["
            count = sum(name.startswith(prefix) for name in names)
            assert count == math.comb(n, m) ** 2, (n, m)


def test_factored_closure_path_records_its_batch_time():
    gens = liealg.generalized_gell_mann(4)
    rep = schwinger.standard_rep(gens, 4)
    report = verify.check_closure(rep, liealg.structure_constants(gens), label="x")
    assert report.overall and len(report.checks) == 15 * 14 // 2 + 15
    spans = [c for c in report.checks if c.name.startswith("x/span/")]
    assert [c.name for c in spans] == [f"x/span/{g:03d}" for g in range(1, 16)]
    assert all(c.residual == 0.0 for c in spans)
    assert set(report.timings) == {"x"} and report.timings["x"] > 0
    assert all(c.elapsed == 0.0 for c in report.checks)


def _gell_mann_mix():
    """G'_a = lambda_a + lambda_(a+1): a non-orthogonal basis of su(3).

    Its structure constants include rounding-noise records below 1e-14.
    """
    gm = liealg.gell_mann()
    return liealg.GeneratorSet.create([gm[a] + gm[a + 1] for a in range(7)] + [gm[7]])


def _factored_closure(ops, sc, tol=verify.DEFAULT_TOL, label="x"):
    """check_closure on the factored path: ops as a standard representation,
    split into its pair checks and its span checks."""
    rep = schwinger.RepresentationResult.from_ops(
        ops, schwinger.RepMeta("standard", ops[0].modes)
    )
    report = verify.check_closure(rep, sc, tol, label=label)
    pairs = [c for c in report.checks if "/span/" not in c.name]
    spans = [c for c in report.checks if "/span/" in c.name]
    assert [c.name for c in spans] == [f"{label}/span/{g:03d}" for g in range(1, len(ops) + 1)]
    return report, pairs, spans


def test_whole_set_and_factored_closure_paths_agree():
    mix = _gell_mann_mix()
    mix_sc = liealg.structure_constants(mix)
    assert np.min(np.abs(mix_sc.c["value"])) < 1e-14
    # the non-orthogonal basis, then each standard representation of run_suite(6)
    cases = [(list(schwinger.standard_rep(mix, 3)), mix_sc)]
    for n in range(2, 7):
        gens, sc = _ggm_with_constants(n)
        cases.append((list(schwinger.standard_rep(gens, n)), sc))
    for ops, constants in cases:
        # an operator list takes the whole-set kernel
        whole = verify.check_closure(ops, constants, label="x")
        factored, pairs, spans = _factored_closure(ops, constants)
        assert whole.overall and factored.overall
        assert all(c.residual == 0.0 for c in spans)
        assert [c[:2] for c in whole.signature()] == [(c.name, c.passed) for c in pairs]
        assert max(abs(a.residual - b.residual) for a, b in zip(pairs, whole.checks)) <= 1e-15

    # a flipped entry of a two-particle state leaves the one-particle block
    # alone, so only the span check of that operator can see it
    gens, sc = _ggm_with_constants(4)
    ops = list(schwinger.standard_rep(gens, 4))
    two = fock.sector_indices(4, 2)
    entry = np.flatnonzero(np.isin(sparse.coo_rows(ops[3].mat), two))[0]
    ops[3] = _flip_entry(ops[3], entry)
    assert not verify.check_closure(ops, sc, label="x").overall
    factored, pairs, spans = _factored_closure(ops, sc)
    assert [c.name for c in factored.failed()] == ["x/span/004"]
    assert spans[3].residual == 2 * abs(ops[3].mat.data[entry])


def test_report_extend_sums_timings():
    a = VerificationReport()
    a.timings["batch"] = 1.0
    b = VerificationReport()
    b.timings.update({"batch": 0.5, "other": 2.0})
    a.extend(b)
    assert a.timings == {"batch": 1.5, "other": 2.0}


# -- the streamed JSON report against the per-check json.dumps encoder -----------


def _json_per_check(report):
    """The report as json.dumps writes it, one check at a time."""
    checks = ",".join(
        "\n" + json.dumps(
            {"name": c.name, "passed": c.passed, "residual": c.residual, "elapsed": c.elapsed}
        )
        for c in report.checks
    )
    return (
        f'{{\n"params": {json.dumps(report.params)},\n'
        f'"overall": {json.dumps(report.overall)},\n'
        f'"checks": [{checks}\n],\n'
        f'"timings": {json.dumps(report.timings)}\n}}\n'
    )


def _text_per_check(report):
    """The text report as one f-string per check, joined."""
    lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}  residual={c.residual:.3e}"
             for c in report.checks]
    lines.append(f"overall: {'PASS' if report.overall else 'FAIL'} "
                 f"({len(report)} checks, {report.failed_count()} failed)")
    return "\n".join(lines)


_TOL = 1e-10
_NAMES = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e'), st.characters()),
    max_size=12,
)
_RESIDUALS = st.one_of(
    st.sampled_from([
        0.0, 5e-324, 1e300, _TOL, math.nextafter(_TOL, 0.0), math.nextafter(_TOL, 1.0), 0.1 + 0.2,
    ]),
    st.floats(min_value=0.0, allow_infinity=False),
)
_CHUNK = fermirep.report._CHUNK


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    checks=st.lists(st.tuples(_NAMES, _RESIDUALS), min_size=1, max_size=8),
    single=st.lists(st.tuples(_NAMES, _RESIDUALS, _RESIDUALS), max_size=3),
    length=st.sampled_from([0, 1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]),
    params=st.dictionaries(_NAMES, st.one_of(st.integers(), _RESIDUALS, _NAMES), max_size=3),
    timings=st.dictionaries(_NAMES, _RESIDUALS, max_size=3),
)
def test_streamed_report_equals_the_per_check_encoder(checks, single, length, params, timings):
    report = VerificationReport(params)
    drawn = [checks[a % len(checks)] for a in range(length)]
    report.add_batch([name for name, _ in drawn], np.array([r for _, r in drawn]), _TOL)
    for name, residual, elapsed in single:
        report.add(name, residual, _TOL, elapsed)
    report.timings.update(timings)

    text = report.to_json()
    assert text == _json_per_check(report)
    buffer = io.StringIO()
    report.write_json(buffer)
    assert buffer.getvalue() == text
    buffer = io.StringIO()
    report.write_text(buffer)
    assert buffer.getvalue() == report.to_text() == _text_per_check(report)
    restored = VerificationReport.from_dict(json.loads(text))
    assert restored == report
    assert restored.elapsed == report.elapsed and restored.timings == report.timings


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0, -5e-324])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_add_batch_refuses_a_bad_residual_and_records_nothing(bad, at):
    with pytest.raises(ValueError) as single:
        VerificationReport().add("x", bad, 1e-10)
    report = VerificationReport()
    report.add("kept", 0.5, 1e-10, elapsed=0.25)
    report.add_batch(["a", "b"], np.array([0.0, 1.0]), 1e-10)
    before = [list(col) for col in (report.names, report.passed, report.residuals, report.elapsed)]
    residuals = np.array([0.0, 1e-12, 2.0, 5e-324, 3.0])
    residuals[at] = bad
    with pytest.raises(ValueError) as batch:
        report.add_batch([f"new{a}" for a in range(5)], residuals, 1e-10)
    assert str(batch.value) == str(single.value)
    after = [report.names, report.passed, report.residuals, report.elapsed]
    assert after == before


def test_checks_are_built_only_for_failures(monkeypatch, tmp_path):
    from fermirep.cli.main import main

    made, real = [], verify.CheckResult

    def counting(*args):
        made.append(args[0])
        return real(*args)

    monkeypatch.setattr(fermirep.report, "CheckResult", counting)
    assert verify.run_suite(6).overall
    assert made == []

    report = tmp_path / "report.json"
    assert main(["verify", "--n-max", "3", "--format", "json", "--report", str(report)]) == 0
    assert made == []

    out = tmp_path / "std3"
    assert main(["build", "un-standard", "--n", "3", "--out", str(out)]) == 0
    target = out / "generator_001.json"
    payload = json.loads(target.read_text())
    payload["entries"][0]["re"] += 0.5
    target.write_text(json.dumps(payload))
    assert main(["verify", "--from", str(out), "--format", "json", "--report", str(report)]) == 1
    failed = [c["name"] for c in json.loads(report.read_text())["checks"] if not c["passed"]]
    assert failed and made == failed


@pytest.mark.parametrize("check", [
    {"name": "x", "passed": "false", "residual": 5.0},
    {"name": "x", "passed": 0, "residual": 5.0},
    {"name": "x", "passed": None, "residual": 0.0},
    {"name": 7, "passed": True, "residual": 0.0},
    {"name": ["x"], "passed": False, "residual": 0.0},
    {"passed": True, "residual": 0.0},
    {"name": "x", "residual": 0.0},
    {"name": "x", "passed": True, "residual": "0.5"},
    {"name": "x", "passed": True, "residual": True},
    {"name": "x", "passed": True, "residual": None},
    {"name": "x", "passed": True},
    {"name": "x", "passed": True, "residual": 0.0, "elapsed": "0.5"},
    {"name": "x", "passed": True, "residual": 0.0, "elapsed": False},
    {"name": "x", "passed": True, "residual": 10**400},
    {"name": "x", "passed": True, "residual": 0.0, "elapsed": float("nan")},
    "b",
    ["x", True, 0.0],
])
def test_from_dict_refuses_a_non_boolean_verdict_or_a_non_string_name(check):
    # residual and elapsed must be JSON numbers: an int is one, a bool or a string is not
    good = {"name": "ok", "passed": True, "residual": 0, "elapsed": 0.25}
    assert VerificationReport.from_dict({"checks": [good]}).checks == (
        verify.CheckResult("ok", True, 0.0, 0.25),)
    with pytest.raises(ValueError, match="^check 1: "):
        VerificationReport.from_dict({"params": {}, "checks": [good, check], "timings": {}})


@pytest.mark.parametrize("payload", [{"checks": "ab"}, {"checks": None}, {"checks": {}}, {}])
def test_from_dict_refuses_checks_that_are_not_a_list(payload):
    with pytest.raises(ValueError, match="checks must be a list"):
        VerificationReport.from_dict(payload)


def _closure_of_zero_operators():
    """check_closure of 775 zero operators, 299,925 pair checks in one batch,
    with the bytes its report holds and the call's traced peak."""
    k = 775
    ops = [FockOperator.zero(1)] * k
    sc = liealg.StructureConstants(k, np.zeros(0, dtype=liealg.RECORD_DTYPE))
    verify.check_closure(ops[:3], liealg.StructureConstants(3, sc.c))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = verify.check_closure(ops, sc)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(report) == k * (k - 1) // 2 and report.overall
    return report, held, peak


def test_a_report_holds_a_pair_batch_in_at_most_16_bytes_per_check():
    report, held, _ = _closure_of_zero_operators()
    assert held / len(report) <= 16


def test_closure_places_the_pair_residuals_within_24_bytes_per_pair():
    # the pair-ordered residuals, add_batch's copy of them and the verdicts
    report, _, peak = _closure_of_zero_operators()
    assert peak / len(report) <= 24


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    prefix=st.sampled_from(["", "closure/", 'p"\\/\u00e9\n/']),
    k=st.sampled_from([0, 1, 2, 5, 12, 101]),
    upper=st.booleans(),
    kinds=st.sampled_from([("",), ("aa", "cc", "ac"), ('"', "\u2028")]),
    chunk=st.sampled_from([1, 5, 64, fermirep.report._CHUNK]),
)
def test_pair_name_batches_stream_as_the_per_check_encoder(prefix, k, upper, kinds, chunk):
    # pair names are written from tables of their pieces, chunk checks at a time
    names = fermirep.report._PairNames(prefix, k, upper, kinds)
    report = VerificationReport()
    report.add("first", 0.5, _TOL, 0.25)
    report.add_batch(names, np.arange(len(names)) * 0.1, 0.5)
    report.add_batch(["last"], [-0.0], _TOL)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fermirep.report, "_CHUNK", chunk)
        assert report.to_json() == _json_per_check(report)
        assert report.to_text() == _text_per_check(report)


def test_failed_generates_names_only_up_to_the_failures_it_returns():
    made = []

    class Counted(fermirep.report._PairNames):
        def __iter__(self):
            for name in super().__iter__():
                made.append(name)
                yield name

    residuals = np.zeros(45)
    residuals[[5, 40]] = 1.0
    report = VerificationReport()
    report.add_batch(Counted("clean/", 10, True), np.zeros(45), _TOL)
    report.add_batch(Counted("x/", 10, True), residuals, _TOL)
    assert report.failed_count() == 2 and not report.overall and made == []
    assert [c.name for c in report.failed(limit=1)] == ["x/[01,07]"]
    assert made == ["x/[01,02]", "x/[01,03]", "x/[01,04]", "x/[01,05]", "x/[01,06]", "x/[01,07]"]


# names that repeat across batches, and that fall inside the pattern batches' name ranges
_SORT_NAMES = st.one_of(_NAMES, st.sampled_from([
    "", "x/", "x/[01,02]", "x/[02,01]", "x/[05,05]", "x/[100,01]", "x/aa[01,01]", "closure/[01,02]",
]))


@st.composite
def _batches(draw):
    """One recording step: ("add", name, residual, elapsed), ("batch", names,
    residuals) with a list or a pair pattern of names, or ("sub", steps)."""
    kind = draw(st.sampled_from(["add", "list", "pattern"]))
    if kind == "add":
        return ("add", draw(_SORT_NAMES), draw(_RESIDUALS), draw(_RESIDUALS))
    if kind == "list":
        names = draw(st.lists(_SORT_NAMES, max_size=6))
    else:
        # past 99 the index tags have unequal widths (large k drawn as pairs a < b only)
        k = draw(st.one_of(st.integers(0, 5), st.sampled_from([99, 100, 120])))
        names = fermirep.report._PairNames(
            draw(st.sampled_from(["", "x/", "closure/"])),
            k,
            k > 5 or draw(st.booleans()),
            ("",) if k > 5 else draw(st.sampled_from([("",), ("aa", "cc", "ac")])),
        )
    pool = draw(st.lists(_RESIDUALS, min_size=1, max_size=4))
    return ("batch", names, [pool[a % len(pool)] for a in range(len(names))])


def _sorted_as_one_list(report):
    """The report with every name generated and all its checks stably sorted
    by name into one list batch."""
    names = report.names
    order = sorted(range(len(names)), key=names.__getitem__)
    oracle = VerificationReport(report.params)
    oracle.timings = dict(report.timings)
    oracle._batches = [fermirep.report._Batch(
        [names[a] for a in order],
        np.array(report.residuals)[order],
        np.array(report.passed, dtype=bool)[order],
        np.array(report.elapsed)[order],
    )]
    return oracle


def _record(report, steps):
    for step in steps:
        if step[0] == "add":
            report.add(step[1], step[2], _TOL, step[3])
        elif step[0] == "batch":
            report.add_batch(step[1], np.array(step[2]), _TOL)
        else:
            sub = VerificationReport()
            _record(sub, step[1])
            report.extend(sub)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.one_of(_batches(), st.tuples(st.just("sub"), st.lists(_batches(), max_size=3))),
                max_size=6),
       st.integers(0, 5))
def test_batched_report_equals_its_materialized_columns(steps, limit):
    report = VerificationReport()
    _record(report, steps)
    columns = list(zip(report.names, report.passed, report.residuals, report.elapsed))
    assert report.checks == tuple(verify.CheckResult(*c) for c in columns)
    assert len(report) == len(columns)
    assert report.signature() == tuple(c[:3] for c in columns)
    failures = [c for c in report.checks if not c.passed]
    assert report.failed() == failures and report.failed(limit) == failures[:limit]
    assert report.failed_count() == len(failures)
    assert report.overall == (not failures)
    assert report.max_residual() == max(report.residuals, default=0.0)

    restored = VerificationReport.from_dict(json.loads(report.to_json()))
    assert restored.signature() == report.signature()
    assert restored.elapsed == report.elapsed

    expected = _sorted_as_one_list(report)
    report.sort_by_name()
    assert report.names == expected.names and report.passed == expected.passed
    assert report.residuals == expected.residuals and report.elapsed == expected.elapsed
    assert report.to_json() == expected.to_json()
    assert report.failed() == [c for c in report.checks if not c.passed]
    restored.sort_by_name()
    assert restored == report and restored.to_json() == report.to_json()


def test_sort_by_name_merges_batches_that_meet_at_one_name():
    # the later batch ends at the name the earlier one starts with: the
    # earlier batch's check of that name stays first
    report = VerificationReport()
    report.add_batch(["b", "c"], [1.0, 2.0], _TOL)
    report.add_batch(["a", "b"], [3.0, 4.0], _TOL)
    report.add_batch(fermirep.report._PairNames("d", 2, True), [5.0], _TOL)
    report.sort_by_name()
    assert report.names == ["a", "b", "b", "c", "d[01,02]"]
    assert report.residuals == [3.0, 1.0, 4.0, 2.0, 5.0]
    assert isinstance(report._batches[-1].names, fermirep.report._PairNames)


def test_sorting_the_run_suite6_report_keeps_its_patterns_in_under_1_mb(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(VerificationReport, "sort_by_name", lambda self: None)
        report = verify.run_suite(6)
    in_order = [b.names for b in report._batches
                if isinstance(b.names, fermirep.report._PairNames) and b.names.in_order]
    assert len(in_order) == 37
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report.sort_by_name()
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak <= 1e6 and held <= 0.1e6, (peak, held)
    kept = {id(b.names) for b in report._batches}
    assert all(id(names) in kept for names in in_order)
    assert len(report) == 18_387


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
        op = units[a]
        kind = draw(st.sampled_from(["flip", "scale", "stray", "zero"]))
        if kind in ("flip", "scale") and op.nnz:
            which = draw(st.integers(0, op.nnz - 1))
            factor = -1 if kind == "flip" else draw(st.sampled_from([-3, -2, 0, 2, 3]))
            op = _scaled_entry(op, which, factor)
        elif kind == "stray":
            r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            op = op + FockOperator.from_entries(n, {(r, c): draw(st.integers(1, 3))})
        elif kind == "zero":
            op = op * 0
        units[a] = op
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


def _oracle_anticomm(n, tol, annihilation_source):
    """The anticommutation checks as 3n^2 pairwise anticommutators."""
    ann = [annihilation_source(n, i) for i in range(1, n + 1)]
    cre = [a.dagger() for a in ann]
    eye = FockOperator.identity(n)
    report = VerificationReport()
    for i in range(n):
        for j in range(n):
            pair = f"[{i + 1:02d},{j + 1:02d}]"
            delta = eye if i == j else FockOperator.zero(n)
            report.add(f"anticomm/n{n:02d}/aa{pair}", ann[i].anticommutator(ann[j]).max_abs(), tol)
            report.add(f"anticomm/n{n:02d}/cc{pair}", cre[i].anticommutator(cre[j]).max_abs(), tol)
            report.add(
                f"anticomm/n{n:02d}/ac{pair}",
                (ann[i].anticommutator(cre[j]) - delta).max_abs(), tol,
            )
    return report


@st.composite
def _corrupted_ladders(draw):
    n = draw(st.integers(1, 4))
    ann = [fock.annihilation(n, i) for i in range(1, n + 1)]
    dim = 1 << n
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        op = ann[i]
        kind = draw(st.sampled_from(["flip", "scale", "stray", "zero"]))
        if kind in ("flip", "scale") and op.nnz:
            which = draw(st.integers(0, op.nnz - 1))
            factor = -1 if kind == "flip" else draw(st.sampled_from([-3, -2, 0, 2, 3]))
            op = _scaled_entry(op, which, factor)
        elif kind == "stray":
            r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            op = op + FockOperator.from_entries(n, {(r, c): draw(st.integers(1, 3))})
        elif kind == "zero":
            op = op * 0
        ann[i] = op
    return n, ann


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_corrupted_ladders())
def test_anticommutation_kernel_matches_pairwise_oracle(case):
    n, ann = case

    def source(modes, i):
        assert modes == n
        return ann[i - 1]

    fast = verify.check_anticommutation(n, annihilation_source=source)
    slow = _oracle_anticomm(n, 0.0, source)
    assert fast.signature() == slow.signature()
    assert set(fast.timings) == {f"anticomm/n{n:02d}"}
    assert all(c.elapsed == 0.0 for c in fast.checks)


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
def _corrupted_representations(draw, kinds=("ucnm", "mixed", "standard")):
    kind = draw(st.sampled_from(kinds))
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
            pairing = "same" if draw(st.booleans()) else "conjugate"
            ops = list(schwinger.mixed_rep(gens, n, m, 1, 1, pairing).ops)
    dim = 1 << n
    counts = fock._particle_counts(n)
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, len(ops) - 1))
        op = ops[a]
        op = FockOperator(n, sparse.with_data(op.mat, op.mat.data.astype(np.complex128)))
        what = draw(st.sampled_from(["link", "edge", "flip", "zero"]))
        if what == "link":
            s, t = draw(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True))
            r = draw(st.sampled_from(np.flatnonzero(counts == s).tolist()))
            c = draw(st.sampled_from(np.flatnonzero(counts == t).tolist()))
            op = op + FockOperator.from_entries(n, {(r, c): draw(st.integers(1, 3))})
        elif what == "edge":
            r, c = draw(st.sampled_from([(0, 0), (dim - 1, dim - 1), (0, dim - 1)]))
            op = op + FockOperator.from_entries(n, {(r, c): 1.5 - 0.5j})
        elif what == "flip" and op.nnz:
            op = _flip_entry(op, draw(st.integers(0, op.nnz - 1)))
        elif what == "zero":
            op = op * 0
        ops[a] = op
    return ops, sc


def _span_oracle(stack, n):
    """The span check by rebuilding, independently of the builder it guards:
    rho(C_g) summed from the ladder products a+_a a_b term by term in
    row-major order, then subtracted."""
    dim, k = 1 << n, stack.shape[0] >> n
    one = sparse.take_rows(stack, (np.arange(k)[:, None] * dim + np.arange(1, n + 1)).ravel())
    rows, cols = sparse.coo_rows(one), one.indices
    inside = (cols >= 1) & (cols <= n)
    coeffs = np.zeros((k * n, n), dtype=np.complex128)
    coeffs[rows[inside], cols[inside] - 1] = one.data[inside]
    coeffs, span = coeffs.reshape(k, n * n), np.zeros(k)
    modes = range(1, n + 1)
    terms = [fock.creation(n, a) @ fock.annihilation(n, b) for a in modes for b in modes]
    for g, row in enumerate(coeffs):
        rebuilt = FockOperator.zero(n)
        for t in np.flatnonzero(row):
            rebuilt = rebuilt + complex(row[t]) * terms[t]
        diff = sparse.subtract(sparse.take_rows(stack, slice(g * dim, (g + 1) * dim)), rebuilt.mat)
        span[g] = np.max(np.abs(diff.data), initial=0.0)
    return coeffs, span


@st.composite
def _spanned_stacks(draw):
    """A standard representation's stack of random coefficient rows (zero,
    real, diagonal-only or complex), with at most one corruption."""
    n, k = draw(st.integers(2, 7)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    coeffs[rng.random((k, n, n)) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0
    for g in range(k):
        kind = draw(st.sampled_from(["zero", "real", "diagonal", "complex", "integer"]))
        if kind == "zero":
            coeffs[g] = 0
        elif kind == "real":
            coeffs[g] = coeffs[g].real
        elif kind == "diagonal":
            coeffs[g] *= np.eye(n)
        elif kind == "integer":
            # diagonal sums that cancel exactly leave places rho(C_g) does not fill
            coeffs[g] = np.diag(rng.integers(-1, 2, size=n))
    stack = _tall(schwinger.standard_rep(coeffs, n).flat)
    dim, masks = 1 << n, fock.build_basis(n)
    rows, cols, data = sparse.coo_rows(stack), stack.indices, stack.data.copy()
    what = draw(st.sampled_from(["none", "perturb", "delete", "off-pattern", "diagonal", "flip"]))
    e = draw(st.integers(0, max(len(data) - 1, 0)))
    if what in ("perturb", "flip", "delete") and len(data):
        if what == "perturb":
            data[e] += draw(st.sampled_from([1e-3, 1e-15, 1j, -0.5]))
        elif what == "flip":
            data[e] = -data[e]
        else:
            keep = np.arange(len(data)) != e
            rows, cols, data = rows[keep], cols[keep], data[keep]
    elif what in ("off-pattern", "diagonal"):
        g = draw(st.integers(0, k - 1))
        held = set(zip(rows.tolist(), cols.tolist()))
        if what == "diagonal":
            places = [(g * dim + s, s) for s in range(dim) if (g * dim + s, s) not in held]
        else:
            # neither the diagonal nor a one-particle move
            places = [(g * dim + r, c) for r in range(dim) for c in range(dim)
                      if bin(int(masks[r]) ^ int(masks[c])).count("1") not in (0, 2)
                      or bin(int(masks[r])).count("1") != bin(int(masks[c])).count("1")]
        if places:
            r, c = places[draw(st.integers(0, len(places) - 1))]
            rows, cols, data = np.append(rows, r), np.append(cols, c), np.append(data, 0.25 - 2j)
    return sparse.from_triplets(rows, cols, data, stack.shape), n


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_spanned_stacks(), st.sampled_from([1, 64, verify._SPAN_ENTRIES]))
def test_span_from_stored_entries_equals_the_rebuilt_oracle(case, bound):
    stack, n = case
    with pytest.MonkeyPatch.context() as mp:
        # small bounds take the operators in several groups
        mp.setattr(verify, "_SPAN_ENTRIES", bound)
        coeffs, span = verify._span(_flat(stack), n)
    want_coeffs, want_span = _span_oracle(stack, n)
    assert coeffs.tobytes() == want_coeffs.tobytes()
    assert span.tobytes() == want_span.tobytes()


def test_representation_checks_drops_each_part_once_checked(monkeypatch):
    n = 8
    gens = liealg.generalized_gell_mann(n)
    yielded, alive, span = [], [], verify._span

    def parts():
        for part in schwinger.standard_parts(gens, n):
            yielded.append(weakref.ref(part))
            yield part

    def counted(flat, modes):
        alive.append(sum(ref() is not None for ref in yielded))
        return span(flat, modes)

    monkeypatch.setattr(verify, "_span", counted)
    report = verify.representation_checks(parts(), gens)
    assert report.overall and len(alive) >= 3
    # only the part being checked is held
    assert alive == [1] * len(alive)


@pytest.mark.parametrize("variant", ["standard", "ucnm"])
def test_representation_checks_refuses_a_representation_of_another_size(variant):
    gens = liealg.generalized_gell_mann(3)
    rep = schwinger.standard_rep(gens, 3) if variant == "standard" else schwinger.rep_ucnm(gens, 3, 1)
    meta = replace(rep.meta, labels=rep.meta.labels[:5])
    part = schwinger.RepresentationResult.from_ops(list(rep)[:5], meta)
    with pytest.raises(ValueError, match="rep has 5 operators but gens has 8 members"):
        verify.representation_checks(part, gens)


# -- sector variants closed through their generator sets, against the 2^n kernel ---

# two units in the last place of 1: how far summation order moves a residual
_ROUNDING = 2 * np.finfo(float).eps


def _closure_against_the_kernel(rep, gens):
    """The closure residuals representation_checks reports for rep and those of
    the 2^n kernel on its operators as a list (the oracle), pair by pair."""
    report = verify.representation_checks(rep, gens, verify.DEFAULT_TOL)
    reported = [c for c in report.checks if c.name.startswith("closure/")]
    oracle = verify.check_closure(list(rep), gens.constants, label="x").checks
    assert [c.name.rsplit("/", 1)[1] for c in reported] == [c.name[2:] for c in oracle]
    return np.array([c.residual for c in reported]), np.array([c.residual for c in oracle])


def _mixed_cases():
    for n, m in ((5, 2), (4, 1)):
        gens = liealg.generalized_gell_mann(math.comb(n, m))
        for pairing in ("same", "conjugate"):
            for xi in ((1, 0), (0, 1), (1, 1)):
                yield pytest.param(n, m, pairing, xi, id=f"mixed-n{n}m{m}-{pairing}-{xi[0]}{xi[1]}")


@pytest.mark.parametrize("n, m", [
    (n, m) for n in range(2, 7) for m in range(1, n)
    if math.comb(n, m) <= verify._MAX_SECTOR_REP_DIM or (n, m) == (6, 2)
])
def test_ucnm_closure_is_the_kernel_within_rounding(n, m):
    # run_suite(6)'s ucnm representations, and (6, 2)
    gens = liealg.generalized_gell_mann(math.comb(n, m))
    reported, oracle = _closure_against_the_kernel(schwinger.rep_ucnm(gens, n, m), gens)
    assert np.max(np.abs(reported - oracle), initial=0.0) <= _ROUNDING


@pytest.mark.parametrize("n, m, pairing, xi", list(_mixed_cases()))
def test_mixed_closure_is_the_kernel_within_rounding(n, m, pairing, xi):
    gens = liealg.generalized_gell_mann(math.comb(n, m))
    rep = schwinger.mixed_rep(gens, n, m, *xi, pairing)
    reported, oracle = _closure_against_the_kernel(rep, gens)
    assert np.max(np.abs(reported - oracle), initial=0.0) <= _ROUNDING


@pytest.mark.parametrize("n", range(3, 9))
def test_nssfr_closure_bounds_the_kernel_within_1e14(n):
    # its blocks differ from G by rounding, so the bound adds their terms
    gens = liealg.generalized_gell_mann(n)
    reported, oracle = _closure_against_the_kernel(schwinger.nssfr_un(gens, n), gens)
    assert np.all(reported >= oracle - _ROUNDING)
    assert np.all(reported <= oracle + 1e-14)


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["nssfr", "ucnm", "same", "conjugate"]), st.data())
def test_sector_closure_bounds_the_kernel_on_corrupted_representations(kind, data):
    n = data.draw(st.integers(3, 5))
    if kind == "nssfr":
        gens = liealg.generalized_gell_mann(n)
        rep = schwinger.nssfr_un(gens, n)
    else:
        m = data.draw(st.integers(1, n - 1).filter(lambda m: kind == "ucnm" or 2 * m != n))
        gens = liealg.generalized_gell_mann(math.comb(n, m))
        rep = (schwinger.rep_ucnm(gens, n, m) if kind == "ucnm"
               else schwinger.mixed_rep(gens, n, m, 1, data.draw(st.integers(0, 1)), kind))
    ops, dim = list(rep), 1 << n
    for _ in range(data.draw(st.integers(1, 3))):
        a, r, c = (data.draw(st.integers(0, top - 1)) for top in (len(ops), dim, dim))
        value = data.draw(st.sampled_from([1e-12, 1e-8, 0.25, -1.0, 2j]))
        ops[a] = ops[a] + FockOperator.from_entries(n, {(r, c): value})
    broken = schwinger.RepresentationResult.from_ops(ops, rep.meta)
    reported, oracle = _closure_against_the_kernel(broken, gens)
    assert np.all(reported >= oracle - _ROUNDING)


def _dense_bound(sets, constants, delta, n):
    """_sector_closure's bound for each pair a < b as it was formed before, on
    k x k arrays from the dense matrices of the sets."""
    mats = [np.array(list(s)) for s in sets]
    norms = np.max([[np.abs(m).sum(axis=x).max(axis=1) for x in (2, 1)] for m in mats], axis=0)
    bound = np.outer(norms.sum(axis=0) + delta * (1 << n), delta)
    bound += bound.T
    c = constants.c
    np.add.at(bound, (c["i"], c["j"]), np.abs(c["value"]) * delta[c["l"]])
    return bound[np.triu_indices(len(delta), 1)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(["ucnm", "same", "conjugate", "rotated"]), st.data())
def test_sector_closure_bound_is_the_dense_formula_bit_for_bit(kind, data):
    # row sums of a Gell-Mann matrix hold one entry; a rotated set's are
    # summed in order only below d = 8, as numpy sums a dense row there
    d = data.draw(st.integers(2, 7 if kind == "rotated" else 12))
    gens = liealg.generalized_gell_mann(d)
    if kind == "rotated":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        gens = liealg.GeneratorSet.create([u @ g @ u.conj().T for g in gens])
    sets = {"same": [gens, gens], "conjugate": [gens, liealg.conjugate_rep(gens)]}.get(kind, [gens])
    k, n, sc = len(gens), data.draw(st.integers(3, 8)), liealg.structure_constants(gens)
    delta = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 3e-16, 1e-12, 0.25, 2.0]),
                                        min_size=k, max_size=k)))

    def closure(residuals):
        block = VerificationReport()
        block.add_batch([f"b/{a}" for a in range(k)], residuals, 1e-10)
        return np.array(verify._sector_closure(gens, sets, block, n, 1e-10, "x", 0.0).residuals)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_CLOSURE_PAIR_BYTES", data.draw(st.sampled_from([8, 56, 1 << 18])))
        got = closure(delta)
    want = closure(np.zeros(k)) + _dense_bound(sets, sc, delta, n)
    assert got.tobytes() == want.tobytes()


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


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_corrupted_representations(kinds=("standard",)))
def test_factored_closure_matches_full_space_oracle(case):
    ops, sc = case
    tol = verify.DEFAULT_TOL
    factored, pairs, spans = _factored_closure(ops, sc, tol)
    slow = _oracle_closure(ops, sc, tol, "x")
    if all(c.residual == 0.0 for c in spans):
        # the operators are rho(C) of their one-particle blocks C
        assert [c[:2] for c in slow.signature()] == [(c.name, c.passed) for c in pairs]
        worst = max((abs(a.residual - b.residual) for a, b in zip(pairs, slow.checks)),
                    default=0.0)
        assert worst <= 1e-15
    else:
        assert not factored.overall
    if not slow.overall:
        assert not factored.overall


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(2, 5), st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_one_body_closure_is_the_same_in_any_batching(n, k, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(k, n * n)) + 1j * rng.normal(size=(k, n * n))
    coeffs *= rng.random((k, n * n)) < 0.6
    rec = np.zeros(3 * k, dtype=liealg.RECORD_DTYPE)
    rec["i"], rec["j"], rec["l"] = rng.integers(k, size=(3, 3 * k))
    rec["value"] = rng.normal(size=3 * k) + 1j * rng.normal(size=3 * k)
    constants = liealg.StructureConstants(k, rec)
    whole = verify._one_body_closure(coeffs, n, constants)
    with pytest.MonkeyPatch.context() as mp:
        # one pair per block batch and one per diagonal batch
        mp.setattr(verify, "_CLOSURE_PAIR_BYTES", 1)
        mp.setattr(verify, "_DIAGONAL_PAIRS", 1)
        assert verify._one_body_closure(coeffs, n, constants).tobytes() == whole.tobytes()
    # the sums over occupied sets, each added in ascending mode order from zero
    diag = coeffs.reshape(k, n, n).diagonal(axis1=1, axis2=2)
    sums = verify._subset_sums(diag)
    for s in range(1 << n):
        assert sums[:, s].tolist() == [
            sum((row[a] for a in range(n) if s >> a & 1), 0j) for row in diag.tolist()
        ]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(2, 4), st.integers(2, 7), st.integers(0, 2**32 - 1), st.sampled_from([1, 600]))
def test_one_body_expansions_are_the_pair_rows_entry_for_entry(n, k, seed, bound):
    # hand-made records, unsorted, with repeated (i, j, l) summed in their order
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(k, n * n)) + 1j * rng.normal(size=(k, n * n))
    rec = np.zeros(4 * k, dtype=liealg.RECORD_DTYPE)
    rec["i"], rec["j"], rec["l"] = rng.integers(k, size=(3, 4 * k)) // rng.integers(1, 3)
    rec["value"] = rng.normal(size=4 * k) + 1j * rng.normal(size=4 * k)
    seen, matmul = [], sparse.matmul

    def spy(a, b):
        seen.append(a)
        return matmul(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "matmul", spy)
        mp.setattr(verify, "_CLOSURE_PAIR_BYTES", bound)
        verify._one_body_closure(coeffs, n, liealg.StructureConstants(k, rec))
    # the oracle: one (k^2, k) matrix whose row i * k + j expands [G_i, G_j]
    rows = sparse.from_triplets(rec["i"] * k + rec["j"], rec["l"], rec["value"], (k * k, k))
    first, second = np.triu_indices(k, 1)
    want, got = sparse.take_rows(rows, first * k + second), sparse.vstack(seen)
    assert got.shape == want.shape and got.data.tobytes() == want.data.tobytes()
    assert np.array_equal(got.indices, want.indices) and np.array_equal(got.indptr, want.indptr)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(2, 5), st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_one_body_closure_equals_the_kernel_on_random_bilinears(n, k, seed):
    # off-diagonal and diagonal remainders of one size, so that each can be a pair's worst
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-3, 4, size=(k, n * n)) * (rng.random((k, n * n)) < 0.6)
    rec = np.zeros(2 * k, dtype=liealg.RECORD_DTYPE)
    rec["i"], rec["j"], rec["l"] = rng.integers(k, size=(3, 2 * k))
    rec["value"] = rng.integers(-2, 3, size=2 * k)
    constants = liealg.StructureConstants(k, rec)
    ops = list(schwinger.standard_rep(coeffs.reshape(k, n, n).astype(complex), n))
    kernel = [c.residual for c in verify.check_closure(ops, constants).checks]
    factored = verify._one_body_closure(coeffs.astype(complex), n, constants)
    assert factored.tolist() == kernel


# -- the closure kernel against the scipy.sparse kernel it replaced --------------


def _stack(ops):
    """The operators as consecutive row blocks: the oracles' (k * dim, dim) form."""
    return sparse.vstack([op.mat for op in ops])


def _tall(flat):
    """A (k, d^2) record read as the (k * d, d) stack of its matrices."""
    d = math.isqrt(flat.shape[1])
    return sparse.reshape(flat, (flat.shape[0] * d, d))


def _flat(tall):
    """A (k * d, d) stack read as the (k, d^2) record of its matrices."""
    d = tall.shape[1]
    return sparse.reshape(tall, (tall.shape[0] // d, d * d))


def _scipy_closure_residuals(tall, constants, sign=-1):
    """_closure_residuals as written on scipy.sparse: the same terms, with the
    terms at one place summed in the order of scipy's unstable per-row sort."""
    tall = sp.csr_matrix((tall.data, tall.indices, tall.indptr), shape=tall.shape)
    dim = tall.shape[1]
    k = tall.shape[0] // dim
    entries = tall.tocoo()
    wide = sp.csr_matrix(
        (entries.data, (entries.row % dim, entries.row // dim * dim + entries.col)),
        shape=(dim, k * dim),
    )
    product = (tall @ wide).tocoo()
    rows, cols = product.row.astype(np.int64), product.col.astype(np.int64)
    shift = (cols // dim - rows // dim) * dim
    rows, cols = np.concatenate([rows, rows + shift]), np.concatenate([cols, cols - shift])
    vals = np.concatenate([product.data, product.data if sign > 0 else -product.data])
    upper = rows // dim < cols // dim + (sign > 0)
    rows, cols, vals = rows[upper], cols[upper], vals[upper]
    c = constants.c
    chosen = np.flatnonzero(c["i"] < c["j"] + (sign > 0))
    first = tall.indptr[::dim]
    per = np.diff(first)[c["l"][chosen]]
    which = np.repeat(chosen, per)
    pos = np.arange(len(which)) + np.repeat(first[c["l"][chosen]] - np.cumsum(per) + per, per)
    rows = np.concatenate([rows, c["i"][which] * dim + entries.row[pos] % dim])
    cols = np.concatenate([cols, c["j"][which] * dim + entries.col[pos]])
    vals = np.concatenate([vals, -c["value"][which] * entries.data[pos]])
    diff = sp.csr_matrix((vals, (rows, cols)), shape=(k * dim, k * dim)).tocoo()
    keys = diff.row.astype(np.int64) // dim * k + diff.col // dim
    keys, inverse = np.unique(keys, return_inverse=True)
    worst = np.zeros(len(keys))
    np.maximum.at(worst, inverse.reshape(-1), np.abs(diff.data))
    return keys, worst


def _scipy_kernel_gap(tall, constants, sign, keys, worst):
    """Largest difference between the block maxima keys, worst and scipy's."""
    k = tall.shape[0] // tall.shape[1]
    got, want = np.zeros(k * k), np.zeros(k * k)
    got[keys] = worst
    keys, worst = _scipy_closure_residuals(tall, constants, sign)
    want[keys] = worst
    return float(np.max(np.abs(got - want), initial=0.0))


def test_closure_kernel_stays_within_1e15_of_the_scipy_kernel_on_run_suite6(monkeypatch):
    # every anticomm and eij family of the suite and closure/u3-explicit go
    # through the kernel; the representations close through their sets
    kernel, gaps = verify._closure_residuals, []

    def compared(flat, records, sign=-1):
        keys, worst = kernel(flat, records, sign)
        k = flat.shape[0]
        constants = liealg.StructureConstants(k, records(0, k))
        gaps.append(_scipy_kernel_gap(_tall(flat), constants, sign, keys, worst))
        return keys, worst

    monkeypatch.setattr(verify, "_closure_residuals", compared)
    assert len(verify.run_suite(6).checks) == 18_387
    assert len(gaps) == 6 + 15 + 1 and max(gaps) <= 1e-15


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_corrupted_representations())
def test_closure_kernel_stays_within_1e15_of_the_scipy_kernel_on_corrupted_sets(case):
    ops, sc = case
    keys, worst = verify._closure_residuals(verify._record_of(ops), sc.records)
    assert _scipy_kernel_gap(_stack(ops), sc, -1, keys, worst) <= 1e-15


# -- the chunked kernel against the whole-set kernel it replaced ------------------


def _whole_set_commutator_entries(tall, sign=-1):
    """liealg.commutator_entries before it was chunked: every block (a, b) of
    tall @ hstack(M) in one product, each entry also placed, times sign, in
    block (b, a)."""
    d = tall.shape[1]
    rows = sparse.coo_rows(tall)
    wide = sparse.from_triplets(
        rows % d, rows // d * d + tall.indices, tall.data, (d, tall.shape[0])
    )
    entries = sparse.matmul(tall, wide)
    rows, cols = sparse.coo_rows(entries), entries.indices.astype(np.int64)
    shift = (cols // d - rows // d) * d
    return (
        np.concatenate([rows, rows + shift]),
        np.concatenate([cols, cols - shift]),
        np.concatenate([entries.data, entries.data if sign > 0 else -entries.data]),
    )


def _whole_set_closure_residuals(tall, constants, sign=-1):
    """verify._closure_residuals before it was chunked: one sparse matrix for all pairs."""
    dim = tall.shape[1]
    k = tall.shape[0] // dim
    rows, cols, vals = _whole_set_commutator_entries(tall, sign)
    upper = rows // dim < cols // dim + (sign > 0)
    rows, cols, vals = rows[upper], cols[upper], vals[upper]
    c = constants.c
    chosen = np.flatnonzero(c["i"] < c["j"] + (sign > 0))
    first = tall.indptr[::dim]
    per = np.diff(first)[c["l"][chosen]]
    which = np.repeat(chosen, per)
    pos = np.arange(len(which)) + np.repeat(first[c["l"][chosen]] - np.cumsum(per) + per, per)
    rows = np.concatenate([rows, c["i"][which] * dim + sparse.coo_rows(tall)[pos] % dim])
    cols = np.concatenate([cols, c["j"][which] * dim + tall.indices[pos]])
    vals = np.concatenate([vals, -c["value"][which] * tall.data[pos]])
    diff = sparse.from_triplets(rows, cols, vals, (k * dim, k * dim))
    keys = sparse.coo_rows(diff) // dim * k + diff.indices // dim
    keys, inverse = np.unique(keys, return_inverse=True)
    return keys, verify._group_maxima(inverse.reshape(-1), diff.data, len(keys))


def _whole_set_structure_constants(gens, tol=1e-10):
    """liealg.structure_constants before it was chunked: all k^2 commutators
    projected at once."""
    k, d = len(gens), gens.dim
    flat = gens.flat
    proj = sparse.matmul(sparse.conj_transpose(flat), gens._gram_inverse)
    rows, cols, vals = _whole_set_commutator_entries(sparse.from_dense(np.vstack(list(gens))))
    pairs, row = np.unique(rows // d * k + cols // d, return_inverse=True)
    comm = sparse.from_triplets(row, rows % d * d + cols % d, vals, (len(pairs), d * d))
    coeff = sparse.matmul(comm, proj)
    diff = sparse.subtract(comm, sparse.matmul(coeff, flat))
    resid = np.zeros(k * k)
    np.maximum.at(resid, pairs[sparse.coo_rows(diff)], np.abs(diff.data))
    resid = resid.reshape(k, k)
    failing = np.flatnonzero(resid.max(axis=1) >= tol)
    if failing.size:
        i = int(failing[0])
        j = int(np.argmax(resid[i]))
        raise ClosureError(
            f"commutator of generators {i + 1} and {j + 1} leaves the span "
            f"(residual {resid[i, j]:.3e} >= {tol:.1e})"
        )
    records = np.empty(coeff.nnz, dtype=liealg.RECORD_DTYPE)
    records["i"], records["j"] = np.divmod(pairs[sparse.coo_rows(coeff)], k)
    records["l"] = coeff.indices
    records["value"] = coeff.data
    return liealg.StructureConstants(k, records)


def _whole_set_kernel(flat, records, sign=-1):
    """_closure_residuals' signature on the whole-set kernel, all records at once."""
    k = flat.shape[0]
    return _whole_set_closure_residuals(_tall(flat), liealg.StructureConstants(k, records(0, k)), sign)


# the default chunk bound, and one row block per chunk
_BOUNDS = pytest.mark.parametrize("bound", [None, 1], ids=["default", "one-block"])


@contextlib.contextmanager
def _chunk_bound(bound):
    """The kernel's chunk bound held at bound (None: left as it is)."""
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            mp.setattr(liealg, "_COMMUTATOR_TERMS", bound)
        yield


def _same_bits(got, want):
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _same_report(check, *args, **kwargs):
    """check(*args, **kwargs) with the chunked kernel and with the whole-set
    one give the same names, verdicts and residuals, to the bit."""
    fast = check(*args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_closure_residuals", _whole_set_kernel)
        slow = check(*args, **kwargs)
    got, want = fast.signature(), slow.signature()
    assert [row[:2] for row in got] == [row[:2] for row in want]
    assert np.array([row[2] for row in got]).tobytes() == np.array([row[2] for row in want]).tobytes()
    return fast


@_BOUNDS
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_corrupted_representations())
def test_chunked_kernel_equals_the_whole_set_kernel_on_corrupted_sets(bound, case):
    ops, sc = case
    with _chunk_bound(bound):
        got = verify._closure_residuals(verify._record_of(ops), sc.records)
        _same_report(verify.check_closure, ops, sc)
    assert _same_bits(got, _whole_set_closure_residuals(_stack(ops), sc))


@_BOUNDS
@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_corrupted_unit_sets())
def test_chunked_kernel_equals_the_whole_set_kernel_on_corrupted_unit_sets(bound, case):
    n, m, units = case
    k = math.isqrt(len(units))
    with _chunk_bound(bound):
        _same_report(verify.check_eij_algebra, units, k)
        flat = verify._record_of(units)
        got = verify._closure_residuals(flat, lambda a0, a1: liealg.matrix_unit_constants(k, a0, a1).c)
    assert _same_bits(got, _whole_set_closure_residuals(_stack(units), liealg.matrix_unit_constants(k)))


@_BOUNDS
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_corrupted_ladders())
def test_chunked_kernel_equals_the_whole_set_kernel_on_corrupted_ladders(bound, case):
    n, ann = case
    with _chunk_bound(bound):
        _same_report(verify.check_anticommutation, n,
                     annihilation_source=lambda modes, i: ann[i - 1])


def _non_orthogonal_spin1():
    jp, jm, j3 = liealg.spin1_matrices()
    return liealg.GeneratorSet.create([jp, jm, j3 + jp])


@_BOUNDS
@pytest.mark.parametrize(
    "make",
    [*(functools.partial(liealg.generalized_gell_mann, d) for d in range(2, 16)),
     liealg.gell_mann, liealg.spin1_matrices, _non_orthogonal_spin1],
    ids=[*(f"ggm{d}" for d in range(2, 16)), "gell_mann", "spin1", "non_orthogonal"],
)
def test_chunked_structure_constants_equal_the_whole_set_ones(bound, make):
    gens = make()
    with _chunk_bound(bound):
        got = liealg.structure_constants(gens)
    want = _whole_set_structure_constants(gens)
    assert got.size == want.size and got.c.tobytes() == want.c.tobytes()


def _outcome(extract, gens):
    """The records extract(gens) gives, as bytes, or the ClosureError text it raises."""
    try:
        return extract(gens).c.tobytes()
    except ClosureError as exc:
        return str(exc)


@_BOUNDS
def test_chunked_structure_constants_name_the_whole_set_closure_error(bound):
    # Pauli matrices on modes 1-2 close; the pair on modes 3-4 does not, and
    # the first generator to leave the span is the fourth, with the fifth
    pauli, pair = np.array(list(liealg.generalized_gell_mann(2))), np.zeros((2, 4, 4), complex)
    pair[:, 2:, 2:] = pauli[:2]
    gens = liealg.GeneratorSet.create([*np.pad(pauli, ((0, 0), (0, 2), (0, 2))), *pair])
    want = _outcome(_whole_set_structure_constants, gens)
    assert want.startswith("commutator of generators 4 and 5 leaves the span")
    with _chunk_bound(bound):
        assert _outcome(liealg.structure_constants, gens) == want


@_BOUNDS
@settings(max_examples=40, derandomize=True, deadline=None)
@given(d=st.integers(2, 5), data=st.data())
def test_chunked_structure_constants_of_any_sub_set_match_the_whole_set_ones(bound, d, data):
    mats = list(liealg.generalized_gell_mann(d))
    chosen = data.draw(st.lists(st.integers(0, len(mats) - 1), min_size=1, unique=True))
    gens = liealg.GeneratorSet.create([mats[a] for a in chosen])
    want = _outcome(_whole_set_structure_constants, gens)
    with _chunk_bound(bound):
        assert _outcome(liealg.structure_constants, gens) == want


def test_closure_of_the_su15_sector_representation_peaks_under_2_mb_traced():
    # the closure that verify --from runs on build ucnm --n 6 --m 2; all
    # pairs at once peaked at 3.3 MB
    gens, sc = _ggm_with_constants(15)
    rep = schwinger.rep_ucnm(gens, 6, 2)
    tracemalloc.start()
    try:
        report = verify.check_closure(rep, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall and len(report.checks) == 224 * 223 // 2
    assert peak < 2e6


def test_the_largest_unit_set_of_ten_modes_and_its_outer_and_numcomm_checks_peak_under_32_mib():
    # the 63,504 units of sector (10, 5) as one record; as a (k^2 * 2^n, 2^n)
    # stack they sat behind a 248 MiB row pointer, and outer peaked at 756 MiB
    tracemalloc.start()
    try:
        units = schwinger.unit_set(10, 5)
        outer = verify._outer_product_check(units, 10, 5, 0.0, "outer")
        numcomm = verify.check_number_commutant(units, 10, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outer.overall and len(outer.checks) == 1
    assert numcomm.overall and len(numcomm.checks) == 252**2
    assert peak < 32 * 2**20


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


def test_closure_of_zero_operators_is_zero():
    zero = FockOperator.zero(3)
    gens, sc = _ggm_with_constants(2)
    report = verify.check_closure([zero] * 3, sc)
    assert report.overall and report.max_residual() == 0.0
    report, pairs, spans = _factored_closure([zero] * 3, sc, label="closure")
    assert report.overall and report.max_residual() == 0.0
    assert [c.name for c in pairs] == [c.name for c in verify.check_closure([zero] * 3, sc).checks]


def test_standard_closure_at_nine_modes_peaks_under_8_mib_traced():
    # the whole-set kernel would form 970,190 product terms here, 120 MiB traced
    gens, sc = _ggm_with_constants(9)
    rep = schwinger.standard_rep(gens, 9)
    tracemalloc.start()
    try:
        report = verify.check_closure(rep, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.overall and len(report) == 80 * 79 // 2 + 80
    assert peak < 8 << 20


@pytest.mark.parametrize("n", range(2, 13))
def test_anticommutation_exact_where_closure_is_factored(n):
    # the factored closure path rests on these relations at every mode count
    report = verify.check_anticommutation(n)
    assert len(report.checks) == 3 * n * n
    assert report.overall and all(c.residual == 0.0 for c in report.checks)


def test_particle_counts_are_the_total_number_diagonal():
    for n in range(1, 9):
        counts = fock._particle_counts(n)
        assert counts.tolist() == [bin(mask).count("1") for mask in fock.build_basis(n).tolist()]
        assert counts.tolist() == sparse.diagonal(fock.total_number(n).mat).tolist()


def test_run_suite_makes_few_operator_objects(monkeypatch):
    # the suite reads each generator set as one stack; the parent of this
    # test made 2,721 FockOperators here, 1,837 of them by cutting stacks
    calls = []
    init = FockOperator.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FockOperator, "__init__", counting)
    assert verify.run_suite(6).overall
    assert len(calls) < 1000


def test_numcomm_block_and_compare_checks_are_timed_as_batches():
    gens = liealg.generalized_gell_mann(3)
    rep = schwinger.standard_rep(gens, 3)
    reports = [
        verify.check_number_commutant(rep, 3, label="x"),
        verify._block_equality_checks(rep, {1: gens.flat}, (0, 3), 3, 1e-10, "x"),
        verify.compare_ops(rep, rep, label="x"),
    ]
    for report in reports:
        assert len(report.checks) == 8 and report.overall
        assert set(report.timings) == {"x"} and report.timings["x"] > 0
        assert all(c.elapsed == 0.0 for c in report.checks)


def test_checks_read_an_operator_list_like_its_stack():
    gens, sc = _ggm_with_constants(3)
    rep = schwinger.nssfr_un(gens, 3)
    ops = list(rep)
    # a stray entry from the vacuum to the full state breaks all three
    ops[2] = ops[2] + FockOperator.from_entries(3, {(0, 7): 0.5})
    broken = schwinger.RepresentationResult.from_ops(ops, rep.meta)
    pairs = [
        (verify.check_closure(ops, sc), verify.check_closure(broken, sc)),
        (verify.compare_ops(ops, rep), verify.compare_ops(broken, rep)),
        (verify.check_number_commutant(ops, 3), verify.check_number_commutant(list(broken), 3)),
    ]
    for from_list, from_stack in pairs:
        assert not from_list.overall
        assert from_list.signature() == from_stack.signature()


def test_block_check_counts_entries_leaving_an_unconstrained_sector():
    # standard_rep at n = 4 constrains sectors 0, 1, 3 and 4 but not 2; an
    # entry from a sector-2 row to a sector-1 column still joins two sectors
    gens = liealg.generalized_gell_mann(4)
    conj = liealg.conjugate_rep(gens)
    ops = list(schwinger.standard_rep(gens, 4))
    row, col = fock.sector_indices(4, 2)[0], fock.sector_indices(4, 1)[0]
    ops[5] = ops[5] + FockOperator.from_entries(4, {(row, col): 0.25})
    rep = schwinger.RepresentationResult.from_ops(ops, schwinger.RepMeta("standard", 4))
    report = verify._block_equality_checks(rep, {1: gens.flat, 3: conj.flat}, (0, 4), 4, 1e-10, "b")
    assert [c.name for c in report.failed()] == ["b/006"]
    assert report.failed()[0].residual == 0.25


def _oracle_blocks(ops, expected_blocks, must_vanish, n, tol, label):
    """The per-operator block check: each operator's block_decompose."""
    report = VerificationReport()
    for a, op in enumerate(ops):
        dec = verify.block_decompose(op)
        worst = dec.off_block_norm
        for m in range(n + 1):
            if m in expected_blocks:
                worst = max(worst, float(np.max(np.abs(dec.blocks[m] - expected_blocks[m][a]))))
            elif m in must_vanish:
                worst = max(worst, float(np.max(np.abs(dec.blocks[m]))))
        report.add(f"{label}/{a + 1:03d}", worst, tol)
    return report


def _oracle_numcomm(ops, n, tol, label):
    """The per-operator number commutant, from each operator's entries."""
    counts = fock._particle_counts(n)
    report = VerificationReport()
    for a, op in enumerate(ops):
        rows, cols, data = sparse.coo_rows(op.mat), op.mat.indices, op.mat.data
        diff = data * counts[cols] - counts[rows] * data
        report.add(f"{label}/{a + 1:03d}", np.max(np.abs(diff), initial=0.0), tol)
    return report


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_corrupted_representations(), st.integers(0, 2**32 - 1), st.data())
def test_stack_checks_match_per_operator_oracles(case, seed, data):
    ops, _sc = case
    n, tol = ops[0].modes, verify.DEFAULT_TOL
    rng = np.random.default_rng(seed)
    sectors = data.draw(st.permutations(range(n + 1)))
    split = data.draw(st.integers(0, n + 1)), data.draw(st.integers(0, n + 1))
    expected = {
        m: list(rng.integers(-2, 3, (len(ops), math.comb(n, m), math.comb(n, m))) / 4 + 0j)
        for m in sectors[:min(split)]
    }
    vanish = sectors[min(split):max(split)]
    rep = schwinger.RepresentationResult.from_ops(ops, schwinger.RepMeta("x", n))
    records = {m: sparse.from_dense(np.reshape(b, (len(ops), -1))) for m, b in expected.items()}
    fast = verify._block_equality_checks(rep, records, vanish, n, tol, "b")
    assert fast.signature() == _oracle_blocks(ops, expected, vanish, n, tol, "b").signature()
    fast = verify.check_number_commutant(ops, n, tol, label="c")
    assert fast.signature() == _oracle_numcomm(ops, n, tol, "c").signature()
