import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermirep import liealg, schwinger, sparse, verify
from fermirep.cli import main as cli_main
from fermirep.cli import matfile
from fermirep.cli.main import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    build_variant,
    main,
)

DATA = Path(__file__).parent / "data"

LAMBDA_H4 = "(adag(1)*a(3) + adag(3)*a(1)) * (1 - 2*N(2))"


def _catalogue(group, n):
    """verify.representation_checks of what build writes for group, in memory."""
    rep, gens, _family = build_variant(group, n, None, None)
    return verify.representation_checks(rep, gens, 1e-10)


def test_build_un_nonstandard(tmp_path):
    out = tmp_path / "nssfr3"
    assert main(["build", "un-nonstandard", "--n", "3", "--out", str(out)]) == EXIT_OK
    manifest = matfile.read_manifest(out / "manifest.json")
    assert manifest["variant"] == "nssfr"
    assert len(manifest["generators"]) == 8
    for item in manifest["generators"]:
        op, meta = matfile.read_operator(out / item["file"])
        assert op.dim == 8
        assert meta["label"] == item["label"]


def test_build_ucnm_four_two(tmp_path):
    out = tmp_path / "ucnm42"
    assert main(
        ["build", "ucnm", "--n", "4", "--m", "2", "--out", str(out)]
    ) == EXIT_OK
    manifest = matfile.read_manifest(out / "manifest.json")
    assert len(manifest["generators"]) == 35
    op, _ = matfile.read_operator(out / "generator_001.json")
    assert op.dim == 16


def test_build_rejects_bad_sector(tmp_path):
    out = tmp_path / "bad"
    assert main(
        ["build", "ucnm", "--n", "4", "--m", "0", "--out", str(out)]
    ) == EXIT_USAGE
    assert main(["build", "ucnm", "--n", "4", "--out", str(out)]) == EXIT_USAGE


def test_build_unknown_group():
    assert main(["build", "nonsense", "--n", "3", "--out", "x"]) == EXIT_USAGE


def test_build_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("just a file")
    rc = main(
        ["build", "un-standard", "--n", "2", "--out", str(blocker / "sub")]
    )
    assert rc == EXIT_IO


def test_build_mixed(tmp_path):
    out = tmp_path / "mixed"
    assert main(
        ["build", "mixed", "--n", "3", "--m", "1", "--out", str(out)]
    ) == EXIT_OK
    manifest = matfile.read_manifest(out / "manifest.json")
    assert manifest["xi"] == [1, 1]


def test_build_mixed_same_pairing_is_number_selective(tmp_path):
    same = tmp_path / "same"
    nssfr = tmp_path / "nssfr"
    assert main(
        ["build", "mixed", "--n", "3", "--m", "1", "--pairing", "same", "--out", str(same)]
    ) == EXIT_OK
    assert main(["build", "un-nonstandard", "--n", "3", "--out", str(nssfr)]) == EXIT_OK
    manifest = matfile.read_manifest(same / "manifest.json")
    assert manifest["pairing"] == "same"
    reference = matfile.read_manifest(nssfr / "manifest.json")["generators"]
    for item, ref in zip(manifest["generators"], reference):
        op, meta = matfile.read_operator(same / item["file"])
        assert meta["pairing"] == "same"
        assert op.diff_max(matfile.read_operator(nssfr / ref["file"])[0]) == 0.0
    assert main(["verify", "--from", str(same)]) == EXIT_OK


def test_build_mixed_default_pairing_is_conjugate(tmp_path):
    out = tmp_path / "conj"
    assert main(["build", "mixed", "--n", "3", "--m", "1", "--out", str(out)]) == EXIT_OK
    manifest = matfile.read_manifest(out / "manifest.json")
    assert manifest["pairing"] == "conjugate"
    # at n = 3 the conjugate pairing is the bilinear representation
    std = tmp_path / "std"
    assert main(["build", "un-standard", "--n", "3", "--out", str(std)]) == EXIT_OK
    reference = matfile.read_manifest(std / "manifest.json")
    for item, ref in zip(manifest["generators"], reference["generators"]):
        op, _meta = matfile.read_operator(out / item["file"])
        assert op.diff_max(matfile.read_operator(std / ref["file"])[0]) == 0.0
    # groups without a second generator set record no pairing
    assert "pairing" not in reference
    assert main(
        ["build", "mixed", "--n", "3", "--m", "1", "--pairing", "other", "--out", str(out)]
    ) == EXIT_USAGE


def test_verify_suite_exit_codes(tmp_path):
    report = tmp_path / "report.txt"
    rc = main(
        ["verify", "--n-max", "4", "--report", str(report), "--format", "text"]
    )
    assert rc == EXIT_OK
    assert "overall: PASS" in report.read_text()
    assert main(["verify", "--n-max", "0"]) == EXIT_USAGE
    assert main(["verify"]) == EXIT_USAGE


def test_verify_capacity(monkeypatch):
    from fermirep import fock

    monkeypatch.setenv(fock.CAP_ENV_VAR, "2")
    assert main(["verify", "--n-max", "3"]) == EXIT_USAGE


def test_verify_from_files_matches_memory(tmp_path):
    out = tmp_path / "nssfr3"
    assert main(["build", "un-nonstandard", "--n", "3", "--out", str(out)]) == EXIT_OK
    report_path = tmp_path / "report.json"
    rc = main(
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
    assert rc == EXIT_OK
    payload = json.loads(report_path.read_text())
    assert payload["overall"] is True

    mem = _catalogue("un-nonstandard", 3)
    file_sig = tuple(
        (c["name"], c["passed"], c["residual"]) for c in payload["checks"]
    )
    assert file_sig == mem.signature()


def _untimed(text):
    """A JSON report with its timings and the one separately timed check's elapsed masked."""
    text = re.sub(r'^"timings": .*$', '"timings": {}', text, flags=re.M)
    return re.sub(
        r'("name": "reconstruct/spin1-quadratic", .*"elapsed": )[^}]*', r"\g<1>0.0", text
    )


def _child_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    # a child's stdout is then block-buffered, as into any pipe, so a lost flush shows
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _in_process(capsys):
    def run(args):
        rc = main(args)
        return rc, capsys.readouterr().out
    return run


def _child(args):
    """``python -m fermirep.cli.main ARGS`` in a fresh interpreter: its exit code and stdout."""
    out = subprocess.run(
        [sys.executable, "-m", "fermirep.cli.main", *args], capture_output=True, text=True,
        env=_child_env(),
    )
    return out.returncode, out.stdout


def _summary(report):
    return (
        f"{len(report.names)} checks, 0 failed, max residual {report.max_residual():.3e}\n"
    )


def test_verify_writes_the_in_memory_json_report(tmp_path, capsys):
    # in this process, and in a child whose files must survive a real interpreter exit
    suite = verify.run_suite(3)
    expected = _catalogue("un-standard", 4)
    builds = {}
    for label, run in (("in-process", _in_process(capsys)), ("child", _child)):
        work = tmp_path / label
        report_path = work / "report.json"
        args = ["verify", "--format", "json", "--report", str(report_path)]
        assert run([*args, "--n-max", "3"]) == (EXIT_OK, _summary(suite))
        written = report_path.read_text()
        json.loads(written)
        assert '"name": "reconstruct/spin1-quadratic"' in written
        assert _untimed(written) == _untimed(suite.to_json())

        out = builds[label] = work / "std4"
        rc, _ = run(["build", "un-standard", "--n", "4", "--out", str(out)])
        assert rc == EXIT_OK
        assert run([*args, "--from", str(out)]) == (EXIT_OK, _summary(expected))
        written = report_path.read_text()
        json.loads(written)
        assert _untimed(written) == _untimed(expected.to_json())
    files = sorted(p.name for p in builds["in-process"].iterdir())
    assert files == sorted(p.name for p in builds["child"].iterdir())
    assert "manifest.json" in files and len(files) == 16
    for name in files:
        assert (builds["child"] / name).read_bytes() == (builds["in-process"] / name).read_bytes()


def test_verify_from_corrupted_file(tmp_path):
    out = tmp_path / "std3"
    assert main(["build", "un-standard", "--n", "3", "--out", str(out)]) == EXIT_OK
    target = out / "generator_001.json"
    payload = json.loads(target.read_text())
    payload["entries"][0]["re"] += 0.5
    target.write_text(json.dumps(payload))
    assert main(["verify", "--from", str(out)]) == EXIT_CHECK_FAILED


def test_verify_from_a_corrupted_build_prints_the_first_20_failures(tmp_path, capsys):
    out = tmp_path / "ucnm42"
    assert main(["build", "ucnm", "--n", "4", "--m", "2", "--out", str(out)]) == EXIT_OK
    target = out / "generator_001.json"
    payload = json.loads(target.read_text())
    for entry in payload["entries"]:
        entry["re"], entry["im"] = 2 * entry["re"], 2 * entry["im"]
    target.write_text(json.dumps(payload))
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    args = ["verify", "--from", str(out), "--format", "json", "--report", str(report_path)]
    assert main(args) == EXIT_CHECK_FAILED

    # the summary as printed from the whole list of failures
    checks = json.loads(report_path.read_text())["checks"]
    failed = [c for c in checks if not c["passed"]]
    assert len(failed) > 20
    worst = max(c["residual"] for c in checks)
    expected = [f"{len(checks)} checks, {len(failed)} failed, max residual {worst:.3e}"]
    expected += [f"FAIL {c['name']} residual={c['residual']:.3e}" for c in failed[:20]]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def _pinned_reports():
    for line in (DATA / "verify_from_sha256.txt").read_text().splitlines():
        digest, build = line.split("  ", 1)
        yield pytest.param(build.split(), digest, id=build)


def _pinned_builds():
    for line in (DATA / "build_sha256.txt").read_text().splitlines():
        digest, build = line.split("  ", 1)
        yield pytest.param(build.split(), digest, id=build)


@pytest.mark.parametrize(("build", "digest"), list(_pinned_builds()))
def test_build_writes_the_pinned_files(tmp_path, build, digest):
    # one digest over the manifest and the generator files, in name order
    out = tmp_path / "built"
    assert main(["build", *build, "--out", str(out)]) == EXIT_OK
    written = hashlib.sha256()
    for path in sorted(out.iterdir(), key=lambda p: p.name):
        written.update(path.read_bytes())
    assert written.hexdigest() == digest


@pytest.mark.parametrize(("build", "digest"), list(_pinned_reports()))
def test_verify_from_writes_the_pinned_json_report(tmp_path, build, digest):
    out = tmp_path / "built"
    assert main(["build", *build, "--out", str(out)]) == EXIT_OK
    report_path = tmp_path / "report.json"
    args = ["verify", "--from", str(out), "--format", "json", "--report", str(report_path)]
    assert main(args) == EXIT_OK
    text = _untimed(report_path.read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _pinned_verdicts():
    for line in (DATA / "verify_from_verdicts_sha256.txt").read_text().splitlines():
        digest, build = line.split("  ", 1)
        yield pytest.param(build.split(), digest, id=build)


@pytest.mark.parametrize(("build", "digest"), list(_pinned_verdicts()))
def test_verify_from_gives_the_pinned_verdicts(tmp_path, build, digest):
    # one digest over the (name, passed) list: residuals may move, verdicts may not
    out = tmp_path / "built"
    assert main(["build", *build, "--out", str(out)]) == EXIT_OK
    report_path = tmp_path / "report.json"
    args = ["verify", "--from", str(out), "--format", "json", "--report", str(report_path)]
    assert main(args) == EXIT_OK
    checks = json.loads(report_path.read_text())["checks"]
    verdicts = repr(tuple((c["name"], c["passed"]) for c in checks))
    assert hashlib.sha256(verdicts.encode()).hexdigest() == digest


def test_verify_n_max_6_writes_the_pinned_json_and_text_reports(tmp_path):
    # digests of both formats, the JSON without its timings
    for line in (DATA / "verify_n_max6_sha256.txt").read_text().splitlines():
        digest, fmt = line.split("  ")
        report_path = tmp_path / f"report.{fmt}"
        args = ["verify", "--n-max", "6", "--format", fmt, "--report", str(report_path)]
        assert main(args) == EXIT_OK
        text = report_path.read_text()
        if fmt == "json":
            text = _untimed(text)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fmt


@pytest.mark.parametrize("n", [6, 10])
def test_verify_from_checks_bilinears_from_their_one_particle_blocks(tmp_path, n):
    out = tmp_path / f"std{n}"
    assert main(["build", "un-standard", "--n", str(n), "--out", str(out)]) == EXIT_OK
    report_path = tmp_path / "report.json"
    args = ["verify", "--from", str(out), "--report", str(report_path), "--format", "json"]
    assert main(args) == EXIT_OK
    payload = json.loads(report_path.read_text())
    mem = _catalogue("un-standard", n)
    assert tuple((c["name"], c["passed"], c["residual"]) for c in payload["checks"]) == (
        mem.signature()
    )
    span = f"closure/standard/n{n:02d}/span/"
    spans = [c for c in payload["checks"] if c["name"].startswith(span)]
    assert [c["name"] for c in spans] == [f"{span}{g:03d}" for g in range(1, n * n)]
    assert all(c["passed"] for c in spans)

    # one entry between two states of the middle sector of generator 7
    start = sum(math.comb(n, m) for m in range(n // 2))
    middle = range(start, start + math.comb(n, n // 2))
    target = out / "generator_007.json"
    corrupted = json.loads(target.read_text())
    entry = next(e for e in corrupted["entries"] if e["row"] in middle and e["col"] in middle)
    entry["re"] += 0.25
    target.write_text(json.dumps(corrupted))
    assert main(args) == EXIT_CHECK_FAILED
    failed = {c["name"] for c in json.loads(report_path.read_text())["checks"] if not c["passed"]}
    assert f"{span}007" in failed


def test_verify_from_refuses_non_finite_entry(tmp_path, capsys):
    out = tmp_path / "std3"
    assert main(["build", "un-standard", "--n", "3", "--out", str(out)]) == EXIT_OK
    target = out / "generator_002.json"
    payload = json.loads(target.read_text())
    payload["entries"][0]["im"] = float("nan")
    target.write_text(json.dumps(payload))
    capsys.readouterr()
    report = tmp_path / "report.json"
    rc = main(["verify", "--from", str(out), "--report", str(report), "--format", "json"])
    assert rc != EXIT_OK
    assert "is not finite" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("args, option", [
    (["un-standard", "--n", "3", "--m", "2"], "--m"),
    (["un-nonstandard", "--n", "3", "--m", "1"], "--m"),
    (["un-standard", "--n", "3", "--pairing", "conjugate"], "--pairing"),
    (["un-nonstandard", "--n", "3", "--xi-plus", "1"], "--xi-plus"),
    (["ucnm", "--n", "4", "--m", "2", "--xi-minus", "1"], "--xi-minus"),
    (["ucnm", "--n", "4", "--m", "2", "--pairing", "same"], "--pairing"),
])
def test_build_refuses_an_option_its_group_drops(tmp_path, monkeypatch, capsys, args, option):
    def refuse(*args, **kwargs):
        raise AssertionError("generator family built")

    monkeypatch.setattr(liealg, "generalized_gell_mann", refuse)
    out = tmp_path / "out"
    assert main(["build", *args, "--out", str(out)]) == EXIT_USAGE
    assert f"argument {option}: group {args[0]} does not use it" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, option, user", [
    (["table", "structure", "--n", "2", "--m", "1"], "--m", "table structure"),
    (["verify", "--from", "built", "--n-max", "99"], "--n-max", "verify --from"),
    (["eval", "N(1)", "--n", "2", "--out", "op.json", "--check", "ref.json"], "--out", "eval --check"),
], ids=["table-structure-m", "verify-from-n-max", "eval-check-out"])
def test_commands_refuse_an_option_they_drop(tmp_path, monkeypatch, capsys, args, option, user):
    monkeypatch.chdir(tmp_path)
    assert main(args) == EXIT_USAGE
    assert f"argument {option}: {user} does not use it" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("m", [0, 4, 5])
def test_build_names_the_m_range_on_either_side(tmp_path, capsys, m):
    # --m 5 once failed in the sector size instead: "particle count must be in [0, 4]"
    out = tmp_path / "out"
    assert main(["build", "ucnm", "--n", "4", "--m", str(m), "--out", str(out)]) == EXIT_USAGE
    assert f"ucnm takes particles m in [1, 3], got {m}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["un-standard", "--n", "15"], ["un-nonstandard", "--n", "15"],
    ["ucnm", "--n", "15", "--m", "2"], ["mixed", "--n", "15", "--m", "2"],
])
def test_build_refuses_a_mode_count_over_the_cap_before_the_family(tmp_path, monkeypatch, capsys, args):
    # ucnm (15, 2) would first build a 1.9 GB generator array
    def refuse(*args, **kwargs):
        raise AssertionError("generator family built")

    monkeypatch.setattr(liealg, "generalized_gell_mann", refuse)
    out = tmp_path / "out"
    assert main(["build", *args, "--out", str(out)]) == EXIT_USAGE
    assert "mode count must be in [1, 14], got 15" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["mixed", "--n", "4", "--m", "2"], ["ucnm", "--n", "4", "--m", "4"]])
def test_a_refused_build_creates_no_output_directory(tmp_path, args):
    out = tmp_path / "out"
    assert main(["build", *args, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["un-standard", "--n", "7"], ["un-nonstandard", "--n", "5"],
    ["ucnm", "--n", "5", "--m", "2"], ["mixed", "--n", "5", "--m", "2"],
])
def test_build_one_generator_a_part_writes_the_same_files(tmp_path, monkeypatch, args):
    assert main(["build", *args, "--out", str(tmp_path / "default")]) == EXIT_OK
    monkeypatch.setattr(schwinger, "_ASSEMBLY_ENTRIES", 1)
    assert main(["build", *args, "--out", str(tmp_path / "least")]) == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "least").iterdir())
    for name in names:
        assert (tmp_path / "least" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


def _in_parts(out, monkeypatch, bound, report_path):
    """verify --from out in parts of at least bound stored entries, as a JSON
    report: the exit code, the payload, and the generator count and
    number-commutant timing of each part."""
    parts, numcomm = [], verify.check_number_commutant

    def counted(rep, *args, **kwargs):
        report = numcomm(rep, *args, **kwargs)
        parts.append((len(rep), *report.timings.values()))
        return report

    with monkeypatch.context() as mp:
        mp.setattr(verify, "check_number_commutant", counted)
        mp.setattr(cli_main, "_PART_ENTRIES", bound)
        rc = main(["verify", "--from", str(out), "--format", "json", "--report", str(report_path)])
    payload = json.loads(report_path.read_text()) if report_path.exists() else None
    return rc, payload, parts


@pytest.mark.parametrize("build", [
    *(pytest.param(["un-standard", "--n", str(n)], id=str(n)) for n in range(2, 9)),
    pytest.param(["un-nonstandard", "--n", "5"], id="nssfr-5"),
    pytest.param(["ucnm", "--n", "5", "--m", "2"], id="ucnm-5-2"),
    *(pytest.param(["mixed", "--n", "5", "--m", "2", "--pairing", pairing], id=f"mixed-5-2-{pairing}")
      for pairing in ("conjugate", "same")),
])
def test_verify_from_one_generator_a_part_gives_the_in_memory_checks(tmp_path, monkeypatch, build):
    out = tmp_path / "built"
    assert main(["build", *build, "--out", str(out)]) == EXIT_OK
    group, n = build[0], int(build[2])
    m = int(build[4]) if len(build) > 3 else None
    pairing = build[-1] if group == "mixed" else "conjugate"
    built, gens, _family = build_variant(group, n, m, (1, 1), pairing)
    whole = schwinger.standard_rep(gens, n) if group == "un-standard" else built[0]
    memory = verify.representation_checks(whole, gens, 1e-10)
    rc, payload, parts = _in_parts(out, monkeypatch, 1, tmp_path / "report.json")
    assert rc == EXIT_OK and [size for size, _ in parts] == [1] * len(gens)
    checks = payload["checks"]
    assert tuple((c["name"], c["passed"], c["residual"]) for c in checks) == memory.signature()
    # each family's time is measured, on each part, not split among its checks
    tag = f"{whole.meta.variant}/n{n:02d}" + (f"m{m:02d}" if m else "")
    assert set(payload["timings"]) == {f"{family}/{tag}" for family in ("closure", "numcomm", "block")}
    assert payload["timings"][f"numcomm/{tag}"] == sum(seconds for _, seconds in parts)
    assert all(c["elapsed"] == 0.0 for c in checks)


def _ends(parts):
    """The last generator number of each part."""
    return list(itertools.accumulate(size for size, _ in parts))


@pytest.mark.parametrize("where", ["middle", "last"])
def test_verify_from_names_a_corrupted_generator_of_a_later_part(tmp_path, monkeypatch, where):
    out, report = tmp_path / "std6", tmp_path / "report.json"
    assert main(["build", "un-standard", "--n", "6", "--out", str(out)]) == EXIT_OK
    rc, _, parts = _in_parts(out, monkeypatch, 200, report)
    assert rc == EXIT_OK and len(parts) >= 3 and min(size for size, _ in parts) > 1
    ends = _ends(parts)
    # the second generator of the middle part, or the last generator of all
    g = ends[len(ends) // 2 - 1] + 2 if where == "middle" else ends[-1]
    target = out / f"generator_{g:03d}.json"
    corrupted = json.loads(target.read_text())
    # an entry between two one-particle states, in rows 1 to 6
    next(e for e in corrupted["entries"] if 1 <= e["row"] <= 6 and 1 <= e["col"] <= 6)["re"] += 0.25
    target.write_text(json.dumps(corrupted))
    rc, payload, _ = _in_parts(out, monkeypatch, 200, report)
    assert rc == EXIT_CHECK_FAILED
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert {name for name in failed if "/span/" in name or name.startswith("block/")} == {
        f"closure/standard/n06/span/{g:03d}", f"block/standard/n06/{g:03d}"
    }


def test_verify_from_refuses_a_non_finite_entry_of_a_middle_part(tmp_path, monkeypatch, capsys):
    out, report = tmp_path / "std6", tmp_path / "report.json"
    assert main(["build", "un-standard", "--n", "6", "--out", str(out)]) == EXIT_OK
    _, _, parts = _in_parts(out, monkeypatch, 200, report)
    report.unlink()
    ends = _ends(parts)
    target = out / f"generator_{ends[len(ends) // 2 - 1] + 1:03d}.json"
    payload = json.loads(target.read_text())
    payload["entries"][0]["re"] = float("inf")
    target.write_text(json.dumps(payload))
    capsys.readouterr()
    rc, payload, parts = _in_parts(out, monkeypatch, 200, report)
    assert rc == EXIT_IO and payload is None
    err = capsys.readouterr().err
    assert target.name in err and "is not finite" in err
    # the parts before the refused file were read and checked
    assert 0 < len(parts) < len(ends)


def _peak_mib(args):
    """main(args)'s traced peak, in MiB."""
    tracemalloc.start()
    try:
        assert main(args) == EXIT_OK
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_build_and_verify_from_hold_a_bounded_part_of_an_eleven_mode_build(tmp_path):
    # whole stacks of 120 operators on 2,048 states: 9.6 and 9.0 MiB traced;
    # the build's 2.1 MiB was 5.3 through a stack of the 121 bilinears
    out = tmp_path / "std11"
    assert _peak_mib(["build", "un-standard", "--n", "11", "--out", str(out)]) < 3.0
    assert _peak_mib(["verify", "--from", str(out)]) < 4.5


def test_build_un_nonstandard_forms_no_bilinear_stack(tmp_path):
    # 2.4 MiB traced; 6.2 through a stack of the 121 bilinears on 2,048 states
    out = tmp_path / "nssfr11"
    assert _peak_mib(["build", "un-nonstandard", "--n", "11", "--out", str(out)]) < 3.5


@pytest.mark.parametrize("pairing", ["conjugate", "same"])
def test_build_mixed_forms_no_structure_constants(tmp_path, monkeypatch, pairing):
    # both pairings keep G's constants by construction, so a build forms none;
    # verify --from forms G's alone and closes the second set through the kernel
    calls, original = [], liealg.structure_constants
    monkeypatch.setattr(liealg, "structure_constants", lambda g: calls.append(g) or original(g))
    build_variant("mixed", 5, 2, (1, 1), pairing)
    out = tmp_path / "mixed52"
    args = ["build", "mixed", "--n", "5", "--m", "2", "--pairing", pairing, "--out", str(out)]
    assert main(args) == EXIT_OK and calls == []
    assert main(["verify", "--from", str(out)]) == EXIT_OK
    ggm = liealg.generalized_gell_mann(10)
    assert [(g.labels, sparse.toarray(g.flat).tolist()) for g in calls] == [
        (ggm.labels, sparse.toarray(ggm.flat).tolist())]


@pytest.mark.parametrize("pairing", ["conjugate", "same"])
def test_build_mixed_holds_no_more_than_its_sectors(tmp_path, pairing):
    # 9.0 (conjugate) and 6.7 MiB (same) traced with the two sets' structure
    # constants formed to compare them; build ucnm --n 7 --m 2 is 0.84 MiB
    args = ["build", "mixed", "--n", "7", "--m", "2", "--pairing", pairing]
    assert _peak_mib([*args, "--out", str(tmp_path / "mixed72")]) < 3.0


# a build of every variant at n <= 5, and the pairing of the mixed ones
_BUILDS = (
    [(["un-standard", "--n", str(n)], None) for n in (2, 3, 4, 5)]
    + [(["un-nonstandard", "--n", str(n)], None) for n in (3, 4, 5)]
    + [(["ucnm", "--n", str(n), "--m", str(m)], None) for n, m in ((2, 1), (3, 2), (4, 2), (5, 1))]
    + [
        (["mixed", "--n", str(n), "--m", str(m), "--pairing", pairing, *xi], pairing)
        for n, m, xi in ((3, 1, []), (4, 3, []), (5, 2, []), (4, 1, ["--xi-plus", "0"]))
        for pairing in ("conjugate", "same")
    ]
)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A fresh copy of what build writes for some arguments, each build run once."""
    root, done = tmp_path_factory.mktemp("builds"), {}

    def copy(group, into):
        key = " ".join(group)
        if key not in done:
            done[key] = root / f"b{len(done)}"
            assert main(["build", *group, "--out", str(done[key])]) == EXIT_OK
        return Path(shutil.copytree(done[key], into))

    return copy


def _verify_from(out):
    return main(["verify", "--from", str(out)])


def _generator_files(out):
    items = matfile.read_manifest(out / "manifest.json")["generators"]
    return [out / item["file"] for item in items]


def _entries(path):
    return json.loads(path.read_text())["entries"]


def _write_entries(path, entries):
    payload = json.loads(path.read_text())
    payload["entries"] = sorted(entries, key=lambda e: (e["row"], e["col"]))
    path.write_text(json.dumps(payload))


def _sectors(n):
    """The particle count of each basis state, in basis order."""
    return [m for m in range(n + 1) for _ in range(math.comb(n, m))]


def test_verify_from_passes_every_unmodified_build(built, tmp_path):
    for a, (group, _pairing) in enumerate(_BUILDS):
        assert _verify_from(built(group, tmp_path / f"{a}")) == EXIT_OK, group


def _applies(kind, group, pairing):
    """Whether corruption kind changes what a build of group wrote."""
    n = int(group[2])
    if kind == "other variant":
        return group[0] in ("un-standard", "un-nonstandard") and n >= 3
    if kind == "middle sector":
        return group[0] == "un-standard" and n >= 4
    if kind == "flip pairing":
        # with xi_plus = 0 no sector carries the second set
        return pairing is not None and "--xi-plus" not in group
    return True


def _corrupt(kind, out, group, pairing, built, draw):
    """Apply corruption kind to the build of group written to out."""
    files, n = _generator_files(out), int(group[2])
    counts = _sectors(n)
    pick = draw(st.integers(0, len(files) - 1))
    if kind == "zero one":
        _write_entries(files[pick], [])
    elif kind == "zero all":
        for path in files:
            _write_entries(path, [])
    elif kind == "swap two":
        other = files[(pick + draw(st.integers(1, len(files) - 1))) % len(files)]
        texts = files[pick].read_text(), other.read_text()
        files[pick].write_text(texts[1])
        other.write_text(texts[0])
    elif kind == "other variant":
        swap = {"un-standard": "un-nonstandard", "un-nonstandard": "un-standard"}[group[0]]
        donor = built([swap, *group[1:]], out.parent / "donor")
        for path in files:
            _write_entries(path, _entries(donor / path.name))
    elif kind in ("transpose", "negate"):
        # the members with G^T = -G: in the generalized Gell-Mann sets those
        # with imaginary entries only, so every operator entry is imaginary
        antisymmetric = [p for p in files if not any(e["re"] for e in _entries(p))]
        path = antisymmetric[pick % len(antisymmetric)]
        if kind == "transpose":
            changed = [{**e, "row": e["col"], "col": e["row"]} for e in _entries(path)]
        else:
            changed = [{**e, "im": -e["im"]} for e in _entries(path)]
        _write_entries(path, changed)
    elif kind == "off-sector entry":
        row = draw(st.integers(0, len(counts) - 1))
        col = draw(st.sampled_from([c for c, m in enumerate(counts) if m != counts[row]]))
        entry = {"row": row, "col": col, "re": 1e-8, "im": 0.0}
        _write_entries(files[pick], _entries(files[pick]) + [entry])
    elif kind == "middle sector":
        entries = _entries(files[pick])
        middle = [e for e in entries if 2 <= counts[e["row"]] <= n - 2]
        middle[draw(st.integers(0, len(middle) - 1))]["re"] += 1e-8
        _write_entries(files[pick], entries)
    elif kind == "flip pairing":
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["pairing"] = {"conjugate": "same", "same": "conjugate"}[pairing]
        (out / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("kind", [
    "zero one", "zero all", "swap two", "other variant", "transpose", "negate",
    "off-sector entry", "middle sector", "flip pairing",
])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_verify_from_fails_every_corrupted_build(built, kind, data):
    group, pairing = data.draw(st.sampled_from([b for b in _BUILDS if _applies(kind, *b)]))
    with tempfile.TemporaryDirectory() as work:
        out, report = built(group, Path(work) / "out"), Path(work) / "report.json"
        _corrupt(kind, out, group, pairing, built, data.draw)
        args = ["verify", "--from", str(out), "--format", "json", "--report", str(report)]
        assert main(args) == EXIT_CHECK_FAILED, (group, kind)
        if group[0] != "un-standard":
            _assert_closure_bounds_the_kernel(out, report)


def _assert_closure_bounds_the_kernel(out, report):
    """Every closure residual verify --from reported for a sector build is at
    least the 2^n kernel's on the operators it read, less rounding."""
    parts, gens = cli_main._load_built(out)
    ops = [op for part in parts for op in part]
    oracle = verify.check_closure(ops, liealg.structure_constants(gens), label="x").checks
    kernel = {c.name[2:]: c.residual for c in oracle}
    checks = json.loads(report.read_text())["checks"]
    closure = {c["name"].rsplit("/", 1)[1]: c["residual"] for c in checks
               if c["name"].startswith("closure/")}
    assert closure.keys() == kernel.keys()
    assert all(closure[pair] >= kernel[pair] - 2 * sys.float_info.epsilon for pair in kernel)


def test_verify_from_fails_an_emptied_sector_build(built, tmp_path):
    # zero operators pass both closure and the number commutant
    out = built(["ucnm", "--n", "4", "--m", "2"], tmp_path / "ucnm42")
    for path in _generator_files(out):
        _write_entries(path, [])
    assert _verify_from(out) == EXIT_CHECK_FAILED


def test_verify_from_fails_a_nssfr_build_holding_the_bilinear_operators(built, tmp_path):
    # both represent su(4) and conserve particle number, but not on the same sectors
    out = built(["un-nonstandard", "--n", "4"], tmp_path / "nssfr4")
    donor = built(["un-standard", "--n", "4"], tmp_path / "std4")
    for path in _generator_files(out):
        _write_entries(path, _entries(donor / path.name))
    assert _verify_from(out) == EXIT_CHECK_FAILED


def test_verify_from_gives_the_run_suite_checks_of_the_same_representation(built, tmp_path):
    suite = verify.run_suite(4).signature()
    for group, tag in (
        (["un-standard", "--n", "4"], "standard/n04"),
        (["un-nonstandard", "--n", "4"], "nssfr/n04"),
        (["ucnm", "--n", "4", "--m", "2"], "ucnm/n04m02"),
    ):
        out = built(group, tmp_path / tag.replace("/", "-"))
        report_path = tmp_path / f"{tag.replace('/', '-')}.json"
        args = ["verify", "--from", str(out), "--format", "json", "--report", str(report_path)]
        assert main(args) == EXIT_OK
        checks = json.loads(report_path.read_text())["checks"]
        from_files = sorted((c["name"], c["passed"], c["residual"]) for c in checks)
        families = tuple(f"{family}/{tag}/" for family in ("closure", "numcomm", "block"))
        assert from_files == [c for c in suite if c[0].startswith(families)]


def test_table_selective():
    assert main(["table", "selective", "--n", "4", "--m", "2"]) == EXIT_OK
    assert main(["table", "selective", "--n", "4"]) == EXIT_USAGE


def test_table_selective_output(capsys):
    main(["table", "selective", "--n", "4", "--m", "2"])
    assert capsys.readouterr().out.strip() == "-x^2 + 4x - 3"
    main(["table", "selective", "--n", "3", "--m", "1"])
    assert capsys.readouterr().out.strip() == "-x + 2"


def test_table_structure_output(capsys):
    assert main(["table", "structure", "--n", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "f[1,2,3] = 1" in out


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_table_structure_reserves_twice_its_records_first(n, monkeypatch, capsys):
    import numpy as np

    calls, empty = [], np.empty

    def spy(shape, dtype=float, *args, **kwargs):
        calls.append((shape, np.dtype(dtype)))
        return empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    code = main(["table", "structure", "--n", str(n)])
    monkeypatch.undo()
    assert calls[0] == (2 * (5 * n**3 - 9 * n**2 - 2 * n + 6), liealg.RECORD_DTYPE)
    if n < 2:
        assert code == EXIT_USAGE and "dimension must be at least 2" in capsys.readouterr().err
        return
    assert code == EXIT_OK
    records = liealg.structure_constants(liealg.generalized_gell_mann(n)).c
    assert calls[0][0] == 2 * len(records)


@pytest.mark.parametrize("n", [3, 4])
def test_table_structure_golden_text(capsys, n):
    assert main(["table", "structure", "--n", str(n)]) == EXIT_OK
    expected = (DATA / f"table_structure_n{n}.txt").read_text()
    assert capsys.readouterr().out == expected


def test_cli_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    # they cost start-up time on every command and nothing in the CLI needs
    # them: the package reads numpy alone, and numpy.f2py and numpy.testing
    # are what scipy.sparse's import used to pull in
    code = (
        "import json, sys, fermirep.cli.main as cli\n"
        "heavy = ('scipy.sparse.csgraph', 'scipy.sparse.linalg')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "out = sys.argv[1]\n"
        "codes = [cli.main(args) for args in (\n"
        "    ['table', 'selective', '--n', '4', '--m', '2'],\n"
        "    ['build', 'ucnm', '--n', '4', '--m', '2', '--out', out + '/b'],\n"
        "    ['verify', '--from', out + '/b'],\n"
        "    ['eval', 'N(1)+N(2)', '--n', '4', '--out', out + '/e.json'],\n"
        "    ['eval', 'N(2)+N(1)', '--n', '4', '--check', out + '/e.json'],\n"
        ")]\n"
        "unused = ('numpy.f2py', 'numpy.testing')\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy' or m in unused]\n"
        "print(json.dumps([codes, sorted(loaded)]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True,
        check=True, env=_child_env(),
    )
    lines = out.stdout.splitlines()
    assert lines[0] == "[]"
    assert json.loads(lines[-1]) == [[EXIT_OK] * 5, []]


def test_cli_main_freezes_the_import_heap():
    # the collection at interpreter exit must skip every object the imports made;
    # the list holds them, so none is freed while main runs and the count is exact
    code = (
        "import gc, fermirep.cli.main as cli\n"
        "imported = gc.get_objects()\n"
        "rc = cli.main(['table', 'selective', '--n', '4', '--m', '2'])\n"
        "young = {id(o) for o in gc.get_objects()}\n"
        "print(rc, len(imported), gc.get_freeze_count(), sum(id(o) in young for o in imported))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=_child_env(),
    )
    rc, imported, frozen, unfrozen = map(int, out.stdout.splitlines()[-1].split())
    assert rc == EXIT_OK
    assert imported > 10_000
    assert frozen >= imported
    assert unfrozen == 0


def test_eval_prints_matrix(capsys):
    assert main(["eval", "adag(1)*a(2) + adag(2)*a(1)", "--n", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 4


def test_eval_writes_file(tmp_path):
    target = tmp_path / "op.json"
    assert main(["eval", "N(1)", "--n", "2", "--out", str(target)]) == EXIT_OK
    op, meta = matfile.read_operator(target)
    assert meta["expression"] == "N(1)"
    assert op.entries() == {(1, 1): 1 + 0j, (3, 3): 1 + 0j}


def test_eval_check_against_built_generator(tmp_path):
    out = tmp_path / "nssfr3"
    assert main(["build", "un-nonstandard", "--n", "3", "--out", str(out)]) == EXIT_OK
    gen4 = out / "generator_004.json"
    assert main(["eval", LAMBDA_H4, "--n", "3", "--check", str(gen4)]) == EXIT_OK
    # a different generator must not match
    gen5 = out / "generator_005.json"
    assert main(
        ["eval", LAMBDA_H4, "--n", "3", "--check", str(gen5)]
    ) == EXIT_CHECK_FAILED


def test_eval_reads_an_expression_that_starts_with_a_minus(capsys):
    # argparse alone reads "-a(1)" as an unknown option and exits 2
    assert main(["eval", "-a(1)", "--n", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "0  -1\n0  0\n"
    assert main(["eval", "--n", "1", "-a(1)+adag(1)"]) == EXIT_OK
    assert capsys.readouterr().out == "0  -1\n1  0\n"
    assert main(["eval", "--n", "1", "--", "-a(1)"]) == EXIT_OK
    assert capsys.readouterr().out == "0  -1\n0  0\n"
    assert main(["eval", "--n", "1"]) == EXIT_USAGE
    assert "required: expression" in capsys.readouterr().err
    assert main(["eval", "-a(1)", "-q", "--n", "1"]) == EXIT_USAGE
    assert "unrecognized arguments: -q" in capsys.readouterr().err
    assert main(["table", "selective", "--n", "4", "--m", "2", "-q"]) == EXIT_USAGE


def test_eval_usage_errors():
    assert main(["eval", "a(5)", "--n", "3"]) == EXIT_USAGE
    assert main(["eval", "adag(1)) + a(2)", "--n", "3"]) == EXIT_USAGE


def test_eval_of_a_long_sum_and_of_deep_nesting(capsys):
    assert main(["eval", "+".join(["1"] * 5000), "--n", "1"]) == EXIT_OK
    assert capsys.readouterr().out.split() == ["5000", "0", "0", "5000"]
    source = "(" * 5000 + "1" + ")" * 5000
    assert main(["eval", source, "--n", "1"]) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "parse error: nesting deeper than 100 levels at position 100"
    assert lines[2] == " " * 102 + "^"


@pytest.mark.parametrize("args", [
    ["table", "structure", "--n", "200"],  # 39,639,606 records, 2.95 GiB held twice
    ["build", "ucnm", "--n", "14", "--m", "7"],  # a set of 29,441,411 stored entries
])
def test_a_request_over_the_memory_limit_exits_2(tmp_path, args):
    limit = 3 << 30
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from fermirep.cli.main import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out = tmp_path / "out"
    if args[0] == "build":
        args = [*args, "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env=_child_env(), timeout=120,
    )
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in done.stderr
    assert not out.exists()
    if args[0] == "table":  # refused at the reservation, before any work
        assert "shape (79279212,)" in done.stderr


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", [["verify", "--n-max", "3"], ["eval", "a(1)", "--n", "2"]])
def test_a_negative_or_non_finite_tolerance_exits_2(command, tol, capsys):
    assert main([*command, "--tol", tol]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"argument --tol: must be a finite number of at least 0, got {float(tol)}" in err


def test_eval_non_finite_literal_or_result_exits_2(capsys):
    assert main(["eval", "1e999*N(1)", "--n", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'1e999' is not finite at position 0" in err
    assert main(["eval", "1e308*1e308*N(1)", "--n", "2"]) == EXIT_USAGE
    assert "non-finite entry" in capsys.readouterr().err


def test_round_trip_operator_payload():
    rep = schwinger.standard_rep(liealg.gell_mann(), 3)
    payload = matfile.operator_to_payload(rep[1], {"label": "lambda_2"})
    op, meta = matfile.payload_to_operator(payload)
    assert op == rep[1]
    assert meta["label"] == "lambda_2"
    rows = [(e["row"], e["col"]) for e in payload["entries"]]
    assert rows == sorted(rows)


def test_payload_validation():
    with pytest.raises(ValueError):
        matfile.payload_to_operator({"dim": 3, "modes": 1, "entries": []})
    with pytest.raises(ValueError):
        matfile.payload_to_operator(
            {
                "dim": 2,
                "modes": 1,
                "entries": [
                    {"row": 0, "col": 1, "re": 1.0, "im": 0.0},
                    {"row": 0, "col": 1, "re": 2.0, "im": 0.0},
                ],
            }
        )
    with pytest.raises(ValueError):
        matfile.payload_to_operator(
            {"dim": 2, "modes": 1, "entries": [{"row": 0, "col": 5, "re": 1.0, "im": 0.0}]}
        )


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_payload_refuses_non_finite_values(part, bad):
    entry = {"row": 0, "col": 1, "re": 1.0, "im": 0.0}
    entry[part] = bad
    payload = {"dim": 2, "modes": 1, "entries": [entry]}
    with pytest.raises(ValueError, match=r"entry \(0, 1\) is not finite"):
        matfile.payload_to_operator(payload)
    # the same refusal after a trip through JSON text, which spells NaN and Infinity
    with pytest.raises(ValueError, match=r"entry \(0, 1\) is not finite"):
        matfile.payload_to_operator(json.loads(json.dumps(payload)))
