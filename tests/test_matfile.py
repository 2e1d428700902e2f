"""The operator file format: canonical bytes, strict reading, stable digests."""

import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermirep import liealg, schwinger, sparse
from fermirep.cli import main as cli_main
from fermirep.cli import matfile
from fermirep.cli.main import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from fermirep.fock import FockOperator, mode_capacity

DATA = Path(__file__).parent / "data"


def _oracle_text(op, metadata):
    """The written form as the generic indented JSON encoder spells it."""
    return json.dumps(matfile.operator_to_payload(op, metadata), indent=1)


# -- (a) byte identity with the generic encoder, and round trip ------------

_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
)
_FLOATS = _EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_METADATA = st.none() | st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=4)


@st.composite
def _operators(draw):
    modes = draw(st.integers(min_value=1, max_value=4))
    dim = 1 << modes
    cells = draw(
        st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), max_size=2 * dim)
    )
    if draw(st.booleans()):
        values = draw(st.lists(_INT64, min_size=len(cells), max_size=len(cells)))
    else:
        parts = st.tuples(_FLOATS, _FLOATS | st.just(0.0))
        values = [complex(*p) for p in draw(st.lists(parts, min_size=len(cells), max_size=len(cells)))]
    # from_entries keeps int64 when every value is a Python int
    return FockOperator.from_entries(modes, dict(zip(cells, values)))


# -0.0 beside 0.0 (a value table keyed by float equality would merge them),
# exponent spellings, the smallest subnormal, a repr longer than its
# literal, and one value in both re and im; built from the CSR arrays,
# since from_entries sums each value onto 0.0 and so drops the sign of -0.0
_EDGE_OPERATOR = FockOperator(2, sparse.CSR(
    np.array([complex(-0.0, 1e-05), complex(0.0, 1e16), complex(5e-324, -0.0),
              complex(0.30000000000000004, 0.30000000000000004), complex(1e-05, 0.0)]),
    np.array([0, 3, 1, 2, 0]), np.array([0, 2, 3, 4, 5]), (4, 4),
))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(op=_operators(), metadata=_METADATA)
@example(op=_EDGE_OPERATOR, metadata=None)
@example(op=_EDGE_OPERATOR, metadata={"re": -0.0, "im": [0.0, 1e16]})
def test_written_bytes_equal_the_indented_json_encoder(tmp_path_factory, op, metadata):
    path = tmp_path_factory.mktemp("matfile") / "op.json"
    matfile.write_operator(path, op, metadata)
    assert path.read_bytes() == _oracle_text(op, metadata).encode()
    back, back_meta = matfile.read_operator(path)
    assert back == op
    assert back_meta == (metadata or {})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("-inf"))])
def test_writer_refuses_non_finite_entries_before_opening_the_file(tmp_path, bad):
    op = FockOperator.from_entries(2, {(0, 0): 1.0, (2, 3): bad, (3, 1): float("nan")})
    path = tmp_path / "op.json"
    with pytest.raises(ValueError, match=r"entry \(2, 3\) is not finite"):
        matfile.write_operator(path, op)
    assert not path.exists()


# -- (b) malformed payloads -----------------------------------------------


def _entry(row, col, re=1.0, im=0.0):
    return {"row": row, "col": col, "re": re, "im": im}


_CAP = mode_capacity()
_MALFORMED = {
    "not an object": ([], "must be a JSON object"),
    "missing entries": ({"dim": 2, "modes": 1}, "missing 'entries'"),
    "wrong dim": ({"dim": 3, "modes": 1, "entries": []}, r"dim 3 does not equal 2\^1"),
    "float dim": ({"dim": 2.0, "modes": 1, "entries": []}, r"dim 2.0 does not equal"),
    "zero modes": ({"dim": 1, "modes": 0, "entries": []}, r"modes must be an integer in \[1, "),
    "bool modes": ({"dim": 2, "modes": True, "entries": []}, "got True"),
    # one over the cap: dim 32,768 at the default cap, so a missing guard costs little
    "modes over the cap": (
        {"dim": 1 << (_CAP + 1), "modes": _CAP + 1, "entries": []},
        rf"modes must be an integer in \[1, {_CAP}\], got {_CAP + 1}",
    ),
    "entries not a list": ({"dim": 2, "modes": 1, "entries": {}}, "must be a JSON array"),
    "metadata not an object": (
        {"dim": 2, "modes": 1, "entries": [], "metadata": [1]}, "metadata must be",
    ),
    "entry not an object": (
        {"dim": 2, "modes": 1, "entries": [_entry(0, 0), [0, 1, 1.0, 0.0]]},
        "entry 1 is not an object holding 'row'",
    ),
    "entry missing im": (
        {"dim": 2, "modes": 1, "entries": [{"row": 0, "col": 0, "re": 1.0}]},
        "entry 0 is not an object holding 'im'",
    ),
    "unsorted": (
        {"dim": 4, "modes": 2, "entries": [_entry(0, 1), _entry(2, 0), _entry(1, 3)]},
        r"strictly sorted by \(row, col\): entry 2 \(1, 3\) follows \(2, 0\)",
    ),
    "unsorted within a row": (
        {"dim": 4, "modes": 2, "entries": [_entry(1, 2), _entry(1, 1)]},
        r"entry 1 \(1, 1\) follows \(1, 2\)",
    ),
    "duplicate": (
        {"dim": 2, "modes": 1, "entries": [_entry(0, 1), _entry(0, 1, 2.0)]},
        r"entry 1 \(0, 1\) follows \(0, 1\)",
    ),
    "row out of range": (
        {"dim": 2, "modes": 1, "entries": [_entry(0, 0), _entry(2, 0)]},
        r"entry 1 position \(2, 0\) outside \[0, 2\)",
    ),
    "negative col": (
        {"dim": 2, "modes": 1, "entries": [_entry(0, -1)]},
        r"entry 0 position \(0, -1\) outside",
    ),
    "col beyond int64": (
        {"dim": 2, "modes": 1, "entries": [_entry(0, 0), _entry(1, 2**64)]},
        rf"entry 1 position \(1, {2**64}\) outside",
    ),
    "nan": ({"dim": 2, "modes": 1, "entries": [_entry(0, 1, float("nan"))]}, "is not finite"),
    "inf": (
        {"dim": 2, "modes": 1, "entries": [_entry(0, 0), _entry(1, 1, 0.0, float("-inf"))]},
        r"entry \(1, 1\) is not finite",
    ),
    "integer beyond the float range": (
        {"dim": 2, "modes": 1, "entries": [_entry(0, 1, 10**400)]},
        r"entry \(0, 1\) is not finite",
    ),
    "float row": (
        {"dim": 2, "modes": 1, "entries": [_entry(1.9, 1)]}, "entry 0 has row 1.9, which is not an integer",
    ),
    "bool col": (
        {"dim": 2, "modes": 1, "entries": [_entry(0, 0), _entry(1, True)]},
        "entry 1 has col True, which is not an integer",
    ),
    "string re": (
        {"dim": 2, "modes": 1, "entries": [_entry(1, 1, "1.5")]},
        "entry 0 has re '1.5', which is not a JSON number",
    ),
    "bool re": ({"dim": 2, "modes": 1, "entries": [_entry(1, 1, False)]}, "has re False"),
    "null im": (
        {"dim": 2, "modes": 1, "entries": [_entry(1, 1, 1.0, None)]},
        "entry 0 has im None, which is not a JSON number",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_payload_is_refused_before_any_operator_is_built(monkeypatch, case):
    payload, message = _MALFORMED[case]

    def no_operator(*args, **kwargs):
        raise AssertionError("an operator was built from a refused payload")

    monkeypatch.setattr(matfile, "FockOperator", no_operator)
    with pytest.raises(matfile.MatfileError, match=message):
        matfile.payload_to_operator(payload)


def test_refusal_is_a_value_error_naming_the_file(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"dim": 2, "modes": 1, "entries": [_entry(1.9, 1)]}))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: entry 0 has row 1.9"):
        matfile.read_operator(path)
    path.write_text("{not json")
    with pytest.raises(matfile.MatfileError, match=rf"^{re.escape(str(path))}: "):
        matfile.read_operator(path)


def test_integral_values_read_as_complex():
    payload = {"dim": 2, "modes": 1, "entries": [_entry(0, 1, 3, -1), _entry(1, 0, 0, 0)]}
    op, meta = matfile.payload_to_operator(payload)
    assert op.mat.dtype == np.complex128
    assert op.entries() == {(0, 1): 3 - 1j}
    assert meta == {}


# -- (c) golden digests of written files ----------------------------------

_GOLDEN_CASES = {
    "un-nonstandard-n3": ["build", "un-nonstandard", "--n", "3"],
    "ucnm-n4-m2": ["build", "ucnm", "--n", "4", "--m", "2"],
    "mixed-n3-m1-same": ["build", "mixed", "--n", "3", "--m", "1", "--pairing", "same"],
    "un-standard-n4": ["build", "un-standard", "--n", "4"],
    "mixed-n5-m2-conjugate": ["build", "mixed", "--n", "5", "--m", "2"],
    "ucnm-n5-m2": ["build", "ucnm", "--n", "5", "--m", "2"],
}
_GOLDEN_EVALS = {
    "eval/lambda.json": ["(adag(1)*a(3) + adag(3)*a(1)) * (1 - 2*N(2))", "--n", "3"],
    # a subnormal, a repeating decimal and an imaginary part
    "eval/mixed.json": [
        "0.1*adag(1)*a(2) - 1e-310*N(3) + 0.3333333333333333*i*adag(2)*a(1)", "--n", "3",
    ],
}


def _golden_digests():
    lines = (DATA / "matfile_sha256.txt").read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ") for line in lines)}


def test_written_files_match_golden_digests(tmp_path):
    for case, argv in _GOLDEN_CASES.items():
        assert main([*argv, "--out", str(tmp_path / case)]) == EXIT_OK
    (tmp_path / "eval").mkdir()
    for name, argv in _GOLDEN_EVALS.items():
        assert main(["eval", *argv, "--out", str(tmp_path / name)]) == EXIT_OK
    written = {
        str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*.json"))
    }
    assert written == _golden_digests()


# -- CLI exit codes ---------------------------------------------------------


def test_eval_out_of_a_non_finite_operator_exits_2_and_writes_nothing(tmp_path, capsys):
    target = tmp_path / "f.json"
    with np.errstate(invalid="ignore"):
        rc = main(["eval", "1e999*N(1)", "--n", "2", "--out", str(target)])
    assert rc == EXIT_USAGE
    assert "is not finite" in capsys.readouterr().err
    assert not target.exists()


@pytest.fixture
def built_std3(tmp_path):
    out = tmp_path / "std3"
    assert main(["build", "un-standard", "--n", "3", "--out", str(out)]) == EXIT_OK
    return out


def _rewrite(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["entries"][0].update(re="1.5"), "which is not a JSON number"),
        (lambda p: p["entries"][0].update(col=True), "which is not an integer"),
        (lambda p: p["entries"].reverse(), "strictly sorted"),
        (lambda p: p.update(dim=16), "does not equal"),
        (lambda p: p.update(modes=_CAP + 1, dim=1 << (_CAP + 1)), "modes must be an integer"),
    ],
)
def test_verify_from_read_refusal_exits_3_naming_the_file(built_std3, capsys, edit, message):
    target = built_std3 / "generator_002.json"
    _rewrite(target, edit)
    capsys.readouterr()
    assert main(["verify", "--from", str(built_std3)]) == EXIT_IO
    err = capsys.readouterr().err
    assert str(target) in err and message in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.pop("generators"), "manifest is missing 'generators'"),
        (lambda m: m["generators"][1].pop("file"), "generators must be a list"),
        (lambda m: m.update(family={"name": "nonsense"}), "unknown generator family"),
        (lambda m: m.update(modes=4), "standard: the set acts on 3 modes, not 4"),
        # a field the variant does not take is refused, not used or dropped
        (lambda m: m.update(particles=2), "standard takes no particles, got 2"),
        (lambda m: m.update(variant="nssfr", xi=[1, 1]), "nssfr takes no xi, got (1, 1)"),
        (lambda m: m.update(xi=5), "manifest xi 5 has the wrong type"),
        (lambda m: m.update(modes="3"), "manifest modes '3' has the wrong type"),
        (lambda m: m.update(generators=m["generators"][:5]),
         "manifest.json: family {'name': 'generalized_gell_mann', 'dim': 3} "
         "has 8 generators, the manifest lists 5"),
        (lambda m: m["family"].update(dim=100),
         "manifest.json: family {'name': 'generalized_gell_mann', 'dim': 100} "
         "has 9999 generators, the manifest lists 8"),
    ],
)
def test_verify_from_manifest_refusal_exits_3_naming_the_file(
    built_std3, capsys, monkeypatch, edit, message
):
    # a refusal must come before the family is built: ggm(100) alone is 1.6 GB
    small = liealg.generalized_gell_mann

    def guarded(d, *args, **kwargs):
        if d > 10:
            raise AssertionError(f"generalized_gell_mann({d}) built before refusing")
        return small(d, *args, **kwargs)

    monkeypatch.setattr(liealg, "generalized_gell_mann", guarded)
    _rewrite(built_std3 / "manifest.json", edit)
    capsys.readouterr()
    assert main(["verify", "--from", str(built_std3)]) == EXIT_IO
    err = capsys.readouterr().err
    assert str(built_std3) in err and message in err


def _never_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generator family built")

    monkeypatch.setattr(liealg, "generalized_gell_mann", refuse)


def test_verify_from_refuses_a_large_family_before_reading_any_file(built_std3, capsys, monkeypatch):
    # ggm(100) has 9,999 generators, so the count matches: the dimension refuses it
    _never_build(monkeypatch)
    _rewrite(built_std3 / "manifest.json", lambda m: m.update(
        family={"name": "generalized_gell_mann", "dim": 100},
        generators=[{"label": f"g{k}", "file": f"missing_{k}.json"} for k in range(9999)],
    ))
    capsys.readouterr()
    assert main(["verify", "--from", str(built_std3)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "manifest.json" in err and "standard: the set acts on 100 modes, not 3" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.update(particles=1), "is 6 x 6, not sector 1 of 4 modes"),
        (lambda m: m.update(particles=None), "ucnm takes particles m in [1, 3], got None"),
        (lambda m: m.update(variant="other"), "variant 'other' is not one that build writes"),
        (lambda m: m.update(xi=[0, 1], pairing="same"), "ucnm takes no xi, got (0, 1)"),
        (lambda m: m.update(pairing="same"), "ucnm takes no pairing, got 'same'"),
    ],
)
def test_verify_from_refuses_a_sector_family_of_the_wrong_dimension(
    tmp_path, capsys, monkeypatch, edit, message
):
    out = tmp_path / "ucnm42"
    assert main(["build", "ucnm", "--n", "4", "--m", "2", "--out", str(out)]) == EXIT_OK
    _never_build(monkeypatch)
    _rewrite(out / "manifest.json", edit)
    capsys.readouterr()
    assert main(["verify", "--from", str(out)]) == EXIT_IO
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.pop("pairing"), "mixed takes xi (1, 0), (0, 1) or (1, 1) and a pairing in "
                                     "('conjugate', 'same'), got [1, 1] and None"),
        (lambda m: m.update(pairing="other"), "got [1, 1] and 'other'"),
        (lambda m: m.update(xi=None), "got None and 'conjugate'"),
        (lambda m: m.update(xi=[0, 0]), "got [0, 0] and 'conjugate'"),
        (lambda m: m.update(xi=[2, 1]), "got [2, 1] and 'conjugate'"),
    ],
)
def test_verify_from_refuses_a_mixed_manifest_without_xi_or_pairing(
    tmp_path, capsys, monkeypatch, edit, message
):
    out = tmp_path / "mixed41"
    assert main(["build", "mixed", "--n", "4", "--m", "1", "--out", str(out)]) == EXIT_OK
    _never_build(monkeypatch)
    _rewrite(out / "manifest.json", edit)

    def never_read(path):
        raise AssertionError(f"{path} read")

    # refused with the family, before any operator file is read
    monkeypatch.setattr(matfile, "read_operator", never_read)
    capsys.readouterr()
    assert main(["verify", "--from", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "manifest.json" in err and message in err
    # read_manifest takes the fields' types only; the pairing names are schwinger's
    assert matfile.read_manifest(out / "manifest.json")["variant"] == "mixed"


def test_verify_from_builds_the_family_after_reading_every_file(built_std3, capsys, monkeypatch):
    _never_build(monkeypatch)
    (built_std3 / "generator_008.json").unlink()
    capsys.readouterr()
    assert main(["verify", "--from", str(built_std3)]) == EXIT_IO
    assert "generator_008.json" in capsys.readouterr().err


# -- one validator: what set_sectors accepts is what build writes and reads back --


def _written(meta, dim):
    """Whether build writes meta for a dim x dim set, the rules stated once more."""
    n, m, xi, pairing = meta.modes, meta.particles, meta.xi, meta.pairing
    if meta.variant in ("standard", "nssfr"):
        return (m, xi, pairing) == (None,) * 3 and dim == n and (meta.variant == "standard" or n >= 3)
    if meta.variant not in ("ucnm", "mixed") or m is None or not 1 <= m <= n - 1:
        return False
    if meta.variant == "ucnm":
        return (xi, pairing) == (None, None) and dim == math.comb(n, m)
    return (xi in [(1, 0), (0, 1), (1, 1)] and pairing in ("conjugate", "same") and 2 * m != n
            and dim == math.comb(n, m))


@st.composite
def _requests(draw):
    """A meta on n in [2, 7] modes and a set dimension, each field drawn as
    its variant takes it or as any value, so acceptance and every refusal
    come up."""
    variant = draw(st.sampled_from(["standard", "nssfr", "ucnm", "mixed", "units"]))
    n, sector, mixed = draw(st.integers(2, 7)), variant in ("ucnm", "mixed"), variant == "mixed"

    def field(fitting, anything):
        return draw(fitting if draw(st.booleans()) else anything)

    m = field(st.integers(1, n - 1) if sector else st.none(), st.none() | st.integers(-1, n + 1))
    xi = field(st.sampled_from([(1, 0), (0, 1), (1, 1)]) if mixed else st.none(),
               st.sampled_from([None, (1, 0), (0, 1), (1, 1), (0, 0), (2, 1)]))
    pairing = field(st.sampled_from(schwinger.PAIRINGS) if mixed else st.none(),
                    st.sampled_from([None, *schwinger.PAIRINGS, "other"]))
    fitting = math.comb(n, m) if sector and m is not None and 0 <= m <= n else n
    dim = field(st.just(fitting), st.integers(1, 12))
    return schwinger.RepMeta(variant, n, m, xi=xi, pairing=pairing), dim


class _Built(Exception):
    """The generator family was asked for: nothing refused the request."""


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_requests())
def test_one_validator_accepts_what_build_writes_and_refuses_before_any_set(tmp_path_factory, case):
    meta, dim = case
    try:
        sectors, refusal = schwinger.set_sectors(meta, dim), None
    except ValueError as err:
        sectors, refusal = None, str(err)
    assert (refusal is None) == _written(meta, dim), refusal
    out = tmp_path_factory.mktemp("manifest")
    (out / "op.json").write_text("")
    generators = [{"label": f"g{k}", "file": "op.json"} for k in range(dim * dim - 1)]
    manifest = {"variant": meta.variant, "modes": meta.modes, "particles": meta.particles,
                "xi": None if meta.xi is None else list(meta.xi),
                "family": {"name": "generalized_gell_mann", "dim": dim}, "generators": generators}
    if meta.pairing is not None:
        manifest["pairing"] = meta.pairing
    matfile.write_manifest(out / "manifest.json", manifest)

    def built(d, *args, **kwargs):
        raise _Built(d)

    def never_read(path):
        raise AssertionError(f"{path} read")

    group = {"standard": "un-standard", "nssfr": "un-nonstandard"}.get(meta.variant, meta.variant)
    # the metas build_variant forms: it drops xi and a pairing on every group but mixed
    asked = group == "mixed" or (meta.xi, meta.pairing) == (None, None) and meta.variant != "units"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(liealg, "generalized_gell_mann", built)
        mp.setattr(matfile, "read_operator", never_read)
        # a build's manifest is refused, naming it, before its family is built or a file read
        with pytest.raises(_Built if refusal is None else matfile.MatfileError) as read:
            cli_main._load_built(out)
        assert refusal is None or str(read.value) == f"{out / 'manifest.json'}: {refusal}"
        if asked:
            try:
                cli_main.build_variant(group, meta.modes, meta.particles, meta.xi, meta.pairing)
                raise AssertionError("built without the family")
            except _Built as request_built:
                builds = request_built.args[0]
            except ValueError:
                builds = None
            # the set build_variant asks for is one the validator takes for meta
            assert (builds == dim) == (refusal is None)
    if asked and refusal is None and dim <= 6:
        parts, gens, family = cli_main.build_variant(group, meta.modes, meta.particles, meta.xi, meta.pairing)
        parts = list(parts)
        assert family["dim"] == gens.dim == dim and sum(map(len, parts)) == len(gens)
        assert all(part.meta == replace(meta, labels=part.meta.labels) for part in parts)
        assert sectors == schwinger.set_sectors(parts[0].meta, dim)


def test_eval_check_read_refusal_exits_3_naming_the_file(built_std3, capsys):
    target = built_std3 / "generator_001.json"
    target.write_text(target.read_text()[:-40])
    capsys.readouterr()
    assert main(["eval", "N(1)", "--n", "3", "--check", str(target)]) == EXIT_IO
    assert str(target) in capsys.readouterr().err
    _rewrite(built_std3 / "generator_002.json", lambda p: p["entries"][0].update(row=0.5))
    assert main(["eval", "N(1)", "--n", "3", "--check", str(built_std3 / "generator_002.json")]) == EXIT_IO
