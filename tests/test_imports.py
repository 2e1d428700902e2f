"""Each CLI command imports only the modules it uses, and the package
resolves its public names and submodules on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermirep
from fermirep.cli.main import main

SRC = Path(__file__).resolve().parent.parent / "src"

# runs the CLI, then prints its exit code and the fermirep modules it imported
_CLI = (
    "import json, sys\n"
    "from fermirep.cli.main import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('fermirep'))]))\n"
)


def _python(code, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_eval_imports_neither_builders_nor_checks(tmp_path):
    assert main(["build", "un-standard", "--n", "3", "--out", str(tmp_path)]) == 0
    rc, modules = _python(_CLI, "eval", "adag(1)*a(2) + adag(2)*a(1)", "--n", "3",
                          "--check", str(tmp_path / "generator_001.json"))
    assert rc == 0
    assert "fermirep.cli.expr" in modules
    for name in ("verify", "schwinger", "liealg", "report"):
        assert f"fermirep.{name}" not in modules


def test_build_imports_neither_checks_nor_the_expression_parser(tmp_path):
    rc, modules = _python(_CLI, "build", "un-standard", "--n", "3", "--out", str(tmp_path))
    assert rc == 0
    assert {"fermirep.liealg", "fermirep.schwinger", "fermirep.cli.matfile"} <= set(modules)
    for name in ("verify", "report", "cli.expr"):
        assert f"fermirep.{name}" not in modules


def test_public_names_and_submodules_resolve_on_first_access():
    code = (
        "import json, sys\n"
        "import fermirep\n"
        "before = sorted(m for m in sys.modules if m.startswith('fermirep.'))\n"
        "resolved = [name for name in fermirep.__all__ if getattr(fermirep, name) is not None]\n"
        "print(json.dumps([before, resolved, fermirep.verify.__name__,"
        " fermirep.schwinger.__name__]))\n"
    )
    before, resolved, verify_name, schwinger_name = _python(code)
    assert before == []
    assert resolved == fermirep.__all__
    assert (verify_name, schwinger_name) == ("fermirep.verify", "fermirep.schwinger")


def test_star_import_binds_every_public_name():
    code = "import json\nfrom fermirep import *\nprint(json.dumps(sorted(dir())))\n"
    names = _python(code)
    assert set(fermirep.__all__) <= set(names)
    assert fermirep.standard_rep is fermirep.schwinger.standard_rep
    with pytest.raises(AttributeError, match="no_such_name"):
        fermirep.no_such_name
