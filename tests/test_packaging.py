"""Packaging: numpy is the only runtime dependency, importing the CLI
loads nothing that only some commands use, and the test oracles stay
independent of the kernel they check.

scipy and other packages may be installed next to the package, so an
accidental import of one would pass every other test; this reads the
imports of every module instead of running them.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "activelp"


def imported_roots(path):
    """Top-level names of the absolute imports in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def taken_from_amm(path):
    """The names one module imports from `activelp.amm`; "activelp.amm" for
    an import that reaches the whole module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ("activelp.amm" for alias in node.names
                        if alias.name.split(".")[0] == "activelp")
        elif isinstance(node, ast.ImportFrom) and node.module == "activelp.amm":
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "activelp":
            yield from ("activelp.amm" for alias in node.names if alias.name == "amm")


@pytest.mark.parametrize("oracle", ["amm_oracle.py", "stepper.py"])
def test_oracles_take_only_scalar_tick_math_from_amm(oracle):
    # the scalar oracles are the reference for the array kernel in amm, so
    # they may share the tick math but not the formulas they check
    taken = set(taken_from_amm(ROOT / "tests" / oracle))
    assert taken and taken <= {"tick_index", "price_at_tick", "PoolSpec"}


def test_modules_import_only_stdlib_numpy_and_the_package():
    allowed = set(sys.stdlib_module_names) | {"numpy", "activelp"}
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    outside = sorted(f"{path.name}: {root}" for path in modules
                     for root in imported_roots(path) if root not in allowed)
    assert outside == []


def test_pyproject_declares_only_numpy():
    text = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r"^dependencies = \[(.*)\]$", text, re.MULTILINE)
    assert declared is not None
    assert re.findall(r'"([A-Za-z0-9_.-]+)', declared[1]) == ["numpy"]


def test_cli_import_loads_no_process_pool():
    # multiprocessing (and socket with it) serves only n_jobs > 1; a fresh
    # process shows what `import activelp.cli` loads, as every command pays it
    code = ("import sys, activelp.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def writer_sites(path):
    """(function, what) for each `csv.writer` use and each string constant
    holding a CRLF row terminator in one module, by enclosing function."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "writer"
                and isinstance(node.value, ast.Name) and node.value.id == "csv"):
            sites.append((function, "csv.writer"))
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            sites.append((function, "from csv import"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "\r\n" in node.value:
            sites.append((function, "CRLF"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return sites


def test_one_csv_row_writer():
    # data.write_csv writes every table; only agents.csv, whose error column
    # is free text that csv must be free to quote, keeps a csv.writer
    sites = [f"{path.name}: {function}: {what}" for path in PACKAGE.rglob("*.py")
             for function, what in writer_sites(path)]
    assert sorted(set(sites)) == ["data.py: write_csv: CRLF",
                                  "harness.py: emit_report: csv.writer"]
    assert sites.count("harness.py: emit_report: csv.writer") == 1
