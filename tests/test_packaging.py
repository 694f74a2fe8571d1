"""Packaging: numpy is the only runtime dependency, and importing the CLI
loads nothing that only some commands use.

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

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "activelp"


def imported_roots(path):
    """Top-level names of the absolute imports in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


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
