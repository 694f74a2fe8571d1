"""Packaging: numpy is the only runtime dependency, importing the CLI
loads nothing that only some commands use, each command loads only the
modules it runs, the package resolves its exported names on first use, and
the test oracles stay independent of the kernel they check.

scipy and other packages may be installed next to the package, so an
accidental import of one would pass every other test; this reads the
imports of every module instead of running them.
"""

import ast
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import typing

import numpy as np
import pytest

import activelp
from activelp import data, ppo

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "activelp"


def imported_roots(path):
    """Top-level names of the absolute imports in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def taken_from(path, module="amm"):
    """The names one module imports from `activelp.<module>`;
    "activelp.<module>" for an import that reaches the whole module."""
    whole = f"activelp.{module}"
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (whole for alias in node.names
                        if alias.name.split(".")[0] == "activelp")
        elif isinstance(node, ast.ImportFrom) and node.module == whole:
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "activelp":
            yield from (whole for alias in node.names if alias.name == module)


@pytest.mark.parametrize("oracle", ["amm_oracle.py", "stepper.py"])
def test_oracles_take_only_scalar_tick_math_from_amm(oracle):
    # the scalar oracles are the reference for the array kernel in amm, so
    # they may share the tick math but not the formulas they check
    taken = set(taken_from(ROOT / "tests" / oracle))
    assert taken and taken <= {"tick_index", "price_at_tick", "PoolSpec"}


@pytest.mark.parametrize("oracle", ["stepper.py", "greedy.py"])
def test_oracles_take_nothing_that_decides_observes_or_scores_from_env(oracle):
    # the per-step references for walk, replay and run_policy may share the
    # env's constants and data types, not the code they check
    taken = set(taken_from(ROOT / "tests" / oracle, "env"))
    assert taken.isdisjoint({"activelp.env", "LPEnv", "replay", "run_policy", "_score"})


def test_csv_oracle_imports_nothing_from_the_package():
    # the per-cell writer is the reference for data.write_csv
    roots = set(imported_roots(ROOT / "tests" / "csv_oracle.py"))
    assert "activelp" not in roots and roots <= set(sys.stdlib_module_names) | {"numpy"}


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


def fresh_env():
    """The environment of a fresh process that imports the package from src/."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                         os.environ.get("PYTHONPATH", "")])}


# every name `activelp` exported when its __init__ imported all five modules
EXPORTS = [
    "PoolSpec", "price_at_tick", "tick_index",
    "DataError", "PriceSeries", "gbm_generate", "load_candles", "resample_hourly",
    "EnvConfig", "EpisodeTrace", "FeatureStats", "LPEnv", "MarketTape", "compute_features",
    "compute_stats", "replay", "run_passive", "run_policy",
    "ConfigError", "ExperimentConfig", "SearchGrid", "Window", "WindowResult", "emit_report",
    "make_windows", "run_experiment", "run_window", "sample_spec",
    "AgentSpec", "Categorical", "Mlp", "RolloutBatch", "TrainingDiverged", "TrainResult",
    "advantages", "compute_returns", "load_checkpoint", "ppo_objective", "save_checkpoint",
    "train", "train_population",
]
SUBMODULES = ["amm", "cli", "data", "env", "harness", "indicators", "ppo"]


class TestPackageExports:
    def test_each_name_is_its_home_modules_object(self):
        assert len(EXPORTS) == len(set(EXPORTS)) == 41
        for name in EXPORTS:
            obj = getattr(activelp, name)
            assert obj.__module__ in {"activelp.amm", "activelp.data", "activelp.env",
                                      "activelp.harness", "activelp.ppo"}, name
            assert vars(sys.modules[obj.__module__])[name] is obj, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from activelp import *", namespace)
        assert set(EXPORTS) <= set(namespace)
        assert all(namespace[name] is getattr(activelp, name) for name in EXPORTS)

    def test_submodules_resolve_as_attributes(self):
        for name in SUBMODULES:
            assert getattr(activelp, name) is sys.modules[f"activelp.{name}"]

    def test_dir_lists_names_and_submodules(self):
        listed = dir(activelp)
        assert set(EXPORTS) | set(SUBMODULES) | {"__version__"} <= set(listed)
        assert listed == sorted(listed)

    def test_unknown_attribute_raises_naming_it(self):
        with pytest.raises(AttributeError, match="'activelp' has no attribute 'no_such_name'"):
            activelp.no_such_name


def functions_of(module):
    """Every function, class and method defined in `module`: methods,
    class and static methods, property getters and cached properties."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                for attr in ("__func__", "fget", "func"):
                    member = getattr(member, attr, member)
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", SUBMODULES)
def test_annotations_resolve(name):
    # an annotation that names something its module imports only inside a
    # function, to keep its import set small, raises NameError here
    module = importlib.import_module(f"activelp.{name}")
    checked = 0
    for fn in functions_of(module):
        typing.get_type_hints(fn)
        checked += 1
    assert checked


class TestImportSets:
    """What a fresh process holds in sys.modules after one command: each
    command loads only the modules it runs."""

    @staticmethod
    def loaded_after(*argv):
        """The activelp modules, and dataclasses if loaded, after one
        `cli.main(argv)` in a fresh process that exits with code 0."""
        code = ("import json, sys; from activelp import cli; rc = cli.main(sys.argv[1:]); "
                "print(json.dumps(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('activelp', 'dataclasses')))); sys.exit(rc)")
        run = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=fresh_env(),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return set(json.loads(run.stdout.splitlines()[-1]))

    @pytest.fixture
    def candles(self, tmp_path):
        path = tmp_path / "candles.csv"
        data.gbm_generate(seed=1, n_hours=300, p_start=3000.0, drift=0.0,
                          vol=0.004).to_csv(path)
        return path

    def test_import_activelp_loads_no_submodule(self):
        code = "import sys, activelp; print(sorted(m for m in sys.modules if 'activelp' in m))"
        out = subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out == "['activelp']\n"

    def test_data_commands_load_only_data(self, tmp_path, candles):
        trades = tmp_path / "trades.csv"
        trades.write_text("timestamp,price\n" + "".join(f"{i * 600},{100 + i % 7}\n"
                                                        for i in range(30)))
        out = tmp_path / "out.csv"
        for argv in (["ingest", "--trades", trades, "--out", out],
                     ["ingest", "--candles", candles, "--out", out],
                     ["generate", "--out", out, "--hours", 50]):
            assert self.loaded_after(*argv) == {"activelp", "activelp.cli", "activelp.data"}

    def test_baseline_loads_no_trainer_or_harness(self, candles):
        loaded = self.loaded_after("baseline", "--candles", candles, "--period", 100)
        assert "activelp.env" in loaded
        assert loaded.isdisjoint({"activelp.ppo", "activelp.harness"})

    def test_evaluate_loads_no_harness(self, tmp_path, candles):
        ckpt = tmp_path / "agent.npz"
        spec = ppo.AgentSpec(action_set=(0, 20, 50), hidden_layers=(4,))
        rng = np.random.default_rng(0)
        ppo.save_checkpoint(ckpt, ppo.TrainResult(spec, ppo.Mlp.build([13, 4, 3], "tanh", rng),
                                                  ppo.Mlp.build([13, 4, 1], "tanh", rng), [],
                                                  0, False))
        loaded = self.loaded_after("evaluate", "--candles", candles, "--checkpoint", ckpt)
        assert "activelp.ppo" in loaded and "activelp.harness" not in loaded


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
