"""The package's public surface."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import teamopt

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [n for n in teamopt.__all__ if not hasattr(teamopt, n)]
    assert missing == []
    assert len(set(teamopt.__all__)) == len(teamopt.__all__)


def test_shared_decision_interface_is_exported():
    assert {"DecisionParts", "decide", "team_predict"} <= set(teamopt.__all__)
    assert callable(teamopt.DiscriminativeSystem.parts)
    assert callable(teamopt.VoiSystem.parts)


def test_every_traced_function_resolves():
    # the benchmark's --trace 1 wraps these and fails on a missing one
    tree = ast.parse(TRACER.read_text())
    spanned = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["SPANNED"])
    assert spanned
    missing = [f"{mod}.{attr}" for mod, attr in spanned
               if not hasattr(importlib.import_module(f"teamopt.{mod}"), attr)]
    assert missing == []


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```\nsrc/teamopt/\n", 1)[1].split("```", 1)[0]
    # an entry's first word is its module
    named = {line.split()[0] for line in block.splitlines() if line.strip()}
    modules = {p.name for p in (ROOT / "src" / "teamopt").glob("*.py")
               if not p.name.startswith("__")}
    assert modules - named == set()


def test_no_module_defines_a_top_level_name_twice():
    # a second `def` of a name silently replaces the first, so a test
    # defined twice runs once and its first copy never does
    repeated = []
    for path in sorted([*(ROOT / "src" / "teamopt").glob("*.py"),
                        *(ROOT / "tests").glob("*.py")]):
        seen = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name in seen:
                    repeated.append(f"{path.name}:{node.lineno} {node.name}")
                seen.add(node.name)
    assert repeated == []


def test_no_module_imports_a_private_name_of_another():
    # a `_` name belongs to its own module; one that another module needs
    # gets a public name
    private = []
    for path in sorted((ROOT / "src" / "teamopt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0]
                    == "teamopt"):
                private += [f"{path.name}:{node.lineno} {a.name}"
                            for a in node.names if a.name.startswith("_")]
    assert private == []


def test_every_import_of_a_module_is_used():
    # a refactor that drops a name's last use leaves its import behind;
    # __init__.py imports to re-export, and `from __future__` sets flags
    unused = []
    for path in sorted((ROOT / "src" / "teamopt").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).split(".")[0]
                         for a in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}"
                       for name in names if name not in used]
    assert unused == []


def fresh_python(code: str, *args: str) -> str:
    """Standard output of `code` run in a fresh interpreter on this
    checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def tiny_config(tmp_path) -> Path:
    """A config file that runs every approach on a tiny dataset in about a
    second, writing under `tmp_path`."""
    config = {
        "dataset": {"synthetic": {"num_classes": 3, "feature_dim": 4,
                                  "n": 300, "class_priors": [0.5, 0.3, 0.2],
                                  "seed": 1}},
        "train": {"iterations": 5, "hidden_dims": [4],
                  "calibration_interval": 5},
        "approaches": ["human-only", "fixed-disc", "joint-disc",
                       "fixed-voi", "joint-voi"],
        "costs": [0.0, 0.1], "lambda_grid": [1.0], "seeds": [0],
        "out": str(tmp_path / "out")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path


def test_tracer_spans_every_trainer_a_sweep_runs(tmp_path):
    # the tracer wraps functions by name, and it patches modules for good,
    # hence the fresh interpreter; a trainer or step layer the sweep
    # reaches under another name would read 0 in the benchmark's per-layer
    # metrics (numerics.dropout_us and numerics.sgd_step_us among them)
    path = tiny_config(tmp_path)
    code = ("import collections, json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import tracer\n"
            "spans = tracer.install(sys.argv[2]).spans\n"
            "from teamopt import cli\n"
            "assert cli.main(['sweep', '--config', sys.argv[3]]) == 0\n"
            "print(json.dumps(collections.Counter(s[0] for s in spans)))\n")
    counts = json.loads(fresh_python(code, str(TRACER.parent),
                                     str(tmp_path), str(path)))
    reached = ["discriminative.train_fixed",
               "discriminative.train_query_policy",
               "discriminative.train_joint", "voi.train_fixed_voi",
               "voi.train_joint_voi", "numerics.sample_dropout_masks",
               "numerics.sgd_step"]
    assert [t for t in reached if not counts.get(t)] == []


def modules_loaded_by_run_path() -> set[str]:
    """Every module a fresh interpreter holds after importing the CLI."""
    code = ("import sys, teamopt.cli, teamopt; "
            "print('\\n'.join(sys.modules))")
    return set(fresh_python(code).split())


def loaded_under(modules: set[str], roots) -> list[str]:
    return sorted(m for m in modules
                  if any(m == r or m.startswith(r + ".") for r in roots))


def test_run_path_imports_no_scipy():
    # importing scipy.stats would add about 1 s to every command's start-up
    assert loaded_under(modules_loaded_by_run_path(), ["scipy"]) == []


def test_run_path_imports_no_network_or_process_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, ssl and email
    # (~35 ms), and concurrent.futures.process pulls in multiprocessing,
    # socket and subprocess (~20 ms); importing the CLI loads none of them.
    # This checks the import alone, not a run: a run's first generator
    # imports numpy.random, whose bit_generator imports secrets, and with
    # it hashlib
    unused = ["xml", "ssl", "_ssl", "http", "email", "urllib.request",
              "socket", "multiprocessing", "concurrent", "subprocess",
              "hashlib"]
    assert loaded_under(modules_loaded_by_run_path(), unused) == []


def test_no_command_loads_numpy_ma(tmp_path):
    # numpy.ma costs about 10 ms and 1 MB for the rest of the process;
    # np.quantile (through np.unique) and np.median load it, and no
    # command needs a masked array
    path = tiny_config(tmp_path)
    code = ("import sys\n"
            "from teamopt import cli\n"
            "for argv in (['generate'], ['sweep'], ['sweep', '--jobs', '2'],\n"
            "             ['analyze']):\n"
            "    assert cli.main([*argv, '--config', sys.argv[1]]) == 0\n"
            "    print(' '.join(argv), 'numpy.ma' in sys.modules)\n"
            "assert cli.main(['verify']) == 0\n"
            "print('verify', 'numpy.ma' in sys.modules)\n")
    loaded = [line for line in fresh_python(code, str(path)).splitlines()
              if line.endswith("True")]
    assert loaded == []
