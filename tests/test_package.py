"""The package's public surface."""

import ast
import importlib
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


def modules_loaded_by_run_path() -> set[str]:
    """Every module a fresh interpreter holds after importing the CLI."""
    code = ("import sys, teamopt.cli, teamopt; "
            "print('\\n'.join(sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def loaded_under(modules: set[str], roots) -> list[str]:
    return sorted(m for m in modules
                  if any(m == r or m.startswith(r + ".") for r in roots))


def test_run_path_imports_no_scipy():
    # importing scipy.stats would add about 1 s to every command's start-up
    assert loaded_under(modules_loaded_by_run_path(), ["scipy"]) == []


def test_run_path_imports_no_network_or_process_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, ssl and email
    # (~35 ms), and concurrent.futures.process pulls in multiprocessing,
    # socket and subprocess (~20 ms); a serial sweep calls none of them
    unused = ["xml", "ssl", "_ssl", "http", "email", "urllib.request",
              "socket", "multiprocessing", "concurrent", "subprocess",
              "hashlib"]
    assert loaded_under(modules_loaded_by_run_path(), unused) == []
