"""The package's public surface."""

import ast
import importlib
from pathlib import Path

import teamopt

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
