"""Module structure: no private helper shared between jacrank modules, and
every layer the traced benchmark wraps by name still exists."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import jacrank

PACKAGE_DIR = Path(jacrank.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_no_private_name_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offenders += [f"{path.name}:{node.lineno} from .{node.module} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def _traced_layers():
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    for node in tree.body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("LAYERS not found in perfbench/tracer.py")


def test_traced_layers_resolve():
    layers = _traced_layers()
    assert layers
    for module, attr in layers:
        obj = importlib.import_module(f"jacrank.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), (module, attr)
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)
