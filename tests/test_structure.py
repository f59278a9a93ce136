"""Module structure: no private helper shared between jacrank modules, no
module reading the environment, no generated or Cython source, a CLI import
that pulls in no process-pool or pickling machinery, and every layer the
traced benchmark wraps by name still exists."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
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


def test_no_module_reads_the_environment():
    """Behaviour is chosen from what the code can observe, never by a knob."""
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders += [f"{path.name}:{node.lineno} from os import {alias.name}"
                              for alias in node.names
                              if alias.name in ("environ", "getenv", "*")]
    assert offenders == []


def test_no_generated_or_cython_sources():
    """Every source in the package is hand-written and builds without Cython."""
    offenders = []
    for path in sorted(p for p in PACKAGE_DIR.iterdir() if p.is_file()):
        with path.open("rb") as fh:
            if path.suffix == ".pyx" or b"Generated by" in fh.readline():
                offenders.append(path.name)
    assert offenders == []


def test_cli_import_stays_flat():
    """The scan forks its workers with os.fork; importing the CLI loads none
    of the heavier process machinery, which start-up time would pay for."""
    heavy = ("multiprocessing", "concurrent.futures", "subprocess", "pickle")
    probe = ("import sys, jacrank.cli; "
             f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, cwd=PACKAGE_DIR.parent)
    assert proc.stdout.split() == []


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
