"""Module structure: no private helper shared between jacrank modules, no
public name without a use in the package, no module reading the
environment, no generated or Cython source, a CLI import that pulls in no
process-pool or pickling machinery, each subcommand running only the module
bodies of its route, a lazy public API, and every layer the traced benchmark
wraps by name still exists and is traced."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jacrank

PACKAGE_DIR = Path(jacrank.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
ENV = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}

# prints the jacrank modules whose body has run; a lazy one not yet loaded
# is a subclass of ModuleType
RAN = ("print(' '.join(sorted(k[len('jacrank.'):] "
       "for k, m in sys.modules.items() if k.startswith('jacrank.') "
       "and type(m) is types.ModuleType)))")


def modules_run(argv, setup=""):
    """Exit code, output lines and the module bodies run by one
    `python -m jacrank ARGV` after the code SETUP; the last stdout line is
    the module list."""
    probe = (f"import runpy, sys, types\n{setup}"
             f"sys.argv = ['jacrank', *{list(argv)!r}]\n"
             "try:\n"
             "    runpy.run_module('jacrank', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             f"{RAN}\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=ENV, timeout=120)
    *out, ran = proc.stdout.splitlines()
    return proc.returncode, out, proc.stderr.splitlines(), set(ran.split())


def test_no_private_name_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offenders += [f"{path.name}:{node.lineno} from .{node.module} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_every_public_name_is_used_in_the_package():
    """Each name in `jacrank.__all__` is referenced by some module of the
    package, as a name or an attribute; its listing in `__all__` or
    `_EXPORTS` is a string and does not count."""
    used = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(jacrank.__all__) - used) == []


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


ROUTES = {
    "washington": (["washington", "--m", "1..300"],
                   {"cli", "arith", "f2", "stores", "bounds"}),
    "scan-rho": (["scan-rho", "--max-q", "300", "--threads", "1"],
                 {"cli", "arith", "f2", "cyclosig"}),
    "sophie-lower": (["sophie", "--q", "11", "--lower"],
                     {p.stem for p in PACKAGE_DIR.glob("*.py")}
                     - {"__init__", "__main__", "stats"}),
}


@pytest.mark.parametrize("route", ROUTES)
def test_subcommand_runs_only_its_route(route):
    argv, expected = ROUTES[route]
    code, out, _, ran = modules_run(argv)
    assert code in (0, 1) and out
    assert ran == expected


def test_package_import_runs_no_module_body_and_registers_layers():
    """`perfbench/tracer.py` imports `jacrank` and `jacrank.cli`, then looks
    every layer module up in sys.modules."""
    probe = (f"import sys, types, jacrank\n{RAN}\n"
             "import jacrank.cli\n"
             "print(' '.join(k for k in sys.modules if k.startswith('jacrank.')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=ENV, check=True)
    ran, registered = proc.stdout.splitlines()
    assert ran == ""
    assert {f"jacrank.{module}" for module, _ in _traced_layers()} \
        <= set(registered.split())


@pytest.mark.parametrize("argv,span", [
    (["washington", "--m", "1..30"], "bounds.washington_local_certificate"),
    (["sophie", "--q", "11", "--lower"],
     "numberfield.independence_rank_mod_squares"),
], ids=["washington", "sophie-lower"])
def test_traced_run_prints_the_same_and_spans_its_layers(argv, span, tmp_path):
    spans = tmp_path / "spans.jsonl"
    plain = subprocess.run([sys.executable, "-m", "jacrank", *argv],
                           capture_output=True, env=ENV, timeout=120)
    traced = subprocess.run([sys.executable, str(TRACER), str(spans), *argv],
                            capture_output=True, env=ENV, timeout=120)
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    names = {json.loads(line)[1] for line in spans.read_text().splitlines()}
    assert {"cli.main", span} <= names


def test_public_names_resolve_lazily():
    for name in jacrank.__all__:
        obj = getattr(jacrank, name)
        assert obj.__module__.startswith("jacrank."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(jacrank.__all__) <= set(dir(jacrank))
    namespace: dict = {}
    exec("from jacrank import *", namespace)
    assert all(namespace[name] is getattr(jacrank, name)
               for name in jacrank.__all__)
    with pytest.raises(AttributeError):
        jacrank.no_such_name
