"""Module structure: no private helper shared between jacrank modules, no
public name or public method without a use in the package, no public
function or method that no subcommand runs, no module reading the
environment, no generated or Cython source, no file in the package but
Python modules and data tables, no module importing `dataclasses`, a CLI
import that pulls in no process-pool, pickling, class-generation or
Fraction machinery, no test importing a third-party module that the `test`
extra does not declare, each subcommand running only the module bodies of its
route, no true division outside the modules whose values are Fractions, a
lazy public API, and every layer the traced benchmark wraps by name still
exists and is traced."""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
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
# standard modules whose import start-up pays for: process pools and
# pickling, the class generation of `dataclasses` with what it imports,
# `fractions` with `decimal`, and `signal` (its enum conversions), which
# only a scan interrupted while its children run needs
HEAVY = ("multiprocessing", "concurrent.futures", "subprocess", "pickle",
         "dataclasses", "inspect", "fractions", "decimal", "signal")
# HEAVY modules loaded, printed as the second-to-last line by `modules_run`
LOADED = f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"


def modules_run(argv, setup=""):
    """Exit code, output lines, the module bodies run and the HEAVY modules
    loaded by one `python -m jacrank ARGV` after the code SETUP; the last
    two stdout lines are the two module lists."""
    probe = (f"import runpy, sys, types\n{setup}"
             f"sys.argv = ['jacrank', *{list(argv)!r}]\n"
             "try:\n"
             "    runpy.run_module('jacrank', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             f"{LOADED}\n{RAN}\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=ENV, timeout=120)
    *out, heavy, ran = proc.stdout.splitlines()
    return (proc.returncode, out, proc.stderr.splitlines(), set(ran.split()),
            set(heavy.split()))


def test_no_private_name_imported_across_modules():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offenders += [f"{path.name}:{node.lineno} from .{node.module} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def _module_all(path: Path) -> list:
    """The literal `__all__` of one module, or [] if it has none."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _public_methods(path: Path) -> list:
    """`Class.method` for each public method of the classes one module
    defines at its top level."""
    return [f"{node.name}.{item.name}"
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def test_every_public_name_is_used_in_the_package():
    """Each name in `jacrank.__all__` and in every module's `__all__` is
    referenced by some module of the package, as a name or an attribute,
    and each public method of a class the package defines is read as an
    attribute by some module (a local variable of the same name does not
    count); or either is called by the benchmark: as
    `jacrank.<module>.<name>` (its start-up probe asks `f2.backend_name`),
    or as a method its tracer wraps by name in `LAYERS`
    (`NumberField.is_square`). A listing in `__all__` or `_EXPORTS` is a
    string and does not count."""
    names, attrs = set(), set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    used = names | attrs
    bench_calls = {f"{module}.{name}" for path in sorted(TRACER.parent.glob("*.py"))
                   for module, name in re.findall(r"\bjacrank\.(\w+)\.(\w+)\(",
                                                  path.read_text())}
    bench_calls |= {f"{module}.{attr}" for module, attr in _traced_layers()}
    unused = sorted(set(jacrank.__all__) - used)
    for path in sorted(PACKAGE_DIR.glob("[!_]*.py")):  # __init__: the line above
        unused += [f"{path.stem}.{name}" for name in _module_all(path)
                   if name not in used and f"{path.stem}.{name}" not in bench_calls]
        unused += [f"{path.stem}.{name}" for name in _public_methods(path)
                   if name.rsplit(".", 1)[1] not in attrs
                   and f"{path.stem}.{name}" not in bench_calls]
    assert unused == []


def _public_functions() -> dict:
    """`module.function` or `module.Class.method` for each public non-dunder
    function the package defines at module level or in a class body, keyed
    by (file, first line), the first line being that of its first
    decorator, as in `co_firstlineno` (`co_qualname` needs Python 3.11)."""
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node, node.name)]
            elif isinstance(node, ast.ClassDef):
                defs = [(item, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for fn, name in defs:
                if not fn.name.startswith("_"):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    found[(str(path), first)] = f"{path.stem}.{name}"
    return found


# runs every subcommand in this process under sys.setprofile, then the two
# calls the benchmark makes directly, and prints each route's exit code and
# the (file, first line) of every package function that ran; a forked scan
# child's calls are lost, so `--threads 2` covers only the parent's side
# (shares, forks, pipes) and `--threads 1` the certificate functions; the
# curve polynomial of q = 11 takes `lower-bound` through the value walk of
# a degree-5 field, a route `sophie --lower` does not run, and
# (x - 1)(x + 1)^2, squarefree mod no prime, through the resultant that
# rejects it
PROFILED_RUN = """
import contextlib, io, json, os, sys
import jacrank
from jacrank import cli, f2
from jacrank.cyclosig import SophieGermainPair, certify_rho_infty
package = os.path.dirname(jacrank.__file__) + os.sep
data = os.path.join(package, "data")
ran = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

routes = [
    ["washington", "--m", "1..30", "--clgroups", sys.argv[1]],
    ["washington", "--m", "1..30", "--verbose"],
    ["sophie", "--q", "11,23,47,59", "--lower", "--table", "--verbose"],
    ["sophie", "--q", "7,83,1019"],
    ["sophie", "--q", "7,83,1019", "--assume-davis-taussky"],
    ["scan-rho", "--max-q", "3000", "--threads", "1"],
    ["scan-rho", "--max-q", "3000", "--threads", "2"],
    ["lower-bound", "--poly", "1,-4,1,1", "--y0", "1/3", "--verbose"],
    ["lower-bound", "--poly", "1,-4,1,1", "--y0", "1"],
    ["lower-bound", "--poly", "1,3,-3,-4,1,1"],
    ["lower-bound", "--poly=-1,-1,1,1"],
    ["minpoly", "--q", "23"],
    ["stats", "--ranks", os.path.join(data, "synthetic_ranks.txt")],
]
output = io.StringIO()
sys.setprofile(profile)
with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
    codes = [cli.main(argv) for argv in routes]
    certify_rho_infty(SophieGermainPair(5, 11), method="matrix")
    f2.backend_name()
sys.setprofile(None)
print(json.dumps([codes, sorted(ran)]))
"""


def test_every_public_function_runs_on_a_route(tmp_path):
    """Each public non-dunder function and method of the package runs on
    some subcommand, or in one of the benchmark's direct calls (the matrix
    route of `certify_rho_infty`, `f2.backend_name`), unless the
    benchmark's tracer wraps it by name in `LAYERS`."""
    clgroups = tmp_path / "class_groups.txt"
    clgroups.write_text((PACKAGE_DIR / "data" / "class_groups.txt").read_text())
    proc = subprocess.run([sys.executable, "-c", PROFILED_RUN, str(clgroups)],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, ran = json.loads(proc.stdout)
    # data is missing for some m <= 30 and for q = 83 and 1019 without the
    # Davis-Taussky assumption: exit 1; the reducible polynomial is invalid
    # input: exit 2; every other route 0
    assert codes == [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0]
    ran = {(str(Path(path).resolve()), line) for path, line in ran}
    exempt = {f"{module}.{attr}" for module, attr in _traced_layers()}
    never = sorted(name for key, name in _public_functions().items()
                   if key not in ran and name not in exempt)
    assert never == []


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


def test_package_ships_only_python_modules_and_data():
    """The package is pure Python: besides `.py` modules it holds only the
    `data/*.txt` tables, and no C or Cython source or built extension. The
    compiled F2 gcd the tests check against lives in `tests/`."""
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*")):
        rel = path.relative_to(PACKAGE_DIR)
        if path.is_dir() or "__pycache__" in rel.parts:
            continue
        module = len(rel.parts) == 1 and rel.suffix == ".py"
        table = rel.parent == Path("data") and rel.suffix == ".txt"
        if not (module or table):
            offenders.append(str(rel))
    assert offenders == []


def _absolute_imports(path: Path):
    """(line, dotted name) of each module that `import` or an absolute
    `from ... import` in the source file `path` names."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


def test_no_module_imports_dataclasses():
    """Records are NamedTuples and value types are slotted classes: a
    dataclass generates and compiles its methods at import."""
    offenders = [f"{path.name}:{line} {name}"
                 for path in sorted(PACKAGE_DIR.glob("*.py"))
                 for line, name in _absolute_imports(path)
                 if name.split(".")[0] == "dataclasses"]
    assert offenders == []


def test_tests_import_only_declared_modules():
    """A fresh `pip install -e ".[test]"` collects every test module: each
    top-level module that `tests/*.py` imports is in the standard library,
    is `jacrank` or a test module beside it, or is named in the `test`
    extra of pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    tests_dir = Path(__file__).resolve().parent
    with (tests_dir.parent / "pyproject.toml").open("rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in extra}
    local = {path.stem for path in tests_dir.glob("*.py")} | {"jacrank"}
    known = sys.stdlib_module_names | local | declared
    undeclared = [f"{path.name}:{line} {name}"
                  for path in sorted(tests_dir.glob("*.py"))
                  for line, name in _absolute_imports(path)
                  if name.split(".")[0] not in known]
    assert undeclared == []


def test_cli_import_stays_flat():
    """The scan forks its workers with os.fork; importing the CLI loads none
    of the HEAVY modules, which start-up time would pay for."""
    probe = f"import sys, jacrank.cli; {LOADED}"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, cwd=PACKAGE_DIR.parent)
    assert proc.stdout.split() == []


# the modules whose values are Fractions by construction: root-interval
# endpoints and the sharpness ratios; everywhere else an exact value may be
# an int, which `/` would turn into a float
FRACTION_MODULES = {"roots", "stats"}


def _rooted_at_path(node: ast.expr) -> bool:
    """Whether node is built from a `Path(...)` call, so that `/` on it
    joins paths."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.BinOp)):
        node = (node.value if isinstance(node, ast.Attribute) else
                node.func if isinstance(node, ast.Call) else node.left)
    return isinstance(node, ast.Name) and node.id == "Path"


def test_no_true_division_on_integer_data():
    """Integral values are stored as ints, so `/` or `/=` on them would
    give a float; an exact quotient is built as `polys.rational(n, d)` or
    an explicit Fraction."""
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem in FRACTION_MODULES:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                left = node.left
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                left = node.target
            else:
                continue
            if not _rooted_at_path(left):
                offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
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


LOWER_BOUND_MODULES = ({p.stem for p in PACKAGE_DIR.glob("*.py")}
                       - {"__init__", "__main__", "stats", "cyclosig", "roots"})
# argv, the module bodies it runs, and the HEAVY modules it may load: integer
# data stay ints, so only a --y0 that is not an integer builds a Fraction
ROUTES = {
    "washington": (["washington", "--m", "1..300"],
                   {"cli", "arith", "stores", "bounds"}, set()),
    "scan-rho": (["scan-rho", "--max-q", "300", "--threads", "1"],
                 {"cli", "arith", "f2", "cyclosig"}, set()),
    "sophie-lower": (["sophie", "--q", "11", "--lower"],
                     {"cli", "arith", "f2", "stores", "bounds", "polys"},
                     set()),
    "lower-bound": (["lower-bound", "--poly", "1,-4,1,1", "--y0", "1"],
                    LOWER_BOUND_MODULES, set()),
    "lower-bound-rational-y0": (
        ["lower-bound", "--poly", "1,-4,1,1", "--y0", "1/2"],
        LOWER_BOUND_MODULES, {"fractions", "decimal"}),
}


@pytest.mark.parametrize("route", ROUTES)
def test_subcommand_runs_only_its_route(route):
    argv, expected, allowed = ROUTES[route]
    code, out, _, ran, heavy = modules_run(argv)
    assert code in (0, 1) and out
    assert ran == expected
    assert heavy <= allowed


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
    (["sophie", "--q", "11", "--lower"], "bounds.sophie_upper_bound"),
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


def test_benchmark_selftest_passes():
    """The benchmark's self-test at toy size: each correctness gate passes
    on the right expectations and fails on corrupted ones, and both modes
    emit the metrics BENCHMARK.json names."""
    selftest = TRACER.parent / "selftest.py"
    proc = subprocess.run([sys.executable, str(selftest)], capture_output=True,
                          text=True, timeout=300, cwd=TRACER.parents[1])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 failed checks"
