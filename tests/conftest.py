"""Shared fixtures, built once per session: the serial certified scan, and
the reference F2 gcd that the tests check the production gcd against.

The reference is `_f2core.c` beside this file, a C schoolbook gcd compiled
into pytest's temporary directory when a C compiler is present; the package
itself is pure Python and never imports it."""

from __future__ import annotations

import importlib.util
import os
import shutil
import sysconfig
import time
from pathlib import Path

import pytest

from jacrank import f2
from jacrank.cyclosig import scan_sophie_germain

CORE_SOURCE = Path(__file__).with_name("_f2core.c")


@pytest.fixture(scope="session")
def compiled_core(tmp_path_factory):
    """`_f2core.c` compiled into a temporary directory; skips without a C
    compiler."""
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler found: {cc!r} is not on PATH")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("f2core")
    cmd = build_ext(Distribution(
        {"ext_modules": [Extension("_f2core", [str(CORE_SOURCE)])]}))
    cmd.build_lib, cmd.build_temp = str(out / "lib"), str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "_f2core", cmd.get_ext_fullpath("_f2core"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def reference_gcd(request):
    """gcd over F2 of polynomials packed into int bits, by the compiled
    reference, a few times faster than the production loop; by the
    production `f2.poly_gcd` itself when no C compiler is present."""
    try:
        core = request.getfixturevalue("compiled_core")
    except pytest.skip.Exception:
        return f2.poly_gcd

    def gcd(a: int, b: int) -> int:
        if a < 0 or b < 0:
            raise ValueError("packed polynomials must be nonnegative")
        n = (max(a.bit_length(), b.bit_length()) + 7) // 8
        return int.from_bytes(
            core.poly_gcd(a.to_bytes(n, "little"), b.to_bytes(n, "little")),
            "little")

    return gcd


@pytest.fixture(scope="session")
def certified_scan():
    """The serial scan of all 630 pairs with q <= 92459 and its seconds."""
    start = time.monotonic()
    certs = scan_sophie_germain(92459)
    return certs, time.monotonic() - start

