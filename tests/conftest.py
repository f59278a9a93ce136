"""Shared fixtures, built once per session: the serial certified scan and
the compiled F2 gcd kernel."""

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

CORE_SOURCE = Path(f2.__file__).with_name("_f2core.c")


@pytest.fixture(scope="session")
def compiled_core(tmp_path_factory):
    """`jacrank._f2core` compiled into a temporary directory, never into src/."""
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler found: {cc!r} is not on PATH")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("f2core")
    cmd = build_ext(Distribution(
        {"ext_modules": [Extension("jacrank._f2core", [str(CORE_SOURCE)])]}))
    cmd.build_lib, cmd.build_temp = str(out / "lib"), str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        "jacrank._f2core", cmd.get_ext_fullpath("jacrank._f2core"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def certified_scan():
    """The serial scan of all 630 pairs with q <= 92459 and its seconds."""
    start = time.monotonic()
    certs = scan_sophie_germain(92459)
    return certs, time.monotonic() - start
