"""Build script: compiles the optional C polynomial gcd `jacrank._f2core`.

The package works without it (`jacrank.f2` falls back to a pure-Python
loop), so `optional=True` turns a missing compiler into a pure install
instead of an error.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("jacrank._f2core", ["src/jacrank/_f2core.c"],
                             optional=True)])
