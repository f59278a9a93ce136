"""Certified rank bounds for Jacobians of two hyperelliptic curve families.

Upper bounds come from 2-descent dimension counts driven by unit-signature
certificates and ingested class-group 2-ranks; lower bounds come from rational
points constructed by factoring f(x) - y0^2 and measuring the multiplicative
independence of the resulting classes modulo squares.

Importing the package runs no submodule body. Each submodule is registered
in `sys.modules` as a lazy module whose body runs on its first attribute
access, and the public names below resolve through `__getattr__`, so a CLI
subcommand loads only the modules its route uses.
"""

from __future__ import annotations

import importlib.util
import sys

__version__ = "0.1.0"

# every public name and the submodule that defines it
_EXPORTS = {
    "BoundReport": "bounds",
    "ClassGroupRecord": "stores",
    "FieldElement": "numberfield",
    "GTrivialityCertificate": "bounds",
    "NumberField": "numberfield",
    "RankRecord": "stores",
    "RationalPoly": "polys",
    "RhoInftyCertificate": "cyclosig",
    "SophieGermainPair": "cyclosig",
    "SquareClassSet": "numberfield",
    "SquarenessUndetermined": "numberfield",
    "builtin_class_groups": "stores",
    "certify_rho_infty": "cyclosig",
    "curve_min_poly": "bounds",
    "format_poly": "polys",
    "independence_rank_mod_squares": "numberfield",
    "ingest_class_groups": "stores",
    "ingest_rank_data": "stores",
    "lower_bound_from_points": "bounds",
    "min_poly_2cos": "polys",
    "scan_sophie_germain": "cyclosig",
    "sharpness_stats": "stats",
    "sophie_germain_pairs": "cyclosig",
    "sophie_local_certificate": "bounds",
    "sophie_upper_bound": "bounds",
    "two_inert_in_real_cyclotomic": "bounds",
    "washington_bound": "bounds",
    "washington_local_certificate": "bounds",
    "washington_rho_certificate": "bounds",
}

__all__ = sorted(_EXPORTS)

# `cli` is left out: it is the entry point, loaded only when a command runs
for _name in ("arith", "bounds", "cyclosig", "f2", "factor", "modpoly",
              "numberfield", "polys", "roots", "stats", "stores"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
