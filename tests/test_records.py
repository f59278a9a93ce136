"""The package's records and value types: immutable, compared and hashed by
value, with a `Name(field=value, ...)` repr and their validation errors.

Plain records are NamedTuples, checked records NamedTuple subclasses whose
`__new__` validates, and the value types with their own arithmetic
(RationalPoly, FieldElement, RootIntervals) slotted classes."""

from __future__ import annotations

import copy
import re
from fractions import Fraction

import pytest

from jacrank.bounds import BoundReport, GTrivialityCertificate
from jacrank.cyclosig import RhoInftyCertificate, SophieGermainPair
from jacrank.f2 import MatF2, VecF2
from jacrank.modpoly import PrimePoly
from jacrank.numberfield import FieldElement, NumberField, SquareClassSet
from jacrank.polys import RationalPoly
from jacrank.roots import RootInterval, RootIntervals, isolate_real_roots
from jacrank.stats import SharpRow, StatsTables
from jacrank.stores import ClassGroupRecord, RankRecord


def _field():
    return NumberField(RationalPoly([1, -4, 1, 1]))


def _report():
    return BoundReport(curve="cubic-m1", genus=1, rho_infty="0",
                       j_infty_bound=1, cl2_used=0, cl2_source="test",
                       g_kernel_dim=0, upper_bound=1, lower_bound=None,
                       hypotheses=())


# a fresh instance of each public class, and one of its fields
MAKERS = {
    "VecF2": (lambda: VecF2(3, 5), "bits"),
    "MatF2": (lambda: MatF2(2, 3, (1, 6)), "rows"),
    "ClassGroupRecord": (lambda: ClassGroupRecord((1, -4, 1, 1), 0, None, "t"),
                         "cl2_rank"),
    "RankRecord": (lambda: RankRecord(1, "exact", 0, 1), "hi"),
    "SharpRow": (lambda: SharpRow(1, 10, 3, 4), "numerator"),
    "StatsTables": (lambda: StatsTables((SharpRow(1, 10, 3, 4),), (0,), (1,),
                                        (((0, 1), 3),), {0: 3},
                                        ((1, Fraction(0)),), ((0, 1, 2),)),
                    "r_values"),
    "SophieGermainPair": (lambda: SophieGermainPair(5, 11), "p"),
    "RhoInftyCertificate": (
        lambda: RhoInftyCertificate(SophieGermainPair(5, 11), 4, True),
        "d_infty"),
    "GTrivialityCertificate": (
        lambda: GTrivialityCertificate((2, 11), ((2, "inert-by-order"),)),
        "evidence"),
    "BoundReport": (_report, "upper_bound"),
    "PrimePoly": (lambda: PrimePoly(5, (1, 7, 0)), "coeffs"),
    "RationalPoly": (lambda: RationalPoly([1, Fraction(1, 2)]), "coeffs"),
    "RootInterval": (lambda: RootInterval(Fraction(0), Fraction(1)), "lo"),
    "RootIntervals": (lambda: isolate_real_roots(RationalPoly([1, -4, 1, 1])),
                      "intervals"),
    "FieldElement": (lambda: _field().element([1, 2]), "coords"),
    "SquareClassSet": (
        lambda: SquareClassSet(_field(), (_field().element([1, 2]),)),
        "representatives"),
}


@pytest.mark.parametrize("name", MAKERS)
def test_fields_are_read_only(name):
    make, field = MAKERS[name]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.no_such_field = 1


@pytest.mark.parametrize("name", MAKERS)
def test_equal_values_compare_and_hash_equal(name):
    make, _ = MAKERS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert copy.deepcopy(a) == a
    assert type(a).__name__ == name and repr(a).startswith(f"{name}(")
    if name == "StatsTables":  # holds a dict, as before: no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_bound_report_repr_names_every_field():
    assert repr(_report()) == (
        "BoundReport(curve='cubic-m1', genus=1, rho_infty='0', "
        "j_infty_bound=1, cl2_used=0, cl2_source='test', g_kernel_dim=0, "
        "upper_bound=1, lower_bound=None, hypotheses=())")
    assert _report()._replace(lower_bound=1).lower_bound == 1


def test_value_types_are_not_tuples():
    """RationalPoly and FieldElement have arithmetic of their own, and
    RootIntervals iterates its intervals: none is a tuple, and the
    Sturm chain stays out of equality, hash and repr."""
    f = RationalPoly([1, 2])
    assert not isinstance(f, tuple)
    assert f + f == RationalPoly([2, 4])
    with pytest.raises(TypeError):
        len(f)
    a = _field().element([1, 2])
    assert not isinstance(a, tuple)
    assert -a == _field().element([-1, -2])
    with pytest.raises(TypeError):
        iter(a)
    ivs = isolate_real_roots(RationalPoly([1, -4, 1, 1]))
    bare = RootIntervals(ivs.poly, ivs.intervals, ())
    assert not isinstance(ivs, tuple) and len(ivs) == 3
    assert list(ivs) == list(ivs.intervals)
    assert ivs == bare and hash(ivs) == hash(bare) and repr(ivs) == repr(bare)
    assert repr(bare) == (f"RootIntervals(poly={ivs.poly!r}, "
                          f"intervals={ivs.intervals!r})")
    assert "chain" not in repr(ivs)


@pytest.mark.parametrize("build,message", [
    (lambda: VecF2(2, 4), "bits exceed vector length"),
    (lambda: VecF2(-1, 0), "bits exceed vector length"),
    (lambda: MatF2(2, 2, (1,)), "bit storage length"),
    (lambda: MatF2(1, 2, (4,)), "row value exceeds column width"),
    (lambda: PrimePoly(4, (1, 1)), "modulus must be prime"),
    (lambda: SophieGermainPair(4, 9), "p must be an odd prime"),
    (lambda: SophieGermainPair(5, 13), "q must equal 2p+1"),
    (lambda: SophieGermainPair(7, 15), "q must be prime"),
    (lambda: SquareClassSet(_field(), (_field().element([]),)),
     "must be nonzero"),
    (lambda: SquareClassSet(
        _field(), (NumberField(RationalPoly([-2, 0, 0, 1])).element([1]),)),
     "different field"),
], ids=["vec-overflow", "vec-negative", "mat-rows", "mat-width",
        "prime-poly", "pair-p", "pair-q",
        "pair-q-prime", "class-zero", "class-foreign"])
def test_validation_errors_are_kept(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# each checked record: an instance, a field, a value that fails its check
# with the message, and a valid one
CHECKED = {
    "SophieGermainPair": (lambda: SophieGermainPair(5, 11), "q", 13,
                          "q must equal 2p+1", 11),
    "VecF2": (lambda: VecF2(3, 5), "bits", 64, "bits exceed vector length", 7),
    "MatF2": (lambda: MatF2(2, 3, (1, 6)), "bits", (1,),
              "bit storage length", (7, 0)),
    "PrimePoly": (lambda: PrimePoly(5, (1, 7, 0)), "modulus", 4,
                  "modulus must be prime", 3),
    "SquareClassSet": (lambda: SquareClassSet(_field(), (_field().element([1, 2]),)),
                       "representatives", (_field().element([]),), "must be nonzero",
                       (_field().element([3]),)),
}


@pytest.mark.parametrize("name", CHECKED)
def test_replace_and_make_run_the_checks(name):
    """`_replace` and `_make` build through the checked constructor, so a
    bad field raises as it would there and a good one gives the value the
    constructor gives, of the same class."""
    make, field, bad, message, good = CHECKED[name]
    value = make()
    cls = type(value)
    fields = {f: getattr(value, f) for f in cls._fields}
    with pytest.raises(ValueError, match=re.escape(message)):
        value._replace(**{field: bad})
    with pytest.raises(ValueError, match=re.escape(message)):
        cls._make({**fields, field: bad}.values())
    replaced = value._replace(**{field: good})
    assert type(replaced) is cls
    assert replaced == cls(**{**fields, field: good})
    assert type(cls._make(value)) is cls and cls._make(value) == value
    assert value._replace() == value


def test_normalising_constructors():
    assert PrimePoly(5, (6, 10, 5)).coeffs == (1,)
    assert RationalPoly([1, 0, 0]).coeffs == (Fraction(1),)
    assert SquareClassSet(_field(), ()).representatives == ()
