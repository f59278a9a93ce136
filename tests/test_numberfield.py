"""Tests for exact number field arithmetic, squareness, and delta classes.

Oracles: hand-reduced products in small fields, the resultant identity
norm(theta) = (-1)^deg f(0), multiplicativity laws on random elements, and
exactly verified square witnesses.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jacrank import numberfield
from jacrank.arith import primes_upto
from jacrank.bounds import curve_min_poly
from jacrank.cyclosig import SophieGermainPair, canonical_signature
from jacrank.factor import factor_over_Q
from jacrank.modpoly import is_squarefree_mod_p
from jacrank.numberfield import (
    NumberField,
    SquareClassSet,
    SquarenessUndetermined,
    delta_class_of_factor,
    independence_rank_mod_squares,
)
from jacrank.polys import RationalPoly, min_poly_2cos
from test_modpoly import root_test_polys, roots_mod_p

Q7 = NumberField(min_poly_2cos(7, True))            # x^3 - x^2 - 2x + 1
Q11 = NumberField(min_poly_2cos(11, False))         # x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1
F143 = NumberField(RationalPoly([1, -146, 143, 1]))  # x^3 + 143x^2 - 146x + 1


def rand_elem(field, rng, span=6):
    return field.element([Fraction(rng.randrange(-span, span + 1),
                                   rng.randrange(1, 4)) for _ in range(field.degree)])


def test_field_validation():
    with pytest.raises(ValueError):
        NumberField(RationalPoly([1, 1, 2]))  # not monic
    with pytest.raises(ValueError):
        NumberField(RationalPoly([Fraction(1, 2), 0, 1]))  # not integral
    with pytest.raises(ValueError):
        NumberField(RationalPoly([-1, 0, 1]))  # reducible
    with pytest.raises(ValueError):
        NumberField(RationalPoly([3, 1]))  # degree 1
    assert Q7.degree == 3 and Q11.degree == 5


def test_power_basis_reduction():
    th = Q7.theta()
    assert (th * (th * th)).coords == (Fraction(-1), Fraction(2), Fraction(1))


def test_inverse_roundtrip():
    rng = random.Random(40111)
    for field in (Q7, Q11):
        for _ in range(25):
            a = rand_elem(field, rng)
            if a.is_zero():
                continue
            assert (a * a.inverse()) == field.one()
            assert (field.one() / a) == a.inverse()
    with pytest.raises(ZeroDivisionError):
        Q7.zero().inverse()


def test_example_product_identity():
    th = Q11.theta()
    prod = (th * th - 3) * (th * th + th - 1) * th
    assert prod == -Q11.one()


def test_norm_values():
    assert Q7.norm(-Q7.one()) == -1
    assert Q11.norm(-Q11.one()) == -1
    assert Q7.norm(Q7.one()) == 1
    assert F143.norm(F143.theta()) == -1  # = -f(0)
    assert Q11.norm(Q11.theta()) == -1


def test_norm_multiplicative():
    rng = random.Random(40127)
    for field in (Q7, Q11, F143):
        for _ in range(15):
            a, b = rand_elem(field, rng), rand_elem(field, rng)
            assert field.norm(a * b) == field.norm(a) * field.norm(b)
        c = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        assert field.norm(field.element([c])) == c ** field.degree


def test_signature_values():
    assert Q7.signature(Q7.one()).signs == (1, 1, 1)
    assert F143.signature(F143.theta()).signs == (-1, 1, 1)
    # theta here generates the q=11 field built from +(zeta+zeta^-1); its
    # sorted conjugates are (-1.92, -1.31, -0.28, 0.83, 1.68)
    assert Q11.signature(Q11.theta()).signs == (-1, -1, -1, 1, 1)
    assert Q11.signature(-Q11.theta()).signs == (1, 1, 1, -1, -1)
    with pytest.raises(ValueError):
        Q7.signature(Q7.zero())


def test_signature_multiplicative():
    rng = random.Random(40153)
    for field in (Q7, Q11):
        for _ in range(12):
            a, b = rand_elem(field, rng), rand_elem(field, rng)
            if a.is_zero() or b.is_zero():
                continue
            sa = field.signature(a).signs
            sb = field.signature(b).signs
            sab = field.signature(a * b).signs
            assert sab == tuple(x * y for x, y in zip(sa, sb))


def test_signature_lifts_canonical_unit():
    for p, q in [(3, 7), (5, 11), (11, 23)]:
        pair = SophieGermainPair(p, q)
        field = NumberField(min_poly_2cos(q, p % 4 == 1))
        assert field.signature(field.theta()) == canonical_signature(pair)


def test_is_square_basic():
    th = Q11.theta()
    ok, w = Q11.is_square(th * th)
    assert ok and w is not None and w * w == th * th
    ok, w = Q11.is_square(-th * (th * th - 3))
    assert not ok and w is None
    ok, w = Q11.is_square((th * th - 3) * (th * th + th - 1) * th * -Q11.one())
    assert ok and w * w == Q11.one()
    ok, w = Q7.is_square(Q7.element([4]))
    assert ok and w * w == Q7.element([4])
    ok, _ = Q7.is_square(Q7.element([2]))
    assert not ok
    ok, _ = Q7.is_square(-Q7.one())
    assert not ok
    with pytest.raises(ValueError):
        Q7.is_square(Q7.zero())


def test_is_square_random_squares():
    rng = random.Random(40163)
    for field in (Q7, Q11):
        for _ in range(12):
            b = rand_elem(field, rng, span=3)
            if b.is_zero():
                continue
            a = b * b
            ok, w = field.is_square(a)
            assert ok
            assert w * w == a
            assert w == b or w == -b


def test_screens_never_reject_squares():
    # every individual screen must pass on a true square
    rng = random.Random(40177)
    for _ in range(10):
        b = rand_elem(Q11, rng, span=4)
        if b.is_zero():
            continue
        a = b * b
        n = Q11.norm(a)
        assert (n.numerator >= 0 and
                Q11._is_rational_square(n))
        assert all(s > 0 for s in Q11.signature(a).signs)


def test_is_square_rejects_even_degree_field():
    gauss = NumberField(RationalPoly([1, 0, 1]))  # Q(i), where -1 is a square
    with pytest.raises(ValueError, match="odd-degree"):
        gauss.is_square(-gauss.one())


def test_independence_rank_example():
    th = Q11.theta()
    classes = SquareClassSet(Q11, (-th, th * th - 3, th * th + th - 1))
    assert independence_rank_mod_squares(classes) == 2


def test_independence_rank_degenerate():
    assert independence_rank_mod_squares(SquareClassSet(Q11, (Q11.one(),))) == 0
    th = Q7.theta()
    assert independence_rank_mod_squares(SquareClassSet(Q7, (th, th))) == 1
    with pytest.raises(ValueError):
        SquareClassSet(Q7, (Q7.zero(),))
    with pytest.raises(ValueError):
        independence_rank_mod_squares(
            SquareClassSet(Q7, tuple(Q7.element([k]) for k in range(2, 19))))


def test_delta_classes_example():
    th = Q11.theta()
    g1 = RationalPoly([0, 1])
    g2 = RationalPoly([-3, 0, 1])
    g3 = RationalPoly([-1, 1, 1])
    assert delta_class_of_factor(g1, Fraction(1), Q11) == -th
    assert delta_class_of_factor(g2, Fraction(1), Q11) == th * th - 3
    assert delta_class_of_factor(g3, Fraction(1), Q11) == th * th + th - 1
    with pytest.raises(ValueError):
        delta_class_of_factor(Q11.poly, Fraction(1), Q11)  # g = f shares roots
    with pytest.raises(ValueError):
        delta_class_of_factor(RationalPoly([1, 1]), Fraction(1), Q11)  # not a factor


def test_delta_product_is_square():
    # product over all factors of f - y0^2 is y0^2 times a square
    for field, y0 in [(Q7, Fraction(1)), (Q11, Fraction(1))]:
        shifted = field.poly - RationalPoly([y0 * y0])
        from jacrank.factor import factor_over_Q
        _, factors = factor_over_Q(shifted)
        prod = field.one()
        for g, mult in factors:
            assert mult == 1
            prod = prod * delta_class_of_factor(g, y0, field)
        ok, w = field.is_square(prod)
        assert ok and w * w == prod


def test_undetermined_is_an_exception_type():
    assert issubclass(SquarenessUndetermined, RuntimeError)


# -- split primes: the value sieve against the Frobenius reference -----------


def frobenius_split_primes(coeffs, lo, hi):
    """Reference: (ell, roots of f mod ell) for the primes lo < ell <= hi
    (lo >= 2) not dividing disc(f) at which f has a root, one Frobenius
    power per prime."""
    out = []
    for ell in primes_upto(hi):
        if ell > lo and is_squarefree_mod_p(coeffs, ell):
            roots = roots_mod_p(coeffs, ell)
            if roots:
                out.append((ell, roots))
    return out


def sieved_split_primes(field, hi):
    """The field's split primes up to hi, by `_split_prime`."""
    out = []
    while True:
        ell, roots = field._split_prime(len(out))
        if ell > hi:
            return out
        out.append((ell, roots))


def random_irreducible_polys(seed, count):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        f = RationalPoly([rng.randrange(-30, 31)
                          for _ in range(rng.randrange(2, 12))] + [1])
        _, factors = factor_over_Q(f)
        if len(factors) == 1 and factors[0][1] == 1:
            polys.append(f)
    return polys


def test_sieve_matches_frobenius_roots_below_800():
    """The sieve's roots equal the Frobenius reference at every odd prime
    ell < 800 on the 29 test polynomials of test_modpoly, with the windows
    `_split_prime` uses."""
    for f in root_test_polys():
        sieved, lo = [], 2
        while lo < 800:
            hi = max(2 * lo, numberfield._FIRST_WINDOW)
            sieved += numberfield._sieve_split_primes(f, lo, hi)
            lo = hi
        assert [s for s in sieved if s[0] < 800] \
            == frobenius_split_primes(f, 2, 799), f


def test_split_prime_matches_frobenius_reference():
    """Table-4 fields and seeded random irreducible polynomials of degree 2
    to 11, through the five sieve windows that reach past 600."""
    polys = [curve_min_poly(q) for q in (11, 23, 47, 59)]
    polys += random_irreducible_polys(61, 16)
    for f in polys:
        field = NumberField(f)
        want = frobenius_split_primes(f.int_coeffs(), 2, 600)
        assert sieved_split_primes(field, 600) == want, f


def test_sieve_window_edges():
    f = (-2, 0, 1)  # x^2 - 2: ell splits iff ell = +-1 mod 8
    # 257 = 1 mod 8 is the first prime above the window boundary 256; its
    # roots 60 and 197 recur at t = 317 and 454 < 512, which must not count
    field = NumberField(RationalPoly(f))
    split = dict(sieved_split_primes(field, 600))
    assert split[257] == [60, 197]
    assert numberfield._sieve_split_primes(f, 256, 512)[0] == (257, [60, 197])
    assert split[7] == [3, 4]  # t = 10, 11, ..., 60 in the first window
    # windows that start just below a split prime, end on one, hold one
    # prime or none, on a field split only at ell = +-1 mod 47
    g = curve_min_poly(47).int_coeffs()
    for lo, hi in ((280, 300), (2, 281), (281, 283), (186, 189), (2, 3)):
        assert numberfield._sieve_split_primes(g, lo, hi) \
            == frobenius_split_primes(g, lo, hi), (lo, hi)
    assert numberfield._sieve_split_primes(g, 280, 282)[0][0] == 281
    assert numberfield._sieve_split_primes(f, 4, 4) == []
