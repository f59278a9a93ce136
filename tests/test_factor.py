"""Tests for exact factorization over Q of squarefree polynomials.

Oracle: sympy.factor_list, plus exact product round-trips computed with the
package's own Fraction polynomial arithmetic. factor_over_Q must reject an
input exactly where sympy reports a repeated factor. The prime choice that
factored every candidate fully is kept here as the reference for the count
that replaced it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from jacrank import factor
from jacrank.arith import is_prime
from jacrank.bounds import curve_min_poly
from jacrank.factor import factor_over_Q
from jacrank.modpoly import PrimePoly, factor_mod_p, is_squarefree_mod_p
from jacrank.polys import RationalPoly, resultant
from test_cyclosig import deadline
from test_polys import canonical


def roundtrip(f: RationalPoly) -> None:
    """The factors are monic, nonconstant and sorted by (degree,
    coefficients), and their product times lc(f) is f."""
    factors = factor_over_Q(f)
    assert factors == sorted(factors, key=lambda g: (g.deg(), g.coeffs))
    prod = RationalPoly([f.coeffs[-1]])
    for g in factors:
        assert g.is_monic()
        assert g.deg() >= 1
        prod = prod * g
    assert prod.coeffs == f.coeffs


def sympy_factor_set(f: RationalPoly):
    x = sympy.symbols("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(f.coeffs))
    _, facs = sympy.factor_list(sympy.Poly(expr, x))
    out = set()
    for g, mult in facs:
        poly = sympy.Poly(g, x)
        cs = list(reversed(poly.all_coeffs()))
        lc = cs[-1]
        monic = tuple(Fraction(int(sympy.numer(c / lc)), int(sympy.denom(c / lc)))
                      for c in cs)
        out.add((monic, int(mult)))
    return out


def check_against_sympy(f: RationalPoly) -> bool:
    """factor_over_Q raises ValueError exactly where sympy reports a
    multiplicity > 1; elsewhere it returns sympy's factor set, with product
    times lc(f) equal to f. Returns whether f was squarefree."""
    expected = sympy_factor_set(f)
    if any(mult > 1 for _, mult in expected):
        with pytest.raises(ValueError, match="repeated factor"):
            factor_over_Q(f)
        return False
    roundtrip(f)
    assert {(g.coeffs, 1) for g in factor_over_Q(f)} == expected, f
    return True


def test_curve_poly_minus_one_q11():
    # x^5+x^4-4x^3-3x^2+3x = x (x^2-3) (x^2+x-1)
    f = RationalPoly([0, 3, -3, -4, 1, 1])
    assert factor_over_Q(f) == [RationalPoly([0, 1]), RationalPoly([-3, 0, 1]),
                                RationalPoly([-1, 1, 1])]
    roundtrip(f)


def test_curve_poly_minus_one_q7():
    # x^3-x^2-2x = (x-2) x (x+1), ordered by degree then coefficients
    f = RationalPoly([0, -2, -1, 1])
    assert factor_over_Q(f) == [RationalPoly([-2, 1]), RationalPoly([0, 1]),
                                RationalPoly([1, 1])]


def test_irreducible_quartic_that_splits_mod_every_prime():
    # minimal polynomial of sqrt(2)+sqrt(3): recombination must merge the
    # two modular quadratics into one rational factor
    f = RationalPoly([1, 0, -10, 0, 1])
    assert factor_over_Q(f) == [f]


def test_degree_eleven_minpoly_stays_irreducible():
    f = RationalPoly([1, -6, -15, 35, 35, -56, -28, 36, 9, -10, -1, 1])
    assert factor_over_Q(f) == [f]


def test_repeated_factor_rejected_and_lc_restores_the_product():
    # 6 (x-1)^2 (x+1) has a repeated factor; 6 (x-1) (x+1) is 6 times the
    # product of its monic factors
    with pytest.raises(ValueError, match="repeated factor"):
        factor_over_Q(RationalPoly([6, -6, -6, 6]))
    f = RationalPoly([-6, 0, 6])
    assert factor_over_Q(f) == [RationalPoly([-1, 1]), RationalPoly([1, 1])]
    roundtrip(f)


def test_rational_content():
    f = RationalPoly([Fraction(-3, 2), 0, Fraction(3, 2)])
    assert factor_over_Q(f) == [RationalPoly([-1, 1]), RationalPoly([1, 1])]
    roundtrip(f)


def test_factors_are_canonical():
    """For lc = 1 every factor has int coefficients; otherwise each
    coefficient is an int when it is integral and a Fraction when not."""
    for f in (curve_min_poly(23) - RationalPoly([1]),
              RationalPoly([0, 3, -3, -4, 1, 1])):
        assert all(type(c) is int for g in factor_over_Q(f) for c in g.coeffs)
    f = RationalPoly([-1, 0, 0, 8])  # 8x^3 - 1 = (2x - 1)(4x^2 + 2x + 1)
    factors = factor_over_Q(f)
    assert factors == [RationalPoly([Fraction(-1, 2), 1]),
                       RationalPoly([Fraction(1, 4), Fraction(1, 2), 1])]
    assert all(canonical(c) for g in factors for c in g.coeffs)
    assert [type(c) for c in factors[0].coeffs] == [Fraction, int]


def test_constant_input():
    assert factor_over_Q(RationalPoly([Fraction(7, 3)])) == []


def test_zero_rejected():
    with pytest.raises(ValueError):
        factor_over_Q(RationalPoly([]))


def test_random_roundtrip_and_sympy_agreement():
    rng = random.Random(60103)
    for _ in range(60):
        deg = rng.randrange(1, 9)
        coeffs = [rng.randrange(-9, 10) for _ in range(deg)] + [rng.choice([1, -1, 2, 3])]
        f = RationalPoly(coeffs)
        if f.deg() < 1:
            continue
        check_against_sympy(f)


def test_random_products_recover_known_factors():
    rng = random.Random(60107)
    squarefree = 0
    for _ in range(40):
        f = RationalPoly([1])
        for _ in range(rng.randrange(2, 4)):
            d = rng.randrange(1, 4)
            g = RationalPoly([rng.randrange(-5, 6) for _ in range(d)] + [1])
            if g.deg() < 1:
                continue
            for _ in range(rng.randrange(1, 3)):
                f = f * g
        if f.deg() < 1:
            continue
        squarefree += check_against_sympy(f)
    assert 0 < squarefree < 40


# -- the contract on the inputs of the old shortcut, and the prime choice ----


def ref_good_prime(coeffs):
    """Reference: the smallest of the first five usable primes with the
    fewest modular factors, each prime factored fully."""
    best = None
    found = 0
    p = 1
    while found < 5:
        p += 1
        while not is_prime(p):
            p += 1
        if coeffs[-1] % p == 0:
            continue
        if not is_squarefree_mod_p(coeffs, p):
            continue
        factors = [list(g.coeffs) for g in factor_mod_p(PrimePoly(p, coeffs))]
        found += 1
        if best is None or len(factors) < len(best[1]):
            best = (p, factors)
        if len(factors) == 1:
            break
    return best


def squarefree_shortcut_polys():
    """The inputs the squarefree-mod-small-prime shortcut was checked on:
    seeded random polynomials, products with repeated factors, the Table-4
    f and f - 1, and squares that are squarefree mod 2."""
    rng = random.Random(60113)
    polys = []
    for _ in range(40):
        deg = rng.randrange(1, 8)
        polys.append(RationalPoly(
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
             for _ in range(deg)] + [rng.choice([1, -1, 2, Fraction(3, 2)])]))
    for _ in range(30):  # repeated factors
        f = RationalPoly([rng.choice([1, 2, -3])])
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(1, 4)
            g = RationalPoly([rng.randrange(-5, 6) for _ in range(d)]
                             + [rng.choice([1, 2])])
            for _ in range(rng.randrange(1, 4)):
                f = f * g
        polys.append(f)
    for q in (11, 23, 47, 59):
        f = curve_min_poly(q)
        polys += [f, f - RationalPoly([1])]
    # squares that drop to a squarefree polynomial mod the primes dividing
    # their leading coefficient: (2x + 1)^2 = 1 mod 2
    for g in (RationalPoly([1, 2]), RationalPoly([1, 6])):
        polys += [g * g, g * g * RationalPoly([-1, 1])]
    return [f for f in polys if f.deg() >= 1]


def test_factor_over_Q_matches_sympy_or_rejects():
    polys = squarefree_shortcut_polys()
    squarefree = sum(check_against_sympy(f) for f in polys)
    assert 0 < squarefree < len(polys)


def test_squarefree_but_not_mod_any_small_prime():
    # x^2 - 2*3*5*...*37 is squarefree over Q, and x^2 mod each of these
    # primes is not: no test mod one of them could decide its squarefreeness
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    n = 1
    for p in primes:
        n *= p
    f = RationalPoly([-n, 0, 1])
    assert not any(is_squarefree_mod_p(f.int_coeffs(), p) for p in primes)
    assert check_against_sympy(f)
    assert factor_over_Q(f) == [f]
    assert not check_against_sympy(f * f * RationalPoly([-n, 1]))


def test_resultant_only_after_five_primes_fail(monkeypatch):
    # disc(x^2 - 2310) = 9240 = 2^3 3 5 7 11: the first five primes fail,
    # and one nonzero resultant lets the search go on from 13
    calls = []

    def counted(f, g):
        calls.append(f)
        return resultant(f, g)

    monkeypatch.setattr(factor, "resultant", counted)
    f = RationalPoly([-2310, 0, 1])
    assert factor_over_Q(f) == [f]
    assert calls == [f]


def test_repeated_factor_needs_the_resultant():
    # (x + 1)^2 (x - 1) is not squarefree mod any prime: only the resultant
    # ends the search, so the deadline turns a skipped one into a failure
    with deadline(10), pytest.raises(ValueError, match="repeated factor"):
        factor_over_Q(RationalPoly([-1, -1, 1, 1]))


def test_curve_polynomial_needs_no_resultant(monkeypatch):
    """The curve polynomial of q = 503 is squarefree mod 2, which proves it
    squarefree: no resultant is computed."""
    def refuse(f, g):
        raise AssertionError("resultant computed")

    monkeypatch.setattr(factor, "resultant", refuse)
    f = curve_min_poly(503)
    assert factor_over_Q(f) == [f]


def test_good_prime_matches_full_factorization_reference():
    """The same prime and the same modular factors as when every candidate
    prime was factored fully: Table-4 polynomials, f - 1, and seeded monic
    squarefree integer polynomials."""
    polys = []
    for q in (11, 23, 47, 59):
        f = curve_min_poly(q).int_coeffs()
        polys += [f, [f[0] - 1] + f[1:]]
    rng = random.Random(60127)
    while len(polys) < 60:
        f = [rng.randrange(-20, 21) for _ in range(rng.randrange(2, 10))] + [1]
        try:
            factor_over_Q(RationalPoly(f))
        except ValueError:  # a repeated factor
            continue
        polys.append(f)
    for f in polys:
        assert factor._good_prime(f) == ref_good_prime(f), f
