"""Tests for exact factorization over Q.

Oracle: sympy.factor_list, plus exact product round-trips computed with the
package's own Fraction polynomial arithmetic. The Yun-always pipeline and the
prime choice that factored every candidate fully are kept here as references
for the shortcuts that replaced them.
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
from jacrank.polys import RationalPoly


def roundtrip(f: RationalPoly) -> None:
    content, factors = factor_over_Q(f)
    prod = RationalPoly([content])
    for g, mult in factors:
        assert g.is_monic()
        assert g.deg() >= 1
        for _ in range(mult):
            prod = prod.__mul__(g)
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


def ours_factor_set(f: RationalPoly):
    _, factors = factor_over_Q(f)
    return {(g.coeffs, mult) for g, mult in factors}


def test_curve_poly_minus_one_q11():
    # x^5+x^4-4x^3-3x^2+3x = x (x^2-3) (x^2+x-1)
    f = RationalPoly([0, 3, -3, -4, 1, 1])
    content, factors = factor_over_Q(f)
    assert content == 1
    assert [(g.coeffs, m) for g, m in factors] == [
        ((Fraction(0), Fraction(1)), 1),
        ((Fraction(-3), Fraction(0), Fraction(1)), 1),
        ((Fraction(-1), Fraction(1), Fraction(1)), 1),
    ]
    roundtrip(f)


def test_curve_poly_minus_one_q7():
    # x^3-x^2-2x = (x-2) x (x+1), ordered by degree then coefficients
    f = RationalPoly([0, -2, -1, 1])
    content, factors = factor_over_Q(f)
    assert content == 1
    assert [(g.coeffs, m) for g, m in factors] == [
        ((Fraction(-2), Fraction(1)), 1),
        ((Fraction(0), Fraction(1)), 1),
        ((Fraction(1), Fraction(1)), 1),
    ]


def test_irreducible_quartic_that_splits_mod_every_prime():
    # minimal polynomial of sqrt(2)+sqrt(3): recombination must merge the
    # two modular quadratics into one rational factor
    f = RationalPoly([1, 0, -10, 0, 1])
    content, factors = factor_over_Q(f)
    assert content == 1
    assert len(factors) == 1
    assert factors[0][0].coeffs == f.coeffs
    assert factors[0][1] == 1


def test_degree_eleven_minpoly_stays_irreducible():
    f = RationalPoly([1, -6, -15, 35, 35, -56, -28, 36, 9, -10, -1, 1])
    _, factors = factor_over_Q(f)
    assert len(factors) == 1 and factors[0][1] == 1
    assert factors[0][0].coeffs == f.coeffs


def test_content_and_multiplicity():
    # 6 (x-1)^2 (x+1) = 6x^3 - 6x^2 - 6x + 6
    f = RationalPoly([6, -6, -6, 6])
    content, factors = factor_over_Q(f)
    assert content == 6
    assert [(g.coeffs, m) for g, m in factors] == [
        ((Fraction(-1), Fraction(1)), 2),
        ((Fraction(1), Fraction(1)), 1),
    ]


def test_rational_content():
    f = RationalPoly([Fraction(-3, 2), 0, Fraction(3, 2)])
    content, factors = factor_over_Q(f)
    assert content == Fraction(3, 2)
    assert [(g.coeffs, m) for g, m in factors] == [
        ((Fraction(-1), Fraction(1)), 1),
        ((Fraction(1), Fraction(1)), 1),
    ]


def test_constant_input():
    content, factors = factor_over_Q(RationalPoly([Fraction(7, 3)]))
    assert content == Fraction(7, 3) and factors == []


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
        roundtrip(f)
        assert ours_factor_set(f) == sympy_factor_set(f)


def test_random_products_recover_known_factors():
    rng = random.Random(60107)
    for _ in range(40):
        f = RationalPoly([1])
        for _ in range(rng.randrange(2, 4)):
            d = rng.randrange(1, 4)
            g = RationalPoly([rng.randrange(-5, 6) for _ in range(d)] + [1])
            if g.deg() < 1:
                continue
            for _ in range(rng.randrange(1, 3)):
                f = f.__mul__(g)
        if f.deg() < 1:
            continue
        roundtrip(f)
        assert ours_factor_set(f) == sympy_factor_set(f)


# -- fast paths against the full paths they replace ---------------------------


def yun_factor_over_Q(f: RationalPoly):
    """Reference: factor_over_Q with Yun's decomposition always run, as
    before the squarefree-mod-p shortcut."""
    content, prim = f.primitive()
    lc = prim.lc()
    content *= lc
    out = []
    for part, mult in factor._yun_squarefree(prim.monic()):
        _, ipart = part.primitive()
        plc = int(ipart.lc())
        icoeffs = [int(c) for c in ipart.coeffs]
        if plc == 1:
            work, scale = icoeffs, 1
        else:
            n = len(icoeffs) - 1
            work = [icoeffs[i] * plc ** (n - 1 - i) for i in range(n)] + [1]
            scale = plc
        for g in factor._factor_squarefree_monic_int(work):
            d = len(g) - 1
            out.append((RationalPoly([Fraction(g[i], scale ** (d - i))
                                      for i in range(d + 1)]), mult))
    out.sort(key=lambda gm: (gm[0].deg(), gm[0].coeffs))
    return content, out


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


def test_factor_over_Q_matches_yun_path():
    for f in squarefree_shortcut_polys():
        assert factor_over_Q(f) == yun_factor_over_Q(f), f


def test_squarefree_but_not_mod_any_small_prime_falls_back_to_yun():
    # x^2 - 2*3*5*...*37 is squarefree over Q, and x^2 mod each of these
    # primes is not
    n = 1
    for p in factor._SMALL_PRIMES:
        n *= p
    f = RationalPoly([-n, 0, 1])
    assert not any(is_squarefree_mod_p(f.int_coeffs(), p)
                   for p in factor._SMALL_PRIMES)
    assert factor_over_Q(f) == yun_factor_over_Q(f) == (1, [(f, 1)])
    g = f * f * RationalPoly([-n, 1])
    assert factor_over_Q(g) == yun_factor_over_Q(g) \
        == (1, [(RationalPoly([-n, 1]), 1), (f, 2)])


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
        if all(m == 1 for _, m in factor_over_Q(RationalPoly(f))[1]):
            polys.append(f)
    for f in polys:
        assert factor._good_prime(f) == ref_good_prime(f), f
