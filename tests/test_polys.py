"""Exact polynomials over Q: arithmetic, resultants, cyclotomic minimal polys.

The resultant oracle is a fraction-free Bareiss determinant of the Sylvester
matrix -- brute force, independent of the subresultant sequence used by the
implementation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, cos, gcd, pi

import pytest

from jacrank.arith import primes_upto
from jacrank.bounds import curve_min_poly
from jacrank.cyclosig import sophie_germain_pairs
from jacrank.factor import factor_over_Q
from jacrank.polys import (
    RationalPoly,
    format_poly,
    _psi,
    min_poly_2cos,
    min_poly_2cos_roots,
    min_poly_2cos_split,
    resultant,
)


def compose(f: RationalPoly, inner: RationalPoly) -> RationalPoly:
    """f(inner) by Horner's rule."""
    acc = RationalPoly([])
    for c in reversed(f.coeffs):
        acc = acc * inner + RationalPoly([c])
    return acc


def evaluate(f: RationalPoly, x: Fraction) -> Fraction:
    """f(x) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def discriminant(f: RationalPoly) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    n = f.deg()
    if n < 1:
        raise ValueError("constant polynomial has no discriminant")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.coeffs[-1]


def sylvester_resultant(f: RationalPoly, g: RationalPoly) -> Fraction:
    """Oracle: det of the Sylvester matrix via fraction-free Bareiss."""
    m, n = f.deg(), g.deg()
    assert m >= 0 and n >= 0
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + list(fc) + [Fraction(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + list(gc) + [Fraction(0)] * (m - 1 - i))
    # Bareiss on the Fraction matrix (stays exact regardless)
    sign = 1
    prev = Fraction(1)
    for k in range(size - 1):
        if rows[k][k] == 0:
            for swap in range(k + 1, size):
                if rows[swap][k] != 0:
                    rows[k], rows[swap] = rows[swap], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[k][k] * rows[i][j] - rows[i][k] * rows[k][j]) / prev
            rows[i][k] = Fraction(0)
        prev = rows[k][k]
    return sign * rows[size - 1][size - 1]


def random_poly(rng: random.Random, max_deg: int, box: int = 9,
                max_den: int = 1) -> RationalPoly:
    """Integer coefficients in [-box, box], each divided by a random
    denominator up to max_den."""
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [rng.randrange(-box, box + 1) for _ in range(deg)]
    coeffs.append(rng.choice([c for c in range(-box, box + 1) if c]))
    if max_den > 1:
        coeffs = [Fraction(c, rng.randrange(1, max_den + 1)) for c in coeffs]
    return RationalPoly(coeffs)


def test_construction_normalizes():
    assert RationalPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert RationalPoly([]).deg() == -1
    assert RationalPoly([0, 0]).deg() == -1
    assert RationalPoly([5]).deg() == 0
    assert RationalPoly([Fraction(1, 2), 1]).deg() == 1


def test_arithmetic_identities():
    rng = random.Random(5)
    for i in range(60):
        max_den = 1 if i < 40 else 6
        a = random_poly(rng, 5, max_den=max_den)
        b = random_poly(rng, 5, max_den=max_den)
        c = random_poly(rng, 3, max_den=max_den)
        assert (a + b) * c == a * c + b * c
        x = Fraction(-5, 3)
        assert evaluate(a * b, x) == evaluate(a, x) * evaluate(b, x)
        assert a - a == RationalPoly([])
        q, r = a.divmod(b)
        assert b * q + r == a
        assert r.deg() < b.deg() or r.deg() == -1


def test_derivative_product_rule():
    rng = random.Random(9)
    for _ in range(20):
        a = random_poly(rng, 4)
        b = random_poly(rng, 4)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_compose_linear():
    f = RationalPoly([1, -2, 0, 3])  # 3x^3 - 2x + 1
    shift = RationalPoly([Fraction(1, 2), 1])  # x + 1/2
    composed = compose(f, shift)
    x = Fraction(3, 7)
    assert evaluate(composed, x) == evaluate(f, x + Fraction(1, 2))


def test_resultant_against_sylvester_oracle():
    rng = random.Random(13)
    for i in range(300):
        max_den = 1 if i < 200 else 6
        f = random_poly(rng, 6, box=5, max_den=max_den)
        g = random_poly(rng, 6, box=5, max_den=max_den)
        assert resultant(f, g) == sylvester_resultant(f, g)


def test_resultant_shared_root_vanishes():
    f = RationalPoly([-1, 1]) * RationalPoly([2, 1])  # (x-1)(x+2)
    g = RationalPoly([-1, 1]) * RationalPoly([5, 1])
    assert resultant(f, g) == 0


def test_discriminant_frozen_values():
    assert discriminant(RationalPoly([-1, -2, 1, 1])) == 49  # x^3+x^2-2x-1
    assert discriminant(RationalPoly([-1, 0, 1])) == 4  # x^2-1
    assert discriminant(RationalPoly([1, -3, 0, 1])) == 81  # x^3-3x+1, D=9 case
    with pytest.raises(ValueError):
        discriminant(RationalPoly([3]))


def test_discriminant_of_cubic_family_is_d_squared():
    for m in (-1, 1, 2, 5, 11, 143):
        D = m * m + 3 * m + 9
        f = RationalPoly([1, -(m + 3), m, 1])
        assert discriminant(f) == D * D


def test_min_poly_2cos_frozen():
    assert min_poly_2cos(7, negate=False).coeffs == (-1, -2, 1, 1)
    assert min_poly_2cos(7, negate=True).coeffs == (1, -2, -1, 1)
    assert min_poly_2cos(11, negate=False).coeffs == (1, 3, -3, -4, 1, 1)
    assert min_poly_2cos(23, negate=True).coeffs == (
        1, -6, -15, 35, 35, -56, -28, 36, 9, -10, -1, 1,
    )


def min_poly_2cos_by_recurrence(q: int, negate: bool) -> tuple:
    """Reference: P(y) = 1 + sum_{n=1..p} V_n(y) with V_0 = 2, V_1 = y,
    V_{n+1} = y V_n - V_{n-1} (so V_n(2cos t) = 2cos nt), whose roots are
    the p values 2cos(2*pi*k/q); O(p^2) coefficient additions."""
    p = (q - 1) // 2
    v_prev, v_cur = [2], [0, 1]
    total = [1, 1]  # 1 + V_1
    for _ in range(2, p + 1):
        v_next = [0] + v_cur
        for i, c in enumerate(v_prev):
            v_next[i] -= c
        v_prev, v_cur = v_cur, v_next
        total += [0] * (len(v_cur) - len(total))
        for i, c in enumerate(v_cur):
            total[i] += c
    if negate:
        total = [c if i % 2 == 0 else -c for i, c in enumerate(total)]
        if p % 2:
            total = [-c for c in total]
    return tuple(total)


def test_min_poly_2cos_matches_recurrence():
    """The closed-form coefficients equal the recurrence for every prime
    5 <= q < 400, in both sign conventions."""
    qs = [q for q in primes_upto(400) if q >= 5]
    assert len(qs) == 76
    for q in qs:
        for negate in (False, True):
            assert min_poly_2cos(q, negate).coeffs == \
                min_poly_2cos_by_recurrence(q, negate), (q, negate)


@pytest.mark.parametrize("q", [q for q in primes_upto(600) if q >= 5]
                         + [2039, 16139])
def test_min_poly_2cos_matches_binomial_formula(q):
    """Each coefficient comes from the one before by a ratio; the result
    equals the binomial formula (-1)^floor(j/2) C(p - ceil(j/2), floor(j/2))
    for the coefficient of y^(p-j), for every p < 300 and p = 1019, 8069."""
    p = (q - 1) // 2
    want = tuple((-1) ** (j // 2) * comb(p - (j + 1) // 2, j // 2)
                 for j in range(p, -1, -1))
    assert min_poly_2cos(q, False).coeffs == want


def test_min_poly_2cos_roots_reject_other_ell_and_q():
    for q, ell in ((11, 13), (11, 11), (11, 21), (11, 45), (9, 17), (3, 5)):
        with pytest.raises(ValueError):
            min_poly_2cos_roots(q, False, ell)


def test_min_poly_2cos_shape():
    for q in (5, 7, 11, 13, 23, 29, 47, 59):
        for negate in (False, True):
            f = min_poly_2cos(q, negate=negate)
            p = (q - 1) // 2
            assert f.deg() == p
            assert f.coeffs[-1] == 1
            assert all(c.denominator == 1 for c in f.coeffs)
            # disc is (up to sign) a power of q
            d = abs(int(discriminant(f)))
            while d % q == 0:
                d //= q
            assert d == 1


def test_min_poly_curve_convention_constant_term():
    # negate chosen so the constant term is +1 and (0, 1) lies on y^2 = f(x)
    for q in (7, 11, 23, 47, 59, 83):
        p = (q - 1) // 2
        negate = ((p - 1) // 2) % 2 == 1
        f = min_poly_2cos(q, negate=negate)
        assert f.coeffs[0] == 1


def test_min_poly_2cos_rejects_bad_q():
    for q in (4, 6, 9, 1, 2, 3):
        with pytest.raises(ValueError):
            min_poly_2cos(q, negate=False)


def test_psi_poly_has_the_conjugates_of_2cos_as_roots():
    """Psi_d is monic of degree phi(d)/2 (1 for d <= 2), and its roots are
    2cos(2 pi k/d) for k prime to d, 0 < k <= d/2: its coefficients match
    the float product of the x - 2cos(2 pi k/d), for d <= 120."""
    for d in range(1, 121):
        roots = [2 * cos(2 * pi * k / d) for k in range(1, d // 2 + 1)
                 if gcd(k, d) == 1] or [2.0]
        got = [float(c) for c in _psi(d)]
        assert got[-1] == 1 and len(got) == len(roots) + 1, d
        want = [1.0]
        for r in roots:
            want = [a - r * b for a, b in zip([0.0] + want, want + [0.0])]
        assert all(abs(a - b) < 1e-6 * (1 + abs(b))
                   for a, b in zip(got, want)), d


def test_psi_poly_at_primes_is_min_poly_2cos():
    for q in primes_upto(400)[2:]:
        assert RationalPoly(_psi(q)) == min_poly_2cos(q, negate=False), q


def int_product(factors):
    """Reference: the product of integer polynomials, by convolution."""
    out = [1]
    for g in factors:
        coeffs = g.int_coeffs()
        nxt = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(coeffs):
                nxt[i + j] += a * b
        out = nxt
    return out


def test_min_poly_2cos_is_irreducible_for_both_signs():
    """The proof `NumberField` relies on, checked by factoring: the minimal
    polynomials of 2cos(2 pi/q) and of its negative are irreducible."""
    for pair in sophie_germain_pairs(179):
        for negate in (False, True):
            f = min_poly_2cos(pair.q, negate)
            assert factor_over_Q(f) == [f], (pair.q, negate)


def test_min_poly_2cos_split_equals_factor_over_Q():
    for pair in sophie_germain_pairs(179):
        f = curve_min_poly(pair.q)
        assert min_poly_2cos_split(pair.q) \
            == factor_over_Q(f - RationalPoly([1])), pair.q


def test_min_poly_2cos_split_multiplies_to_f_minus_one():
    pairs = sophie_germain_pairs(1019)
    assert len(pairs) == 25
    for pair in pairs:
        f = curve_min_poly(pair.q).int_coeffs()
        assert int_product(min_poly_2cos_split(pair.q)) \
            == [f[0] - 1] + f[1:], pair.q


def test_min_poly_2cos_split_rejects_bad_q():
    for q in (1, 3, 5, 9, 13, 17, 29):  # not 2p + 1 with p, q prime, q >= 7
        with pytest.raises(ValueError):
            min_poly_2cos_split(q)


def test_format_poly_frozen():
    assert format_poly(RationalPoly([1, -2, -1, 1])) == "x^3 - x^2 - 2x + 1"
    assert (
        format_poly(RationalPoly([1, 3, -3, -4, 1, 1]))
        == "x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1"
    )
    assert format_poly(RationalPoly([])) == "0"
    assert format_poly(RationalPoly([-5])) == "-5"
    assert format_poly(RationalPoly([0, 1])) == "x"
    assert format_poly(RationalPoly([Fraction(1, 2), -1, 1])) == "x^2 - x + 1/2"
