"""Exact polynomials over Q: arithmetic, resultants, cyclotomic minimal polys.

The resultant oracle is a fraction-free Bareiss determinant of the Sylvester
matrix -- brute force, independent of the subresultant sequence used by the
implementation.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jacrank.polys import (
    RationalPoly,
    format_poly,
    min_poly_2cos,
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
    return sign * resultant(f, f.derivative()) / f.lc()


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


def random_poly(rng: random.Random, max_deg: int, box: int = 9) -> RationalPoly:
    deg = rng.randrange(0, max_deg + 1)
    coeffs = [rng.randrange(-box, box + 1) for _ in range(deg)]
    coeffs.append(rng.choice([c for c in range(-box, box + 1) if c]))
    return RationalPoly(coeffs)


def test_construction_normalizes():
    assert RationalPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert RationalPoly([]).deg() == -1
    assert RationalPoly([0, 0]).deg() == -1
    assert RationalPoly([5]).deg() == 0
    assert RationalPoly([Fraction(1, 2), 1]).deg() == 1


def test_arithmetic_identities():
    rng = random.Random(5)
    for _ in range(40):
        a = random_poly(rng, 5)
        b = random_poly(rng, 5)
        c = random_poly(rng, 3)
        assert (a + b) * c == a * c + b * c
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
    for _ in range(200):
        f = random_poly(rng, 6, box=5)
        g = random_poly(rng, 6, box=5)
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
