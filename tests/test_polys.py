"""Exact polynomials over Q: arithmetic, resultants, cyclotomic minimal polys.

The resultant oracle is a fraction-free Bareiss determinant of the Sylvester
matrix -- brute force, independent of the subresultant sequence used by the
implementation. The pseudo-division oracle is sympy's `pdiv`.
"""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from bisect import bisect_left
from math import comb, cos, gcd, lcm, pi

import pytest
import sympy

from jacrank.arith import primes_upto
from jacrank.bounds import curve_min_poly
from jacrank.cyclosig import sophie_germain_pairs
from jacrank.factor import factor_over_Q
from jacrank.polys import (
    RationalPoly,
    clear_denominators,
    format_poly,
    min_poly_2cos,
    pdivmod,
    psi,
    rational,
    resultant,
    split_indices,
    split_sign_vector,
)

X = sympy.symbols("x")


def to_sympy(f: RationalPoly):
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * X**i
                          for i, c in enumerate(f.coeffs)), X)


def from_sympy(f) -> RationalPoly:
    return RationalPoly([Fraction(int(c.p), int(c.q))
                         for c in reversed(f.all_coeffs())])


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
    return Fraction(sign * resultant(f, f.derivative()), f.coeffs[-1])


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


def canonical(x) -> bool:
    """x is an int when it is integral and a Fraction when it is not."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def test_rational_is_an_int_exactly_when_integral():
    for n, d, want in [(6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, 5, 0),
                       (1, 2, Fraction(1, 2)), (-4, 6, Fraction(-2, 3)),
                       (Fraction(3, 2), Fraction(1, 2), 3),
                       (Fraction(1, 2), 3, Fraction(1, 6))]:
        assert rational(n, d) == want and canonical(rational(n, d)), (n, d)
    for value, want in [(7, 7), (Fraction(4, 2), 2), ("3/1", 3), ("2/6",
                        Fraction(1, 3)), (1.5, Fraction(3, 2)), (True, 1)]:
        assert rational(value) == want and canonical(rational(value)), value
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def test_coefficients_are_canonical():
    """Construction, products, the content and the resultant give an int
    for an integral value and a Fraction for any other, whether the input
    was given as ints or as Fractions."""
    rng = random.Random(31)
    for i in range(60):
        max_den = 1 if i < 30 else 4
        a = random_poly(rng, 5, max_den=max_den)
        b = random_poly(rng, 5, max_den=max_den)
        content, prim = a.primitive()
        values = [*a.coeffs, *(a * b).coeffs, content, *prim.coeffs,
                  resultant(a, b)]
        assert all(map(canonical, values)), (a, b)
        if max_den == 1:
            assert all(type(c) is int for c in values)
        assert all(type(c) is int for c in prim.coeffs)
        assert RationalPoly(a.coeffs) == a
    assert RationalPoly([]).primitive()[0] == 0
    assert type(RationalPoly([]).primitive()[0]) is int


def test_int_and_fraction_inputs_build_one_value():
    """Equal ints and Fractions build polynomials that compare and hash
    equal and have the same int coefficients; copy and pickle rebuild
    them through the constructor in the same form."""
    ints = RationalPoly([3, 0, -2, 1])
    fracs = RationalPoly([Fraction(3), Fraction(0), Fraction(-4, 2), 1])
    half = RationalPoly([Fraction(1, 2), 1])
    assert ints == fracs and hash(ints) == hash(fracs)
    assert ints.coeffs == fracs.coeffs
    assert all(type(c) is int for c in fracs.coeffs)
    assert [type(c) for c in half.coeffs] == [Fraction, int]
    for f in (ints, fracs, half):
        for g in (copy.copy(f), copy.deepcopy(f),
                  pickle.loads(pickle.dumps(f))):
            assert g == f and hash(g) == hash(f)
            assert [type(c) for c in g.coeffs] == [type(c) for c in f.coeffs]


def test_clear_denominators_int_shortcut_equals_general_path():
    """All-int coefficients come back as (1, a copy) at once; that equals
    the general result, the least common denominator with the scaled
    numerators, which int, Fraction and mixed inputs are checked against."""
    rng = random.Random(11)
    inputs = [[], [0], [3, -7, 0, 12], [Fraction(3), Fraction(-4, 2)],
              [Fraction(1, 2), 3, Fraction(-5, 6)], [4, Fraction(7, 4), 0]]
    inputs += [list(random_poly(rng, 6, max_den=den).coeffs)
               for den in (1, 1, 5, 9)]
    for coeffs in inputs:
        d = lcm(*(Fraction(c).denominator for c in coeffs))
        got = clear_denominators(coeffs)
        assert got == (d, [int(c * d) for c in coeffs]), coeffs
        assert all(type(v) is int for v in got[1])
    ints = [4, -1, 9]
    assert clear_denominators(ints)[1] is not ints


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


def test_pdivmod_against_sympy():
    # lc(b)^(deg a - deg b + 1) a = q b + r over Z, deg r < deg b, with the
    # quotient and remainder sympy's pdiv finds
    rng = random.Random(5)
    for i in range(60):
        a, b = random_poly(rng, 7).int_coeffs(), random_poly(rng, 4).int_coeffs()
        if i % 3 == 0:
            b[-1] = 1  # a monic divisor: plain division
        if len(a) < len(b):
            a, b = b, a
        q, r = pdivmod(a, b)
        scaled = [c * b[-1] ** (len(a) - len(b) + 1) for c in a]
        assert RationalPoly(q) * RationalPoly(b) + RationalPoly(r) \
            == RationalPoly(scaled)
        assert len(r) < len(b)
        sq, sr = sympy.pdiv(to_sympy(RationalPoly(a)), to_sympy(RationalPoly(b)))
        assert (RationalPoly(q), RationalPoly(r)) == (from_sympy(sq), from_sympy(sr))


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
        got = [float(c) for c in psi(d).coeffs]
        assert got[-1] == 1 and len(got) == len(roots) + 1, d
        want = [1.0]
        for r in roots:
            want = [a - r * b for a, b in zip([0.0] + want, want + [0.0])]
        assert all(abs(a - b) < 1e-6 * (1 + abs(b))
                   for a, b in zip(got, want)), d


def test_psi_poly_at_primes_is_min_poly_2cos():
    for q in primes_upto(400)[2:]:
        assert psi(q) == min_poly_2cos(q, negate=False), q


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
    """The proof the curve fields of the tests rely on, checked by
    factoring: the minimal polynomials of 2cos(2 pi/q) and of its negative
    are irreducible."""
    for pair in sophie_germain_pairs(179):
        for negate in (False, True):
            f = min_poly_2cos(pair.q, negate)
            assert factor_over_Q(f) == [f], (pair.q, negate)


def min_poly_2cos_split(q):
    """Reference: the closed-form factors of f - 1, the Psi_d over
    `split_indices(q)`, sorted as `factor_over_Q` sorts them."""
    return sorted(map(psi, split_indices(q)),
                  key=lambda g: (g.deg(), g.coeffs))


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


def sign_vector_by_ordering(q, d):
    """Reference for `split_sign_vector`: each root theta_k of the curve
    polynomial placed among the roots r_b of Psi_d by exact comparisons.
    All are 2cos(2 pi x) with x in [0, 1/2], where cos falls, and x is kept
    as the integer 2qd x: 2qb for r_b = 2cos(2 pi b/d), 2kd for
    theta_k = 2cos(2 pi k/q) when p = 1 mod 4, and (q - 2k) d for
    theta_k = -2cos(2 pi k/q) = 2cos(2 pi (q - 2k)/(2q)) otherwise. Bit
    k - 1 is set when an odd number of r_b lie below theta_k."""
    p = (q - 1) // 2
    roots = sorted(2 * q * b for b in range(d // 2 + 1) if gcd(b, d) == 1)
    vector = 0
    for k in range(1, p + 1):
        x = 2 * k * d if p % 4 == 1 else (q - 2 * k) * d
        at = bisect_left(roots, x)
        assert at == len(roots) or roots[at] != x, (q, d, k)  # no tie
        if (len(roots) - at) % 2:
            vector |= 1 << (k - 1)
    return vector


def test_split_sign_vectors_equal_exact_comparisons():
    """The prefix masks of `split_sign_vector` equal the root-by-root
    placement for every index of every Sophie Germain q <= 2099."""
    pairs = sophie_germain_pairs(2099)
    assert len(pairs) == 40
    for pair in pairs:
        for d in split_indices(pair.q):
            assert split_sign_vector(pair.q, d) \
                == sign_vector_by_ordering(pair.q, d), (pair.q, d)


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
