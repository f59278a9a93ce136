"""Tests for Sturm-sequence real root isolation and signs at real roots.

Oracles: sympy.Poly.real_roots (exact algebraic numbers), evaluated to high
precision, plus hand-built products of distinct linear factors whose roots
are known exactly; for signs, `chain_sign_at`, which halves each root
interval until g has no root in it, where `sign_at` reads a Cauchy index.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from jacrank.bounds import curve_min_poly, lower_bound_from_points
from jacrank.numberfield import NumberField
from jacrank.polys import RationalPoly, min_poly_2cos
from jacrank.roots import RootInterval, RootIntervals, _ceil_root, _count_in, _int_poly, \
    _require_squarefree, _root_bound, _sign_at_point, _sturm_chain, \
    isolate_real_roots, sign_at
from test_arith import is_squarefree_integer
from test_bounds import washington_units

X = sympy.symbols("x")


def euclid_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Reference: the monic gcd over Q by Euclid's algorithm; zero when a
    and b are zero."""
    while b.deg() >= 0:
        a, b = b, a % b
    if a.deg() < 0:
        return a
    return RationalPoly([c / a.coeffs[-1] for c in a.coeffs])


def _variations_inf(chain, positive: bool) -> int:
    signs = []
    for g in chain:
        if not g:
            continue
        s = 1 if g[-1] > 0 else -1
        if not positive and len(g) % 2 == 0:
            s = -s
        signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_root_count(f: RationalPoly) -> int:
    """Number of distinct real roots, from Sturm variations at minus and plus
    infinity."""
    if f.deg() < 0:
        raise ValueError("zero polynomial")
    if f.deg() == 0:
        return 0
    chain = _sturm_chain(_int_poly(f))
    _require_squarefree(chain)
    return _variations_inf(chain, positive=False) - _variations_inf(chain, positive=True)


def to_sympy(f: RationalPoly):
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * X**i
                          for i, c in enumerate(f.coeffs)), X)


def sympy_real_roots(f: RationalPoly):
    return [sympy.nsimplify(r) for r in to_sympy(f).real_roots()]


# -- oracle: root intervals halved by Sturm-chain counts -------------------


def _chain_halve(fchain, lo, hi):
    """One halving of (lo, hi), which isolates a root of fchain[0]: the
    half holding the root by counting chain variations, or the midpoint
    itself when it is the root."""
    m = (lo + hi) / 2
    if _sign_at_point(fchain[0], m) == 0:
        return m, m
    return (lo, m) if _count_in(fchain, lo, m) == 1 else (m, hi)


def chain_refined(ivs, width):
    """ivs with each interval halved until it is at most `width` wide."""
    out = []
    for iv in ivs:
        lo, hi = iv.lo, iv.hi
        while hi - lo > width:
            lo, hi = _chain_halve(ivs.chain, lo, hi)
        out.append(RootInterval(lo, hi))
    return RootIntervals(ivs.poly, tuple(out), ivs.chain)


def midpoint(iv):
    return (iv.lo + iv.hi) / 2


def chain_sign_at(g, ivs):
    """Signs of g at the roots of ivs.poly by bisection: zero where the
    Sturm chain of gcd(f, g) counts a root in the interval, else the
    interval is halved until the chain of g's squarefree part counts none,
    and g is read at its midpoint."""
    if g.deg() < 0:
        return (0,) * len(ivs)
    gint = _int_poly(g)
    d = euclid_gcd(ivs.poly, g)
    dchain = _sturm_chain(_int_poly(d)) if d.deg() > 0 else None
    gchain = _sturm_chain(gint)
    if len(gchain[-1]) > 1:
        gchain = _sturm_chain(_int_poly(g.divmod(RationalPoly(gchain[-1]))[0]))
    out = []
    for iv in ivs:
        lo, hi = iv.lo, iv.hi
        if lo == hi:
            out.append(_sign_at_point(gint, lo))
            continue
        if dchain is not None and _count_in(dchain, lo, hi) > 0:
            out.append(0)
            continue
        while True:
            if _count_in(gchain, lo, hi) == 0:
                s = _sign_at_point(gint, (lo + hi) / 2)
                if s != 0:
                    break
            lo, hi = _chain_halve(ivs.chain, lo, hi)
            if lo == hi:
                s = _sign_at_point(gint, lo)
                break
        out.append(s)
    return tuple(out)


def test_sqrt_two():
    f = RationalPoly([-2, 0, 1])
    ivs = isolate_real_roots(f)
    assert len(ivs) == 2
    ivs = chain_refined(ivs, Fraction(1, 10**8))
    neg, pos = ivs
    lo, hi = neg.lo, neg.hi
    assert lo <= Fraction(-141421357, 10**8) <= hi or lo <= -Fraction(2)**Fraction(1, 2) <= hi
    assert float(midpoint(neg)) == pytest.approx(-1.41421356, abs=1e-6)
    assert float(midpoint(pos)) == pytest.approx(1.41421356, abs=1e-6)


def test_no_real_roots():
    assert len(isolate_real_roots(RationalPoly([1, 0, 1]))) == 0
    assert real_root_count(RationalPoly([1, 0, 1])) == 0


def test_washington_cubic_root_ordering_m143():
    # roots lie in -m-2 < a < -m-1 < 0 < b < 1 < c < 2
    m = 143
    f = RationalPoly([1, -(m + 3), m, 1])
    ivs = chain_refined(isolate_real_roots(f), Fraction(1, 1000))
    assert len(ivs) == 3
    a, b, c = ivs
    assert Fraction(-m - 2) < a.lo and a.hi < Fraction(-m - 1)
    assert Fraction(0) < b.lo and b.hi < Fraction(1)
    assert Fraction(1) < c.lo and c.hi < Fraction(2)


def test_quintic_cosine_field_roots():
    # minimal polynomial of -(zeta_11 + zeta_11^-1)
    f = min_poly_2cos(11, True)
    ivs = chain_refined(isolate_real_roots(f), Fraction(1, 10**6))
    assert len(ivs) == 5
    approx = [-1.68, -0.83, 0.28, 1.31, 1.92]
    for iv, want in zip(ivs, approx):
        assert float(midpoint(iv)) == pytest.approx(want, abs=0.005)


def test_exact_rational_roots_isolated():
    # (x-1)(x+2)(x-1/2), distinct rational roots
    f = RationalPoly([1]) * RationalPoly([-1, 1]) * RationalPoly([2, 1]) \
        * RationalPoly([Fraction(-1, 2), 1])
    ivs = chain_refined(isolate_real_roots(f), Fraction(1, 10**4))
    mids = [float(midpoint(iv)) for iv in ivs]
    assert mids == pytest.approx([-2.0, 0.5, 1.0], abs=1e-3)


def test_non_squarefree_rejected():
    f = RationalPoly([-1, 1]) * RationalPoly([-1, 1])
    with pytest.raises(ValueError):
        isolate_real_roots(f)


def test_random_linear_products():
    rng = random.Random(8831)
    for _ in range(50):
        roots = sorted(rng.sample(range(-30, 31), rng.randrange(2, 7)))
        f = RationalPoly([1])
        for r in roots:
            f = f * RationalPoly([-r, 1])
        ivs = chain_refined(isolate_real_roots(f), Fraction(1, 100))
        assert len(ivs) == len(roots)
        for iv, r in zip(ivs, roots):
            assert iv.lo <= r <= iv.hi


def test_random_against_sympy_count_and_values():
    rng = random.Random(8837)
    for _ in range(40):
        deg = rng.randrange(2, 7)
        coeffs = [rng.randrange(-8, 9) for _ in range(deg)] + [rng.choice([1, -1, 2])]
        f = RationalPoly(coeffs)
        if f.deg() < 2:
            continue
        fs = to_sympy(f)
        if sympy.gcd(fs, fs.diff(X)).degree() > 0:
            continue
        want = [complex(r.evalf(30)).real for r in fs.real_roots()]
        assert real_root_count(f) == len(want)
        ivs = chain_refined(isolate_real_roots(f), Fraction(1, 10**9))
        assert len(ivs) == len(want)
        for iv, w in zip(ivs, want):
            assert float(midpoint(iv)) == pytest.approx(w, abs=1e-7)


def isolation_test_polys():
    """The squarefree polynomials of degree >= 2 the tests above isolate,
    non-monic ones included, and the Table-4 fields."""
    polys = [RationalPoly([-2, 0, 1]), RationalPoly([1, 0, 1]),
             RationalPoly([1, -146, 143, 1]), min_poly_2cos(11, True),
             RationalPoly([1]) * RationalPoly([-1, 1]) * RationalPoly([2, 1])
             * RationalPoly([Fraction(-1, 2), 1])]
    rng = random.Random(8831)
    for _ in range(50):
        f = RationalPoly([1])
        for r in rng.sample(range(-30, 31), rng.randrange(2, 7)):
            f = f * RationalPoly([-r, 1])
        polys.append(f)
    rng = random.Random(8837)
    for _ in range(40):
        deg = rng.randrange(2, 7)
        f = RationalPoly([rng.randrange(-8, 9) for _ in range(deg)]
                         + [rng.choice([1, -1, 2])])
        if f.deg() >= 2 and euclid_gcd(f, f.derivative()).deg() == 0:
            polys.append(f)
    polys += [curve_min_poly(q) for q in (11, 23, 47, 59)]
    return polys


def test_ceil_root_is_least_upper_integer_root():
    for i in range(1, 7):
        for c in range(0, 3000):
            r = _ceil_root(c, i)
            assert r ** i >= c and (r == 0 or (r - 1) ** i < c), (c, i)
    for c in (10**40, 10**40 + 1, 2**200 - 1, 2**200, 3**150 + 7):
        for i in (2, 3, 5, 17, 29):
            r = _ceil_root(c, i)
            assert r ** i >= c > (r - 1) ** i, (c, i)


def test_fujiwara_interval_holds_every_real_root():
    """Isolation starts from [-B, B] with Fujiwara's B; it holds as many
    roots as the Cauchy interval [-C, C], C = ceil(1 + max |c_i / c_n|),
    that isolation started from before, and every real root."""
    polys = isolation_test_polys()
    assert any(not f.is_monic() for f in polys)
    for f in polys:
        chain = _sturm_chain(_int_poly(f))
        b = Fraction(_root_bound(chain[0]))
        c = Fraction((1 + max(abs(x) for x in f.coeffs[:-1])
                      / abs(f.coeffs[-1])).__ceil__())
        assert _sign_at_point(chain[0], -b) != 0
        assert _count_in(chain, -b, b) == _count_in(chain, -c, c) \
            == real_root_count(f), f
    # on the Table-4 fields C is 5, 57, 12377 and 203491
    assert [_root_bound(curve_min_poly(q).int_coeffs())
            for q in (11, 23, 47, 59)] == [4, 8, 10, 12]


def test_sign_at_root():
    # signs of g = x^2 - 3 at the five roots of the 2cos field polynomial:
    # negative exactly when the root lies in (-sqrt3, sqrt3)
    f = min_poly_2cos(11, True)
    g = RationalPoly([-3, 0, 1])
    ivs = isolate_real_roots(f)
    signs = list(sign_at(g, ivs))
    assert signs == [-1, -1, -1, -1, 1]
    h = RationalPoly([0, 1])  # sign of the root itself
    assert list(sign_at(h, ivs)) == [-1, -1, 1, 1, 1]


def _assert_matches_oracle(g, ivs):
    assert sign_at(g, ivs) == chain_sign_at(g, ivs), (g, ivs.poly)


def test_sign_at_matches_reference_on_washington_units():
    fields = 0
    for m in range(1, 301):
        if not is_squarefree_integer(m * m + 3 * m + 9):
            continue
        field = NumberField(RationalPoly([1, -(m + 3), m, 1]))
        ivs = isolate_real_roots(field.poly)
        for unit in washington_units(m, field):
            _assert_matches_oracle(RationalPoly(unit.coords), ivs)
        fields += 1
    assert fields == 186


def test_sign_at_matches_reference_on_class_representatives():
    for q in (11, 23):
        _, classes = lower_bound_from_points(curve_min_poly(q), Fraction(1))
        ivs = isolate_real_roots(classes.field.poly)
        for a in classes.representatives:
            _assert_matches_oracle(RationalPoly(a.coords), ivs)


def test_sign_at_matches_reference_on_shared_and_repeated_roots():
    # g sharing roots with f, g with a repeated root, g constant, g zero;
    # a linear f has the exact interval [1/3, 1/3]
    f = RationalPoly([1]) * RationalPoly([-1, 1]) * RationalPoly([2, 1]) \
        * RationalPoly([-2, 0, 1])
    ivs = isolate_real_roots(f)
    gs = [RationalPoly([-1, 1]) * RationalPoly([3, 1]),
          RationalPoly([-2, 0, 1]),
          RationalPoly([Fraction(1, 3), 1]) * RationalPoly([Fraction(1, 3), 1]),
          RationalPoly([-5]),
          RationalPoly([])]
    for g in gs:
        _assert_matches_oracle(g, ivs)
        _assert_matches_oracle(g, chain_refined(ivs, Fraction(1, 2**10)))
        _assert_matches_oracle(g, isolate_real_roots(RationalPoly([-1, 3])))
    assert sign_at(RationalPoly([]), ivs) == (0, 0, 0, 0)


def test_sign_at_pseudo_remainder_sign_with_negative_leading_coefficient():
    """sign_at takes g mod f as the pseudo-remainder lc(f)^e (g mod f),
    e = deg g - deg f + 1, whose sign flips when lc(f) < 0 and e is odd.
    Both parities of e, with and without g vanishing at the root 1/2."""
    f = RationalPoly([-3, 6, 1, -2])  # -(2x - 1)(x^2 - 3)
    ivs = isolate_real_roots(f)
    assert len(ivs) == 3 and ivs.chain[0][-1] < 0
    rng = random.Random(8849)
    for extra in range(4):  # deg g - deg f
        for _ in range(10):
            g = RationalPoly([rng.randrange(-9, 10) for _ in range(f.deg() + extra)]
                             + [rng.choice([1, -1, 3])])
            _assert_matches_oracle(g, ivs)
            h = RationalPoly([rng.randrange(-9, 10) for _ in range(f.deg() + extra - 1)]
                             + [rng.choice([1, -1, 3])])
            g = RationalPoly([-1, 2]) * h
            _assert_matches_oracle(g, ivs)
            assert sign_at(g, ivs)[1] == 0


def test_sign_at_matches_chain_oracle_on_table4_fields():
    """sign_at tuples equal the bisection oracle's on the four Table-4
    fields: their class representatives, theta and theta^2 - 2."""
    for q in (11, 23, 47, 59):
        _, classes = lower_bound_from_points(curve_min_poly(q), Fraction(1))
        field = classes.field
        th, th2 = field.element([0, 1]), field.element([-2, 0, 1])
        ivs = isolate_real_roots(field.poly)
        for a in list(classes.representatives) + [th, th2]:
            _assert_matches_oracle(RationalPoly(a.coords), ivs)
