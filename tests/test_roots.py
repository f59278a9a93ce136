"""Tests for Sturm-sequence real root isolation.

Oracle: sympy.Poly.real_roots (exact algebraic numbers), evaluated to high
precision, plus hand-built products of distinct linear factors whose roots
are known exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from jacrank.arith import is_squarefree_integer
from jacrank.bounds import curve_min_poly, lower_bound_from_points, \
    washington_curve_poly
from jacrank.numberfield import NumberField
from jacrank.polys import RationalPoly, min_poly_2cos, monic_gcd
from jacrank.roots import isolate_real_roots, real_root_count, sign_at

X = sympy.symbols("x")


def to_sympy(f: RationalPoly):
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * X**i
                          for i, c in enumerate(f.coeffs)), X)


def sympy_real_roots(f: RationalPoly):
    return [sympy.nsimplify(r) for r in to_sympy(f).real_roots()]


def test_sqrt_two():
    f = RationalPoly([-2, 0, 1])
    ivs = isolate_real_roots(f)
    assert len(ivs) == 2
    ivs = ivs.refined(Fraction(1, 10**8))
    lo, hi = ivs[0].lo, ivs[0].hi
    assert lo <= Fraction(-141421357, 10**8) <= hi or lo <= -Fraction(2)**Fraction(1, 2) <= hi
    assert float(ivs[0].midpoint()) == pytest.approx(-1.41421356, abs=1e-6)
    assert float(ivs[1].midpoint()) == pytest.approx(1.41421356, abs=1e-6)


def test_no_real_roots():
    assert len(isolate_real_roots(RationalPoly([1, 0, 1]))) == 0
    assert real_root_count(RationalPoly([1, 0, 1])) == 0


def test_washington_cubic_root_ordering_m143():
    # roots lie in -m-2 < a < -m-1 < 0 < b < 1 < c < 2
    m = 143
    f = RationalPoly([1, -(m + 3), m, 1])
    ivs = isolate_real_roots(f).refined(Fraction(1, 1000))
    assert len(ivs) == 3
    a, b, c = ivs
    assert Fraction(-m - 2) < a.lo and a.hi < Fraction(-m - 1)
    assert Fraction(0) < b.lo and b.hi < Fraction(1)
    assert Fraction(1) < c.lo and c.hi < Fraction(2)


def test_quintic_cosine_field_roots():
    # minimal polynomial of -(zeta_11 + zeta_11^-1)
    f = min_poly_2cos(11, True)
    ivs = isolate_real_roots(f).refined(Fraction(1, 10**6))
    assert len(ivs) == 5
    approx = [-1.68, -0.83, 0.28, 1.31, 1.92]
    for iv, want in zip(ivs, approx):
        assert float(iv.midpoint()) == pytest.approx(want, abs=0.005)


def test_exact_rational_roots_isolated():
    # (x-1)(x+2)(x-1/2), distinct rational roots
    f = RationalPoly([1]) * RationalPoly([-1, 1]) * RationalPoly([2, 1]) \
        * RationalPoly([Fraction(-1, 2), 1])
    ivs = isolate_real_roots(f).refined(Fraction(1, 10**4))
    mids = [float(iv.midpoint()) for iv in ivs]
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
        ivs = isolate_real_roots(f).refined(Fraction(1, 100))
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
        ivs = isolate_real_roots(f).refined(Fraction(1, 10**9))
        assert len(ivs) == len(want)
        for iv, w in zip(ivs, want):
            assert float(iv.midpoint()) == pytest.approx(w, abs=1e-7)


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


def test_refinement_width():
    f = RationalPoly([-2, 0, 1])
    ivs = isolate_real_roots(f).refined(Fraction(1, 2**40))
    for iv in ivs:
        assert iv.hi - iv.lo <= Fraction(1, 2**40)


# -- reference: the Fraction-based per-root sign_at this module replaced -----


def _ref_sturm_chain(f):
    chain = [f, f.derivative()]
    while chain[-1].deg() > 0:
        rem = chain[-2] % chain[-1]
        if rem.deg() < 0:
            break
        chain.append(-rem)
    return chain


def _ref_sign(x):
    return (x > 0) - (x < 0)


def _ref_variations_at(chain, x):
    signs = [s for s in (_ref_sign(g.eval(x)) for g in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_count_in(chain, a, b):
    return _ref_variations_at(chain, a) - _ref_variations_at(chain, b)


def ref_sign_at(g, f, iv):
    """Reference: sign of g at the unique root of f inside iv, rebuilding
    every Sturm chain over Q on each call."""
    if g.deg() < 0:
        return 0
    if iv.lo == iv.hi:
        return _ref_sign(g.eval(iv.lo))
    fchain = _ref_sturm_chain(f)
    d = monic_gcd(f, g)
    if d.deg() > 0:
        dchain = _ref_sturm_chain(d)
        if _ref_variations_at(dchain, iv.lo) - _ref_variations_at(dchain, iv.hi) > 0:
            return 0
    gchain = _ref_sturm_chain(g)
    if gchain[-1].deg() > 0:
        gsf = g.divmod(gchain[-1])[0]
        gchain = _ref_sturm_chain(gsf)
    lo, hi = iv.lo, iv.hi
    while True:
        if _ref_count_in(gchain, lo, hi) == 0:
            s = _ref_sign(g.eval((lo + hi) / 2))
            if s != 0:
                return s
        m = (lo + hi) / 2
        v = f.eval(m)
        if v == 0:
            return _ref_sign(g.eval(m))
        if _ref_count_in(fchain, lo, m) == 1:
            hi = m
        else:
            lo = m


def _assert_matches_reference(g, ivs):
    want = tuple(ref_sign_at(g, ivs.poly, iv) for iv in ivs)
    assert sign_at(g, ivs) == want, (g, ivs.poly)


def test_sign_at_matches_reference_on_washington_units():
    fields = 0
    for m in range(1, 301):
        if not is_squarefree_integer(m * m + 3 * m + 9):
            continue
        field = NumberField(washington_curve_poly(m))
        th = field.theta()
        for unit in (th, (field.one() - th).inverse(), field.one() - th.inverse()):
            _assert_matches_reference(RationalPoly(unit.coords), field.root_intervals)
        fields += 1
    assert fields == 186


def test_sign_at_matches_reference_on_class_representatives():
    for q in (11, 23):
        _, classes = lower_bound_from_points(curve_min_poly(q), Fraction(1))
        ivs = classes.field.root_intervals
        for a in classes.representatives:
            _assert_matches_reference(RationalPoly(a.coords), ivs)


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
        _assert_matches_reference(g, ivs)
        _assert_matches_reference(g, ivs.refined(Fraction(1, 2**10)))
        _assert_matches_reference(g, isolate_real_roots(RationalPoly([-1, 3])))
    assert sign_at(RationalPoly([]), ivs) == (0, 0, 0, 0)
