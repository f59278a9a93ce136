"""Factorization over prime fields: distinct-degree + equal-degree splitting.

Frozen degree patterns below were recorded with an independent computer
algebra system before this module was written; the roundtrip and degree-sum
checks are self-contained.
"""

from __future__ import annotations

import random

import pytest
import sympy

from jacrank.arith import is_prime, primes_upto
from jacrank.bounds import curve_min_poly
from jacrank.modpoly import (
    PrimePoly,
    _equal_degree,
    add,
    divmod_monic,
    factor_count_mod_p,
    factor_mod_p,
    gcd,
    is_irreducible_mod_p,
    is_squarefree_mod_p,
    monic,
    mul,
    powmod,
    sub,
    trim,
    xgcd,
)
from jacrank.polys import RationalPoly
from test_polys import discriminant

PRIMES = (2, 3, 7, 101)
# p^k as in Hensel lifting and ell^k as in the Newton square-root lift
PRIME_POWERS = (2 ** 10, 3 ** 4, 7 ** 8, 101 ** 3, 10007 ** 2)

# ascending coefficients of the degree-11 cyclotomic curve polynomial minus 1
Q23_MINUS_ONE = (0, -6, -15, 35, 35, -56, -28, 36, 9, -10, -1, 1)

# mod-p factor degree patterns for Q23_MINUS_ONE, recorded independently
Q23_PATTERNS = {
    5: [1, 1, 1, 1, 2, 5],
    7: [1, 1, 1, 1, 2, 5],
    13: [1, 1, 1, 1, 1, 1, 5],
    17: [1, 1, 1, 1, 2, 5],
    23: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
}


def mul_mod(a: tuple, b: tuple, p: int) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_frozen_mod2_irreducibles():
    assert is_irreducible_mod_p(PrimePoly(2, (1, 0, 1, 1)))  # x^3+x^2+1
    assert is_irreducible_mod_p(PrimePoly(2, (1, 1, 0, 1)))  # x^3+x+1
    assert is_irreducible_mod_p(PrimePoly(2, (1, 1, 1, 0, 1, 1)))  # x^5+x^4+x^2+x+1
    assert not is_irreducible_mod_p(PrimePoly(2, (1, 0, 0, 1)))  # x^3+1


def test_every_f2_cubic_against_exhaustive_oracle():
    # oracle: a cubic over F2 is reducible iff it has a root or a known
    # irreducible quadratic factor; only x^2+x+1 is irreducible of degree 2
    for mask in range(8):
        coeffs = (mask & 1, (mask >> 1) & 1, (mask >> 2) & 1, 1)
        f = PrimePoly(2, coeffs)
        has_root = any(
            sum(c * pow(t, i, 2) for i, c in enumerate(coeffs)) % 2 == 0
            for t in (0, 1)
        )
        assert is_irreducible_mod_p(f) == (not has_root)  # deg 3: root <=> reducible


def test_x2_minus_1_mod_3():
    f = PrimePoly(3, (2, 0, 1))
    assert [g.coeffs for g in factor_mod_p(f)] == [(1, 1), (2, 1)]


def test_q23_degree_patterns():
    for p, expected in Q23_PATTERNS.items():
        f = PrimePoly(p, tuple(c % p for c in Q23_MINUS_ONE))
        degs = sorted(len(g.coeffs) - 1 for g in factor_mod_p(f))
        assert degs == expected, (p, degs)


def test_factor_roundtrip_random():
    rng = random.Random(31)
    primes = [2, 3, 5, 7, 13, 101]
    for _ in range(200):
        p = rng.choice(primes)
        deg = rng.randrange(1, 9)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        f = PrimePoly(p, tuple(coeffs))
        if not is_squarefree_mod_p(coeffs, p):
            with pytest.raises(ValueError):
                factor_mod_p(f)
            continue
        factors = factor_mod_p(f)
        prod = (f.coeffs[-1],)
        for g in factors:
            assert g.coeffs[-1] == 1
            assert is_irreducible_mod_p(g)
            prod = mul_mod(prod, g.coeffs, p)
        assert prod == f.coeffs
        # deterministic ordering: by degree then coefficient tuple
        keys = [(len(g.coeffs), g.coeffs) for g in factors]
        assert keys == sorted(keys)


def test_factor_count_matches_full_factorization():
    """The count read from distinct-degree blocks equals len(factor_mod_p)
    on seeded polynomials squarefree mod p, and on the Table-4 polynomials
    and f - 1 at the primes _good_prime tries; both raise ValueError on the
    seeded ones with a repeated factor."""
    rng = random.Random(37)
    cases = []
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 13, 101])
        f = random_poly(rng, rng.randrange(1, 10), p)
        if rng.random() < 0.3:  # a repeated factor
            g = random_poly(rng, rng.randrange(1, 3), p)
            f = list(mul_mod(tuple(f), mul_mod(tuple(g), tuple(g), p), p))
        cases.append(PrimePoly(p, f))
    cases += [PrimePoly(3, (2, 0, 0, 1)), PrimePoly(2, (1, 0, 1, 0, 1)),
              PrimePoly(5, (4,))]
    for q in (11, 23, 47, 59):
        f = curve_min_poly(q).int_coeffs()
        for g in (f, [f[0] - 1] + f[1:]):
            cases += [PrimePoly(p, g) for p in primes_upto(30)
                      if is_squarefree_mod_p(g, p)]
    repeated = 0
    for f in cases:
        if is_squarefree_mod_p(f.coeffs, f.modulus):
            assert factor_count_mod_p(f) == len(factor_mod_p(f)), f
            continue
        repeated += 1
        for fn in (factor_count_mod_p, factor_mod_p):
            with pytest.raises(ValueError):
                fn(f)
    assert repeated > 50
    with pytest.raises(ValueError):
        factor_count_mod_p(PrimePoly(7, ()))


def rabin_is_irreducible(f: PrimePoly) -> bool:
    """Reference: Rabin's test. f of degree n > 1 is irreducible exactly
    when x^(p^n) = x mod f and gcd(x^(p^(n/t)) - x, f) = 1 for every prime
    t dividing n."""
    p, n = f.modulus, len(f.coeffs) - 1
    if n <= 1:
        return n == 1
    work = monic(f.coeffs, p)
    x = [0, 1]
    # h(x)^p = h(x^p), so each Frobenius power composes with x^p: a sum of
    # the precomputed powers x^(i p) mod f
    xp = powmod(x, p, work, p)
    pows = [[1]]
    for _ in range(n - 1):
        pows.append(divmod_monic(mul(pows[-1], xp, p), work, p)[1])
    frob = [x]  # frob[k] = x^(p^k) mod f
    for _ in range(n):
        acc: list = []
        for c, xip in zip(frob[-1], pows):
            acc = add(acc, [c * v for v in xip], p)
        frob.append(acc)
    if sub(frob[n], x, p):
        return False
    return all(len(gcd(sub(frob[n // t], x, p), work, p)) == 1
               for t in range(2, n + 1) if n % t == 0 and is_prime(t))


def test_is_irreducible_matches_rabin():
    """The squarefree-and-one-factor test equals Rabin's on seeded
    polynomials, repeated factors included, and on the Table-4 polynomials
    at the primes ell = 3 mod 4 below 400 that the witness search tries."""
    rng = random.Random(41)
    cases = [PrimePoly(5, (4,)), PrimePoly(3, (2, 0, 0, 1))]
    for p in (2, 3, 5, 7, 11, 13, 101):
        for _ in range(120):
            f = random_poly(rng, rng.randrange(1, 9), p)
            if rng.random() < 0.25:  # a repeated factor
                g = random_poly(rng, rng.randrange(1, 3), p)
                f = list(mul_mod(tuple(f), mul_mod(tuple(g), tuple(g), p), p))
            cases.append(PrimePoly(p, f))
    for q in (11, 23, 47, 59):
        f = curve_min_poly(q).int_coeffs()
        cases += [PrimePoly(ell, f) for ell in primes_upto(400) if ell % 4 == 3]
    irreducible = 0
    for f in cases:
        want = rabin_is_irreducible(f)
        assert is_irreducible_mod_p(f) == want, f
        irreducible += want
    assert 0 < irreducible < len(cases)


@pytest.mark.parametrize("f", [
    PrimePoly(5, mul_mod(mul_mod((1, 1), (1, 1), 5), (2, 1), 5)),  # (x+1)^2 (x+2)
    PrimePoly(3, (2, 0, 0, 1)),  # x^3 + 2 = (x + 2)^3 mod 3
], ids=["repeated-factor", "pth-power"])
def test_repeated_factor_is_rejected(f):
    """Factoring takes only f squarefree mod p; the irreducibility test
    says False on anything else."""
    for fn in (factor_mod_p, factor_count_mod_p):
        with pytest.raises(ValueError, match="not squarefree"):
            fn(f)
    assert not is_irreducible_mod_p(f)


def test_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimePoly(6, (1, 1))


def test_big_prime_splitting():
    # x^2 + 1 mod p splits iff p = 1 mod 4
    for p in primes_upto(60):
        if p == 2:
            continue
        f = PrimePoly(p, (1, 0, 1))
        assert (len(factor_mod_p(f)) == 2) == (p % 4 == 1)


def random_poly(rng: random.Random, deg: int, m: int, monic: bool = False) -> list:
    """Degree exactly deg, coefficients reduced mod m."""
    lead = 1 if monic else rng.randrange(1, m)
    return [rng.randrange(m) for _ in range(deg)] + [lead]


def sympy_gcd_deg(a: list, b: list, p: int) -> int:
    x = sympy.Symbol("x")
    pa = sympy.Poly(list(reversed(a)), x, modulus=p)
    pb = sympy.Poly(list(reversed(b)), x, modulus=p)
    return pa.gcd(pb).degree()


def test_divmod_monic_identity():
    rng = random.Random(41)
    for m in PRIMES + PRIME_POWERS:
        for _ in range(60):
            a = random_poly(rng, rng.randrange(0, 12), m)
            b = random_poly(rng, rng.randrange(0, 6), m, monic=True)
            q, r = divmod_monic(a, b, m)
            assert len(r) < len(b), (m, a, b)
            assert add(mul(q, b, m), r, m) == a, (m, a, b)
            assert all(0 <= c < m for c in q + r)


def test_powmod_against_repeated_mul():
    rng = random.Random(43)
    for m in PRIMES + PRIME_POWERS:
        for _ in range(15):
            f = random_poly(rng, rng.randrange(1, 6), m, monic=True)
            base = random_poly(rng, rng.randrange(0, 8), m)
            expected = [1]
            for e in range(13):
                assert powmod(base, e, f, m) == divmod_monic(expected, f, m)[1], (m, e)
                expected = mul(expected, base, m)


def test_gcd_is_monic_common_divisor():
    rng = random.Random(47)
    for p in PRIMES:
        for _ in range(60):
            common = random_poly(rng, rng.randrange(0, 4), p)
            a = mul(common, random_poly(rng, rng.randrange(0, 5), p), p)
            b = mul(common, random_poly(rng, rng.randrange(0, 5), p), p)
            g = gcd(a, b, p)
            assert g and g[-1] == 1, (p, a, b)
            assert divmod_monic(a, g, p)[1] == []
            assert divmod_monic(b, g, p)[1] == []
            assert len(g) - 1 == sympy_gcd_deg(a, b, p), (p, a, b)
    assert gcd([], [], 5) == []
    assert gcd([3, 0, 2], [], 5) == [4, 0, 1]


def test_xgcd_bezout_identity():
    rng = random.Random(53)
    for p in PRIMES:
        done = 0
        while done < 40:
            a = random_poly(rng, rng.randrange(1, 7), p)
            b = random_poly(rng, rng.randrange(1, 7), p)
            if sympy_gcd_deg(a, b, p) != 0:
                continue
            s, t = xgcd(a, b, p)
            assert add(mul(s, a, p), mul(t, b, p), p) == [1], (p, a, b)
            assert len(s) < len(b) and len(t) < len(a)
            done += 1


def test_is_squarefree_mod_p_against_discriminant():
    rng = random.Random(59)
    x = sympy.Symbol("x")
    for p in PRIMES:
        for _ in range(60):
            deg = rng.randrange(1, 7)
            lead = rng.choice([1, -1, p + 1])  # a unit mod p
            f = lead * x ** deg + sum(rng.randrange(-9, 10) * x ** i for i in range(deg))
            if rng.random() < 0.3:
                f = sympy.expand(f * (x + rng.randrange(-3, 4)) ** 2)
            coeffs = [int(c) for c in reversed(sympy.Poly(f, x).all_coeffs())]
            disc = sympy.discriminant(f, x)
            assert is_squarefree_mod_p(coeffs, p) == (disc % p != 0), (p, coeffs)


def test_subtraction_reduces_both_operands():
    assert sub([12, 5], [1], 7) == [4, 5]
    assert sub([1, 2], [1, 2], 9) == []


# -- reference: roots mod p by one Frobenius power ----------------------------


def roots_mod_p(coeffs, p):
    """Sorted distinct roots of f mod a prime p. The roots are those of
    g = gcd(x^p - x, f), the product of f's distinct linear factors: one
    Frobenius power x^p mod f, one gcd, then an equal-degree split of g.
    The split-prime search of `numberfield` used this before its value
    sieve, which `test_numberfield` checks against it."""
    f = trim([c % p for c in coeffs])
    if not f:
        raise ValueError("cannot find the roots of the zero polynomial")
    if len(f) == 1:
        return []
    f = monic(f, p)
    g = gcd(sub(powmod([0, 1], p, f, p), [0, 1], p), f, p)
    if len(g) == 1:
        return []
    rng = random.Random(f"{p}:{tuple(f)}")
    return sorted(-lin[0] % p for lin in _equal_degree(g, 1, p, rng))


def root_test_polys():
    """29 monic integer polynomials with nonzero discriminant: the four
    Table-4 fields, five simplest cubics and 20 seeded random ones of degree
    1 to 8, some of them reducible."""
    polys = [curve_min_poly(q).int_coeffs() for q in (11, 23, 47, 59)]
    polys += [[1, -(m + 3), m, 1] for m in (1, 2, 5, 11, 143)]
    rng = random.Random(59)
    while len(polys) < 29:
        f = [rng.randrange(-40, 41) for _ in range(rng.randrange(1, 9))] + [1]
        if discriminant(RationalPoly(f)) != 0:
            polys.append(f)
    return polys


def _roots_by_factoring(coeffs, ell):
    return sorted(-g.coeffs[0] % ell
                  for g in factor_mod_p(PrimePoly(ell, coeffs))
                  if len(g.coeffs) == 2)


def test_roots_mod_p_matches_linear_factors():
    """The reference roots_mod_p equals the degree-one factors of
    factor_mod_p at every prime ell < 128 not dividing disc(f), on all 29
    test polynomials. The sieve is checked against roots_mod_p up to 800 in
    test_numberfield; full factoring that far costs ten seconds."""
    pairs = 0
    for f in root_test_polys():
        disc = discriminant(RationalPoly(f))
        for ell in primes_upto(128):
            if disc % ell == 0:
                continue
            assert roots_mod_p(f, ell) == _roots_by_factoring(f, ell), (f, ell)
            pairs += 1
    assert pairs > 800


def test_roots_mod_p_edge_cases():
    assert roots_mod_p([1, 0, 1], 2) == [1]          # (x + 1)^2 mod 2
    assert roots_mod_p([0, 0, 0, 1], 7) == [0]       # x^3
    assert roots_mod_p([6, 11, 6, 1], 3) == [0, 1, 2]  # (x+1)(x+2)(x+3)
    assert roots_mod_p([3, 5], 5) == []              # a nonzero constant mod 5
    assert roots_mod_p([2, 3], 5) == [1]             # 3x + 2, not monic
    with pytest.raises(ValueError):
        roots_mod_p([7, 14], 7)
