"""Exact irreducible factorization over Q of squarefree polynomials.

A repeated factor raises ValueError, as the zero polynomial does. Pipeline:
the primitive part is monicized via G(y) = lc^(n-1) f(y/lc) (the identity
when lc = 1), so every lifted object is monic; reduction at a good prime
(smallest of five candidates, each with G squarefree mod it, giving the
fewest modular factors, counted from the distinct-degree blocks; only the
chosen prime is factored fully); quadratic Hensel lifting to a modulus m
past twice the Mignotte bound, first of one half of the factors against
the other, then of each half recursively; then subset recombination in
increasing cardinality. A candidate is read in balanced form mod m, which
is exact because m exceeds twice the bound on any factor's coefficients;
it is monic, so one exact division over Z both tests it (zero remainder)
and gives the cofactor. Squarefreeness is decided at the primes tried: G
squarefree mod one proves it over Q (MCA, sections 14.6 and 15), and only
after five failures is Res(G, G') computed, once; zero means a repeated
factor, nonzero that those primes divide disc(G), and the search goes on.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Tuple

from .arith import is_prime
from .modpoly import (PrimePoly, add, divmod_monic, factor_count_mod_p,
                      factor_mod_p, is_squarefree_mod_p, mul, sub, xgcd)
from .polys import RationalPoly, pdivmod, rational, resultant

__all__ = ["factor_over_Q"]


def _prod_mod(factors: List[List[int]], m: int) -> List[int]:
    out = [1]
    for f in factors:
        out = mul(out, f, m)
    return out


def _hensel_step(m: int, f: List[int], g: List[int], h: List[int],
                 s: List[int], t: List[int]):
    """Lift f = g*h and s*g + t*h = 1 from mod m to mod m^2; h stays monic."""
    mm = m * m
    e = sub(f, mul(g, h, mm), mm)
    q, r = divmod_monic(mul(s, e, mm), h, mm)
    g1 = add(g, add(mul(t, e, mm), mul(q, g, mm), mm), mm)
    h1 = add(h, r, mm)
    b = sub(add(mul(s, g1, mm), mul(t, h1, mm), mm), [1], mm)
    c, d = divmod_monic(mul(s, b, mm), h1, mm)
    s1 = sub(s, d, mm)
    t1 = sub(sub(t, mul(t, b, mm), mm), mul(c, g1, mm), mm)
    return g1, h1, s1, t1


def _hensel_lift(f: List[int], factors: List[List[int]], p: int,
                 M: int) -> List[List[int]]:
    """The monic, pairwise coprime factors mod p of the monic f, lifted to
    monic factors mod M = p^(2^k). f = g*h for the products g, h of the two
    halves is lifted from p to M, then each half is lifted with its lifted
    product as the target. Monic lifts are unique, so every level sees the
    values a subproduct tree would hold (MCA, section 15.5)."""
    if len(factors) == 1:
        return [f]
    mid = len(factors) // 2
    g, h = _prod_mod(factors[:mid], p), _prod_mod(factors[mid:], p)
    s, t = xgcd(g, h, p)
    m = p
    while m < M:
        g, h, s, t = _hensel_step(m, [c % (m * m) for c in f], g, h, s, t)
        m *= m
    return (_hensel_lift(g, factors[:mid], p, M)
            + _hensel_lift(h, factors[mid:], p, M))


def _balanced(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _good_prime(coeffs: List[int]) -> Tuple[int, List[List[int]]]:
    """Smallest of the first five primes at which the monic G = coeffs is
    squarefree with the fewest modular factors, and the factors there; only
    that prime is factored fully. After five primes with G not squarefree
    mod each, and none with it, raises ValueError when Res(G, G') = 0."""
    best = None
    found = failed = 0
    p = 1
    while found < 5:
        p += 1
        while not is_prime(p):
            p += 1
        if not is_squarefree_mod_p(coeffs, p):
            failed += 1
            if failed == 5 and not found:
                g = RationalPoly(coeffs)
                if resultant(g, g.derivative()) == 0:
                    raise ValueError("cannot factor a polynomial with a "
                                     "repeated factor")
            continue
        count = factor_count_mod_p(PrimePoly(p, coeffs))
        found += 1
        if best is None or count < best[1]:
            best = (p, count)
        if count == 1:
            break
    p, count = best
    fp = PrimePoly(p, coeffs)
    if count == 1:
        return p, [list(fp.coeffs)]  # coeffs is monic: its own one factor
    return p, [list(g.coeffs) for g in factor_mod_p(fp)]


def _factor_squarefree_monic_int(coeffs: List[int]) -> List[List[int]]:
    """Monic squarefree integer polynomial -> monic integer irreducible factors."""
    n = len(coeffs) - 1
    if n <= 1:
        return [list(coeffs)]
    p, mod_factors = _good_prime(coeffs)
    if len(mod_factors) == 1:
        return [list(coeffs)]
    # Mignotte: factor coefficients bounded by 2^n * l2norm(f)
    norm = math.isqrt(sum(c * c for c in coeffs)) + 1
    bound = 2 * (norm << n) + 1
    m = p
    while m < bound:
        m *= m
    lifted = _hensel_lift(coeffs, mod_factors, p, m)
    # recombination over subsets of lifted factors, smallest first
    remaining = list(range(len(lifted)))
    result: List[List[int]] = []
    current = list(coeffs)
    k = 1
    while 2 * k <= len(remaining):
        merged = False
        for subset in itertools.combinations(remaining, k):
            cand = _prod_mod([lifted[i] for i in subset], m)
            cand = [_balanced(c, m) for c in cand]
            q, r = pdivmod(current, cand)  # cand is monic: exact division
            if not r:
                result.append(cand)
                current = q
                remaining = [i for i in remaining if i not in subset]
                merged = True
                break
        if not merged:
            k += 1
    if len(current) > 1:
        result.append(current)
    return result


def factor_over_Q(f: RationalPoly) -> List[RationalPoly]:
    """The monic irreducible factors of a squarefree f, sorted by degree, then
    by ascending coefficient tuple; their product times lc(f) is f. A
    nonzero constant has no factors. Raises ValueError on the zero
    polynomial and on an f with a repeated factor (see `_good_prime`)."""
    if f.deg() < 0:
        raise ValueError("cannot factor the zero polynomial")
    if f.deg() == 0:
        return []
    _, prim = f.primitive()
    icoeffs = prim.int_coeffs()
    lc, n = icoeffs[-1], len(icoeffs) - 1
    # monicize: G(y) = lc^(n-1) f(y/lc) is a monic integer polynomial in y
    work = [icoeffs[i] * lc ** (n - 1 - i) for i in range(n)] + [1]
    # back to f: g(lc y) / lc^deg g, with int coefficients when lc = 1
    out = [RationalPoly([rational(g[i], lc ** (len(g) - 1 - i))
                         for i in range(len(g))])
           for g in _factor_squarefree_monic_int(work)]
    out.sort(key=lambda g: (g.deg(), g.coeffs))
    return out
