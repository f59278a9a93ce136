"""Exact irreducible factorization over Q.

Pipeline: content/primitive split, Yun squarefree decomposition (skipped when
the primitive part is squarefree mod a small prime not dividing its leading
coefficient, since then its discriminant is nonzero), reduction at a good
prime (smallest of five candidates giving the fewest modular factors, counted
from the distinct-degree blocks; only the chosen prime is factored fully),
quadratic Hensel lifting on a subproduct tree past twice the Mignotte bound,
then subset recombination in increasing cardinality. Non-monic inputs are
monicized first via G(y) = lc^(n-1) f(y/lc), so every lifted object is monic
and recombination candidates can be tested by exact integer division.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Tuple

from .arith import is_prime
from .modpoly import (PrimePoly, add, divmod_monic, factor_count_mod_p,
                      factor_mod_p, is_squarefree_mod_p, mul, sub, trim, xgcd)
from .polys import RationalPoly, monic_gcd

__all__ = ["factor_over_Q"]

# the primes tried before Yun's decomposition: f squarefree mod one of them
# (not dividing lc f) is squarefree over Q
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _yun_squarefree(f: RationalPoly) -> List[Tuple[RationalPoly, int]]:
    """Monic input, characteristic zero; [(monic squarefree part, multiplicity)]."""
    out: List[Tuple[RationalPoly, int]] = []
    g = monic_gcd(f, f.derivative())
    w = f.divmod(g)[0]
    y = f.derivative().divmod(g)[0]
    z = y - w.derivative()
    i = 1
    while w.deg() > 0:
        h = monic_gcd(w, z)
        if h.deg() > 0:
            out.append((h, i))
        w = w.divmod(h)[0]
        y = z.divmod(h)[0]
        z = y - w.derivative()
        i += 1
    return out


class _Node:
    __slots__ = ("leaf", "poly", "left", "right", "g", "h", "s", "t")

    def __init__(self) -> None:
        self.leaf = False
        self.poly: List[int] = []
        self.left = self.right = None
        self.g: List[int] = []
        self.h: List[int] = []
        self.s: List[int] = []
        self.t: List[int] = []


def _build_tree(factors: List[List[int]], p: int) -> _Node:
    node = _Node()
    if len(factors) == 1:
        node.leaf = True
        node.poly = list(factors[0])
        return node
    mid = len(factors) // 2
    node.left = _build_tree(factors[:mid], p)
    node.right = _build_tree(factors[mid:], p)
    node.g = _prod_mod(factors[:mid], p)
    node.h = _prod_mod(factors[mid:], p)
    node.s, node.t = xgcd(node.g, node.h, p)
    return node


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


def _lift_tree(node: _Node, target: List[int], m: int) -> None:
    """target given mod m^2, congruent mod m to the node's product."""
    if node.leaf:
        node.poly = target
        return
    g1, h1, s1, t1 = _hensel_step(m, target, node.g, node.h, node.s, node.t)
    node.g, node.h, node.s, node.t = g1, h1, s1, t1
    _lift_tree(node.left, g1, m)
    _lift_tree(node.right, h1, m)


def _leaves(node: _Node, out: List[List[int]]) -> None:
    if node.leaf:
        out.append(node.poly)
        return
    _leaves(node.left, out)
    _leaves(node.right, out)


def _balanced(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _int_divmod_monic(a: List[int], b: List[int]) -> Tuple[List[int], List[int]]:
    r = list(a)
    if len(r) < len(b):
        return [], trim(r)
    q = [0] * (len(r) - len(b) + 1)
    db = len(b) - 1
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        if c:
            q[k] = c
            for j in range(db + 1):
                r[k + j] -= c * b[j]
    return trim(q), trim(r)


def _good_prime(coeffs: List[int]) -> Tuple[int, List[List[int]]]:
    """Smallest of the first five usable primes with the fewest modular
    factors, and the factors there; only that prime is factored fully."""
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
    return p, [list(g.coeffs) for g, _ in factor_mod_p(fp)]


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
    tree = _build_tree(mod_factors, p)
    m = p
    while m < bound:
        _lift_tree(tree, [c % (m * m) for c in coeffs], m)
        m *= m
    lifted: List[List[int]] = []
    _leaves(tree, lifted)
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
            q, r = _int_divmod_monic(current, cand)
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


def factor_over_Q(f: RationalPoly) -> Tuple[Fraction, List[Tuple[RationalPoly, int]]]:
    """Returns (content, [(monic irreducible factor, multiplicity)...]) with
    content * product(factor^multiplicity) == f exactly. Factors are sorted by
    degree, then by ascending coefficient tuple."""
    if f.deg() < 0:
        raise ValueError("cannot factor the zero polynomial")
    if f.deg() == 0:
        return f.coeffs[0], []
    content, prim = f.primitive()
    lc = prim.lc()
    content *= lc
    monic = prim.monic()
    ilc, pcoeffs = int(lc), prim.int_coeffs()
    if any(ilc % p and is_squarefree_mod_p(pcoeffs, p) for p in _SMALL_PRIMES):
        parts = [(monic, 1)]  # disc(prim) is nonzero mod p, so nonzero
    else:
        parts = _yun_squarefree(monic)
    out: List[Tuple[RationalPoly, int]] = []
    for part, mult in parts:
        _, ipart = part.primitive()
        plc = int(ipart.lc())
        icoeffs = [int(c) for c in ipart.coeffs]
        if plc == 1:
            work = icoeffs
            scale = 1
        else:
            # monicize: G(y) = lc^(n-1) F(y/lc), monic integer in y
            n = len(icoeffs) - 1
            work = [icoeffs[i] * plc ** (n - 1 - i) for i in range(n)] + [1]
            scale = plc
        for g in _factor_squarefree_monic_int(work):
            if scale == 1:
                fac = RationalPoly(g)
            else:
                d = len(g) - 1
                fac = RationalPoly([Fraction(g[i], scale ** (d - i))
                                    for i in range(d + 1)])
            out.append((fac, mult))
    out.sort(key=lambda gm: (gm[0].deg(), gm[0].coeffs))
    return content, out
