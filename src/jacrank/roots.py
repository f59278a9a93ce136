"""Real roots of rational polynomials: isolation by Sturm counts, signs by
the Cauchy index.

All arithmetic is exact. Intervals are [lo, hi] with rational endpoints; a
degenerate interval lo == hi marks an exact rational root.

Every chain here is a signed remainder chain: two polynomials, then each
next member -rem(a, b) of the two before it. Each member is stored as a
primitive integer polynomial, a positive rational multiple of the member
over Q, so it has the same signs. A member of degree k is evaluated at n/d
(d > 0) as the integer sum c_0 d^k + c_1 n d^(k-1) + ... + c_k n^k, which
is d^k times its value.

The Sturm chain (f, f', ...) is built once per polynomial and kept on its
RootIntervals; its variation counts isolate the roots, starting from
Fujiwara's bound on them. The sign of g at the one root of f in (lo, hi)
comes from the chain of f and g mod f: by Sturm's theorem for the Cauchy
index, Var(lo) - Var(hi) is sign g(root) * sign f(hi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterator, List, Sequence, Tuple

from .polys import RationalPoly, prem

__all__ = ["RootInterval", "RootIntervals", "isolate_real_roots", "sign_at"]

IntPoly = Tuple[int, ...]
Chain = Tuple[IntPoly, ...]


@dataclass(frozen=True)
class RootInterval:
    lo: Fraction
    hi: Fraction


def _primitive(cs: Sequence[int]) -> IntPoly:
    """cs divided by the positive gcd of its entries."""
    g = 0
    for c in cs:
        g = gcd(g, c)
    return tuple(c // g for c in cs) if g else ()


def _int_poly(f: RationalPoly) -> IntPoly:
    """The primitive integer polynomial that is a positive multiple of f."""
    content, prim = f.primitive()
    cs = prim.int_coeffs()
    return tuple(cs) if content > 0 else tuple(-c for c in cs)


def _remainder_chain(a: IntPoly, b: IntPoly) -> Chain:
    """a, b, then each next member -rem(a, b) of the two before it, all
    scaled positively to primitive integer polynomials; the last member is
    gcd(a, b) up to a constant."""
    chain = [a, b]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        rem = prem(a, b)
        if not rem:
            break
        # rem = lc(b)^e * rem(a, b) with e = deg a - deg b + 1
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            rem = [-c for c in rem]
        chain.append(_primitive(rem))
    return tuple(chain)


def _sturm_chain(f: IntPoly) -> Chain:
    """f, f', ...; the last member is gcd(f, f') up to a constant."""
    return _remainder_chain(f, _primitive([i * c for i, c in enumerate(f)][1:]))


def _require_squarefree(chain: Chain) -> None:
    # the chain ends in gcd(f, f') up to a constant; degree > 0 means a
    # repeated root
    if len(chain[-1]) > 1:
        raise ValueError("polynomial is not squarefree")


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _scaled_value(g: IntPoly, n: int, d: int) -> int:
    """d^deg(g) * g(n/d) by Horner's rule in n, with the powers of d folded in."""
    acc, dpow = 0, 1
    for c in reversed(g):
        acc = acc * n + c * dpow
        dpow *= d
    return acc


def _sign_at_point(g: IntPoly, x: Fraction) -> int:
    return _sign(_scaled_value(g, x.numerator, x.denominator))


def _signs_at(chain: Chain, x: Fraction) -> List[int]:
    n, d = x.numerator, x.denominator
    return [_sign(_scaled_value(g, n, d)) for g in chain]


def _variations(signs: Sequence[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class RootIntervals:
    poly: RationalPoly
    intervals: Tuple[RootInterval, ...]
    chain: Chain = field(repr=False, compare=False)  # Sturm chain of poly

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, i: int) -> RootInterval:
        return self.intervals[i]

    def __iter__(self) -> Iterator[RootInterval]:
        return iter(self.intervals)


def _count_in(chain: Chain, a: Fraction, b: Fraction) -> int:
    """Roots in (a, b]; requires f(a) != 0."""
    return _variations(_signs_at(chain, a)) - _variations(_signs_at(chain, b))


def _ceil_root(c: int, i: int) -> int:
    """The least integer r >= 0 with r^i >= c, for c >= 0 and i >= 1."""
    if c <= 1 or i == 1:
        return c
    t = 1 << -(-c.bit_length() // i)  # at least the i-th root of c
    while True:  # Newton's method on integers falls to the floor root
        u = ((i - 1) * t + c // t ** (i - 1)) // i
        if u >= t:
            break
        t = u
    return t if t ** i >= c else t + 1


def _root_bound(f: IntPoly) -> int:
    """An integer B with every complex root z of f in |z| < B, when f has a
    nonzero coefficient below the leading one: Fujiwara's bound
    2 max_i |c_(n-i) / c_n|^(1/i), each i-th root rounded up to an integer."""
    n = len(f) - 1
    lc = abs(f[-1])
    return 2 * max(_ceil_root(-(-abs(f[n - i]) // lc), i)
                   for i in range(1, n + 1))


def isolate_real_roots(f: RationalPoly) -> RootIntervals:
    """One isolating interval per real root, ascending. Rejects non-squarefree
    input; the endpoints of every returned interval with lo < hi are non-roots."""
    if f.deg() < 0:
        raise ValueError("zero polynomial")
    chain = _sturm_chain(_int_poly(f))
    if f.deg() == 0:
        return RootIntervals(f, (), chain)
    _require_squarefree(chain)
    if f.deg() == 1:
        r = -f.coeffs[0] / f.coeffs[1]
        return RootIntervals(f, (RootInterval(r, r),), chain)
    b = Fraction(_root_bound(chain[0]))
    found: List[RootInterval] = []
    stack = [(-b, b)]
    while stack:
        lo, hi = stack.pop()
        n = _count_in(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            found.append(RootInterval(lo, hi))
            continue
        m = (lo + hi) / 2
        step = (hi - lo) / 4
        while _sign_at_point(chain[0], m) == 0:
            m += step
            step /= 2
        stack.append((lo, m))
        stack.append((m, hi))
    found.sort(key=lambda iv: iv.lo)
    return RootIntervals(f, tuple(found), chain)


def sign_at(g: RationalPoly, ivs: RootIntervals) -> Tuple[int, ...]:
    """Signs of g at the roots of ivs.poly (squarefree), one per interval of
    ivs and in its order. One remainder chain of f and g mod f serves all
    the roots, and each distinct endpoint is evaluated once."""
    if g.deg() < 0:
        return (0,) * len(ivs)
    gint = _int_poly(g)
    f = ivs.chain[0]
    r: Sequence[int] = gint
    if len(gint) >= len(f):
        r = prem(gint, f)
        # r = lc(f)^e * (g mod f) with e = deg g - deg f + 1
        if f[-1] < 0 and (len(gint) - len(f)) % 2 == 0:
            r = [-c for c in r]
    chain = _remainder_chain(f, _primitive(r))
    signs = {x: _signs_at(chain, x)
             for iv in ivs if iv.lo != iv.hi for x in (iv.lo, iv.hi)}
    # Var(lo) - Var(hi) is the Cauchy index of g/f over (lo, hi), and
    # signs[hi][0] is the sign of f at hi
    return tuple(_sign_at_point(gint, iv.lo) if iv.lo == iv.hi
                 else (_variations(signs[iv.lo]) - _variations(signs[iv.hi]))
                 * signs[iv.hi][0]
                 for iv in ivs)
