"""Real root isolation for rational polynomials by Sturm sequences.

All arithmetic is exact. Intervals are [lo, hi] with rational endpoints; a
degenerate interval lo == hi marks an exact rational root.

A Sturm chain is built once per polynomial and kept on its RootIntervals.
Each member is stored as a primitive integer polynomial, a positive rational
multiple of the member over Q, so it has the same signs. A member of degree
k is evaluated at n/d (d > 0) as the integer sum c_0 d^k + c_1 n d^(k-1) +
... + c_k n^k, which is d^k times its value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterator, List, Optional, Sequence, Tuple

from .polys import RationalPoly, monic_gcd, prem

__all__ = ["RootInterval", "RootIntervals", "isolate_real_roots",
           "real_root_count", "sign_at"]

IntPoly = Tuple[int, ...]
Chain = Tuple[IntPoly, ...]


@dataclass(frozen=True)
class RootInterval:
    lo: Fraction
    hi: Fraction

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo


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


def _sturm_chain(f: IntPoly) -> Chain:
    """f, f', then each next member -rem(a, b) of the two before it, all
    scaled positively to primitive integer polynomials; the last member is
    gcd(f, f') up to a constant."""
    chain = [f, _primitive([i * c for i, c in enumerate(f)][1:])]
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


def _variations_at(chain: Chain, x: Fraction) -> int:
    n, d = x.numerator, x.denominator
    signs = [s for s in (_sign(_scaled_value(g, n, d)) for g in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_inf(chain: Chain, positive: bool) -> int:
    signs = []
    for g in chain:
        if not g:
            continue
        s = _sign(g[-1])
        if not positive and len(g) % 2 == 0:
            s = -s
        signs.append(s)
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

    def refined(self, width: Fraction) -> "RootIntervals":
        width = Fraction(width)
        out = [_refine(self.chain, iv, width) for iv in self.intervals]
        return RootIntervals(self.poly, tuple(out), self.chain)


def _count_in(chain: Chain, a: Fraction, b: Fraction) -> int:
    """Roots in (a, b]; requires f(a) != 0."""
    return _variations_at(chain, a) - _variations_at(chain, b)


def _refine(chain: Chain, iv: RootInterval, width: Fraction) -> RootInterval:
    lo, hi = iv.lo, iv.hi
    while hi - lo > width:
        m = (lo + hi) / 2
        if _sign_at_point(chain[0], m) == 0:
            return RootInterval(m, m)
        if _count_in(chain, lo, m) == 1:
            hi = m
        else:
            lo = m
    return RootInterval(lo, hi)


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
    bound = Fraction(1) + max(abs(c) for c in f.coeffs[:-1]) / abs(f.lc())
    b = Fraction(bound.__ceil__())
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


def sign_at(g: RationalPoly, ivs: RootIntervals) -> Tuple[int, ...]:
    """Signs of g at the roots of ivs.poly (squarefree), one per interval of
    ivs and in its order. The gcd with ivs.poly and the Sturm chain of g's
    squarefree part are built once, for all the roots."""
    if g.deg() < 0:
        return (0,) * len(ivs)
    gint = _int_poly(g)
    # g vanishes at a root of f exactly where gcd(f, g) does
    d = monic_gcd(ivs.poly, g)
    dchain = _sturm_chain(_int_poly(d)) if d.deg() > 0 else None
    # the squarefree part of g, for counting its roots
    gchain = _sturm_chain(gint)
    if len(gchain[-1]) > 1:
        gchain = _sturm_chain(_int_poly(g.divmod(RationalPoly(gchain[-1]))[0]))
    return tuple(_sign_at_root(gint, gchain, dchain, ivs.chain, iv) for iv in ivs)


def _sign_at_root(g: IntPoly, gchain: Chain, dchain: Optional[Chain],
                  fchain: Chain, iv: RootInterval) -> int:
    """Sign of g at the one root of f = fchain[0] inside iv: halve iv until
    g has no root in it, then read g's sign at the midpoint."""
    lo, hi = iv.lo, iv.hi
    if lo == hi:
        return _sign_at_point(g, lo)
    if dchain is not None and _count_in(dchain, lo, hi) > 0:
        return 0
    while True:
        if _count_in(gchain, lo, hi) == 0:
            s = _sign_at_point(g, (lo + hi) / 2)
            if s != 0:
                return s
        m = (lo + hi) / 2
        if _sign_at_point(fchain[0], m) == 0:
            return _sign_at_point(g, m)
        if _count_in(fchain, lo, m) == 1:
            hi = m
        else:
            lo = m
