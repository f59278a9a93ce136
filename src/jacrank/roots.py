"""Real root isolation for rational polynomials by Sturm sequences.

All arithmetic is exact over Q. Intervals are [lo, hi] with rational
endpoints; a degenerate interval lo == hi marks an exact rational root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Tuple

from .polys import RationalPoly, monic_gcd

__all__ = ["RootInterval", "RootIntervals", "isolate_real_roots",
           "real_root_count", "sign_at"]


@dataclass(frozen=True)
class RootInterval:
    lo: Fraction
    hi: Fraction

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo


def _sturm_chain(f: RationalPoly) -> List[RationalPoly]:
    chain = [f, f.derivative()]
    while chain[-1].deg() > 0:
        rem = chain[-2] % chain[-1]
        if rem.deg() < 0:
            break
        chain.append(-rem)
    return chain


def _require_squarefree(f: RationalPoly, chain: List[RationalPoly]) -> None:
    # the chain ends in gcd(f, f') up to a constant; degree > 0 means a
    # repeated root
    if chain[-1].deg() > 0:
        raise ValueError("polynomial is not squarefree")


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations_at(chain: List[RationalPoly], x: Fraction) -> int:
    signs = [s for s in (_sign(g.eval(x)) for g in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_inf(chain: List[RationalPoly], positive: bool) -> int:
    signs = []
    for g in chain:
        if g.deg() < 0:
            continue
        s = _sign(g.lc())
        if not positive and g.deg() % 2 == 1:
            s = -s
        signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class RootIntervals:
    poly: RationalPoly
    intervals: Tuple[RootInterval, ...]

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, i: int) -> RootInterval:
        return self.intervals[i]

    def __iter__(self) -> Iterator[RootInterval]:
        return iter(self.intervals)

    def refined(self, width: Fraction) -> "RootIntervals":
        width = Fraction(width)
        chain = _sturm_chain(self.poly)
        out = [_refine(self.poly, chain, iv, width) for iv in self.intervals]
        return RootIntervals(self.poly, tuple(out))


def _count_in(chain: List[RationalPoly], a: Fraction, b: Fraction) -> int:
    """Roots in (a, b]; requires f(a) != 0."""
    return _variations_at(chain, a) - _variations_at(chain, b)


def _refine(f: RationalPoly, chain: List[RationalPoly], iv: RootInterval,
            width: Fraction) -> RootInterval:
    lo, hi = iv.lo, iv.hi
    while hi - lo > width:
        m = (lo + hi) / 2
        v = f.eval(m)
        if v == 0:
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
    if f.deg() == 0:
        return RootIntervals(f, ())
    chain = _sturm_chain(f)
    _require_squarefree(f, chain)
    if f.deg() == 1:
        r = -f.coeffs[0] / f.coeffs[1]
        return RootIntervals(f, (RootInterval(r, r),))
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
        while f.eval(m) == 0:
            m += step
            step /= 2
        stack.append((lo, m))
        stack.append((m, hi))
    found.sort(key=lambda iv: iv.lo)
    return RootIntervals(f, tuple(found))


def real_root_count(f: RationalPoly) -> int:
    """Number of distinct real roots, from Sturm variations at minus and plus
    infinity."""
    if f.deg() < 0:
        raise ValueError("zero polynomial")
    if f.deg() == 0:
        return 0
    chain = _sturm_chain(f)
    _require_squarefree(f, chain)
    return _variations_inf(chain, positive=False) - _variations_inf(chain, positive=True)


def sign_at(g: RationalPoly, f: RationalPoly, iv: RootInterval) -> int:
    """Sign of g at the unique root of f inside iv (f squarefree)."""
    if g.deg() < 0:
        return 0
    if iv.lo == iv.hi:
        return _sign(g.eval(iv.lo))
    fchain = _sturm_chain(f)
    # if g shares the root with f, the sign is 0
    d = monic_gcd(f, g)
    if d.deg() > 0:
        dchain = _sturm_chain(d)
        if _variations_at(dchain, iv.lo) - _variations_at(dchain, iv.hi) > 0:
            return 0
    # squarefree part of g for counting its roots
    gchain = _sturm_chain(g)
    if gchain[-1].deg() > 0:
        gsf = g.divmod(gchain[-1])[0]
        gchain = _sturm_chain(gsf)
    lo, hi = iv.lo, iv.hi
    while True:
        if _count_in(gchain, lo, hi) == 0:
            s = _sign(g.eval((lo + hi) / 2))
            if s != 0:
                return s
        m = (lo + hi) / 2
        v = f.eval(m)
        if v == 0:
            return _sign(g.eval(m))
        if _count_in(fchain, lo, m) == 1:
            hi = m
        else:
            lo = m
