"""Polynomial arithmetic mod m, and factorization over prime fields F_p.

This is the package's one implementation of arithmetic on ascending integer
coefficient lists mod m: `trim`, `mul`, `add`, `sub`, `divmod_monic` and
`powmod` work for any modulus m >= 2 (Hensel lifting mod p^k, Newton lifting
mod ell^k) because every divisor is monic; `monic`, `gcd`, `xgcd` and
`is_squarefree_mod_p` need a prime modulus.

Factorization takes only f squarefree mod p and raises ValueError on any
other: every caller tests gcd(f, f') = 1 mod p first (the choice of a prime
for factoring over Q, the irreducibility test). It is distinct-degree
splitting by Frobenius powers, then Cantor-Zassenhaus equal-degree splitting
(trace map in characteristic 2). The splitting RNG is seeded from the input
so repeated runs are identical; output order is (degree, coefficient tuple)
regardless. `factor_count_mod_p` stops after the distinct-degree step, which
already fixes how many factors there are; `is_irreducible_mod_p` asks it for
a squarefree f.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Sequence, Tuple

from .arith import CheckedRecord, is_prime

__all__ = ["PrimePoly", "factor_mod_p", "factor_count_mod_p",
           "is_irreducible_mod_p", "is_squarefree_mod_p", "trim", "mul", "add",
           "sub", "divmod_monic", "monic", "gcd", "xgcd", "powmod"]

Coeffs = Tuple[int, ...]


class _PrimePoly(NamedTuple):
    modulus: int
    coeffs: Coeffs


class PrimePoly(CheckedRecord, _PrimePoly):
    __slots__ = ()

    def __new__(cls, modulus: int, coeffs) -> "PrimePoly":
        if not is_prime(modulus):
            raise ValueError(f"modulus must be prime, got {modulus}")
        cs = [c % modulus for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return super().__new__(cls, modulus, tuple(cs))

    def deg(self) -> int:
        return len(self.coeffs) - 1

    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial")
        return self.coeffs[-1]


def trim(a: List[int]) -> List[int]:
    """Drop trailing zero coefficients in place; the zero polynomial is []."""
    while a and a[-1] == 0:
        a.pop()
    return a


def mul(a: List[int], b: List[int], m: int) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim([c % m for c in out])


def add(a: List[int], b: List[int], m: int) -> List[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c % m
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return trim(out)


def sub(a: List[int], b: List[int], m: int) -> List[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c % m
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return trim(out)


def divmod_monic(a: List[int], b: List[int], m: int) -> Tuple[List[int], List[int]]:
    """(q, r) with a = q*b + r mod m and deg r < deg b; b must be monic, so
    any modulus m >= 2 works."""
    assert b and b[-1] == 1, "divisor must be monic"
    r = [c % m for c in a]
    if len(r) < len(b):
        return [], trim(r)
    q = [0] * (len(r) - len(b) + 1)
    db = len(b) - 1
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        if c:
            q[k] = c
            for j in range(db + 1):
                r[k + j] = (r[k + j] - c * b[j]) % m
    return trim(q), trim(r)


def monic(a: Sequence[int], p: int) -> List[int]:
    """a scaled by the inverse of its leading coefficient mod a prime p."""
    if not a:
        return []
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def gcd(a: List[int], b: List[int], p: int) -> List[int]:
    """Monic gcd mod a prime p; every remainder is made monic before it
    divides, and gcd(0, 0) = []."""
    while b:
        b = monic(b, p)
        a, b = b, divmod_monic(a, b, p)[1]
    return monic(a, p)


def xgcd(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    """For coprime a, b mod a prime p (b of degree >= 1) returns (s, t) with
    s*a + t*b = 1; extended Euclid gives deg s < deg b, deg t < deg a. With
    b monic irreducible, s is the inverse of a in F_p[x]/(b)."""
    r0, r1 = trim([c % p for c in a]), trim([c % p for c in b])
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        # quotient of r0 by r1 = quotient of u*r0 by the monic u*r1
        u = pow(r1[-1], p - 2, p)
        q = divmod_monic([c * u for c in r0], [c * u % p for c in r1], p)[0]
        r0, r1 = r1, sub(r0, mul(q, r1, p), p)
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    assert len(r0) == 1, "inputs were not coprime"
    inv = pow(r0[0], p - 2, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def powmod(base: List[int], e: int, f: List[int], m: int) -> List[int]:
    """base^e mod (f, m) for monic f."""
    result = [1]
    base = divmod_monic(base, f, m)[1]
    while e:
        if e & 1:
            result = divmod_monic(mul(result, base, m), f, m)[1]
        base = divmod_monic(mul(base, base, m), f, m)[1]
        e >>= 1
    return result


def _deriv(a: List[int], p: int) -> List[int]:
    return trim([i * c % p for i, c in enumerate(a)][1:])


def is_squarefree_mod_p(coeffs: Sequence[int], p: int) -> bool:
    """True when f mod p has no repeated factor, i.e. gcd(f, f') = 1 mod p.
    For f with a unit leading coefficient this is p not dividing disc(f)."""
    f = trim([c % p for c in coeffs])
    return len(gcd(f, _deriv(f, p), p)) == 1


def _distinct_degree(f: List[int], p: int) -> List[Tuple[List[int], int]]:
    """Monic squarefree input; returns [(product-of-degree-d-factors, d)]."""
    blocks: List[Tuple[List[int], int]] = []
    x = [0, 1]
    h = divmod_monic(x, f, p)[1]
    d = 0
    while len(f) - 1 > 2 * d:
        d += 1
        h = powmod(h, p, f, p)
        g = gcd(sub(h, x, p), f, p)
        if len(g) > 1:
            blocks.append((g, d))
            f = divmod_monic(f, g, p)[0]
            h = divmod_monic(h, f, p)[1]
    if len(f) > 1:
        blocks.append((f, len(f) - 1))
    return blocks


def _equal_degree(f: List[int], d: int, p: int, rng: random.Random) -> List[List[int]]:
    """Monic squarefree product of irreducibles all of degree d; splits fully."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = trim([rng.randrange(p) for _ in range(n)])
        if p == 2:
            t = list(r)  # trace map r + r^2 + ... + r^(2^(d-1))
            acc = list(r)
            for _ in range(d - 1):
                acc = divmod_monic(mul(acc, acc, p), f, p)[1]
                t = sub(t, acc, p)  # char 2: subtraction is addition
            g = gcd(t, f, p)
        else:
            s = powmod(r, (p**d - 1) // 2, f, p)
            g = gcd(sub(s, [1], p), f, p)
        if 1 < len(g) < len(f):
            other = divmod_monic(f, g, p)[0]
            return _equal_degree(g, d, p, rng) + _equal_degree(other, d, p, rng)


def _blocks(f: PrimePoly) -> List[Tuple[List[int], int]]:
    """The distinct-degree blocks of an f that is squarefree mod p."""
    p = f.modulus
    if not f.coeffs:
        raise ValueError("cannot factor the zero polynomial")
    if not is_squarefree_mod_p(f.coeffs, p):
        raise ValueError(f"polynomial is not squarefree mod {p}")
    return _distinct_degree(monic(f.coeffs, p), p)


def factor_mod_p(f: PrimePoly) -> List[PrimePoly]:
    """Monic irreducible factors of an f that is squarefree mod p; their
    product times lc(f) reproduces f. Sorted by (degree, coefficient tuple).
    Raises ValueError on the zero polynomial or a repeated factor."""
    p = f.modulus
    rng = random.Random(f"{p}:{f.coeffs}")
    out = [PrimePoly(p, irr) for block, d in _blocks(f)
           for irr in _equal_degree(block, d, p, rng)]
    out.sort(key=lambda g: (len(g.coeffs), g.coeffs))
    return out


def factor_count_mod_p(f: PrimePoly) -> int:
    """len(factor_mod_p(f)) without the equal-degree splitting: a
    distinct-degree block of degree-d factors holds deg(block) / d of them."""
    return sum((len(block) - 1) // d for block, d in _blocks(f))


def is_irreducible_mod_p(f: PrimePoly) -> bool:
    """True when f mod p is squarefree and has one irreducible factor."""
    return f.deg() > 0 and is_squarefree_mod_p(f.coeffs, f.modulus) \
        and factor_count_mod_p(f) == 1
