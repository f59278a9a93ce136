"""Exact integer utilities: primes, multiplicative orders, squarefree tests,
and `CheckedRecord`, the base of the package's validated records.

Everything here is deterministic. Primality below psi_13 ~ 3.3e24 uses a
fixed Miller-Rabin base set known to be exact in that range, and at or above
it raises ValueError rather than guess. That bound is far above the primes
the package computes with, so only a user's input, such as a huge --q, can
reach it.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

__all__ = [
    "CheckedRecord",
    "primes_upto",
    "is_prime",
    "prime_factors",
    "order_dividing",
    "squarefree_prime_factors",
    "jacobi",
]


class CheckedRecord:
    """Base of a NamedTuple subclass whose `__new__` checks its fields. The
    namedtuple `_make` builds with `tuple.__new__` and skips the checks;
    this one builds through the class, and so does `_replace`, which calls
    `_make`. It goes first among the bases and adds no slot."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


# Miller-Rabin with the prime bases up to 41, also is_prime's trial
# divisors, is exact for all n < psi_13 (Sorenson and Webster, Math. Comp.
# 86, 2017); psi_12, a strong pseudoprime to the bases up to 37, lies below
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


def primes_upto(n: int) -> List[int]:
    """All primes <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    # bytearray(k) fails cleanly with MemoryError; a failed bytearray
    # repeat can first print a spurious SystemError (CPython 3.11 frees the
    # half-built object with its export count unset)
    composite = bytearray(n + 1)
    for i in range(2, int(n**0.5) + 1):
        if not composite[i]:
            composite[i * i :: i] = b"\x01" * len(range(i * i, n + 1, i))
    return [i for i in range(2, n + 1) if not composite[i]]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < psi_13; ValueError for
    n >= psi_13."""
    if n >= _PSI_13:
        raise ValueError(f"primality of {n} >= psi_13 is not decided exactly")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite below 43^2 has a prime factor <= 41
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> List[int]:
    """Distinct prime factors of n >= 1, ascending (trial division by 2 and
    the odd d)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 2 if d > 2 else 1
    if n > 1:
        out.append(n)
    return out


def order_dividing(a: int, n: int, k: int) -> int:
    """Least j >= 1 with a^j = 1 (mod n), given a multiple k of it, that is
    a^k = 1 (mod n): start from k and divide out each prime factor r for as
    long as a^(k/r) = 1 still holds. For a prime n, k = n - 1."""
    for r in prime_factors(k):
        while k % r == 0 and pow(a, k // r, n) == 1:
            k //= r
    return k


def squarefree_prime_factors(n: int) -> Optional[List[int]]:
    """The distinct prime factors of n >= 1, ascending, when n is
    square-free, that is when n is their product; None when a prime square
    divides n. One trial division."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    factors = prime_factors(n)
    return factors if math.prod(factors) == n else None


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0; the Legendre symbol for prime n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
