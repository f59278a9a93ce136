"""Integer utilities: primality, orders, squarefree tests, Jacobi symbols.

Oracles here are deliberately dumber and structurally different from the
implementations: full trial-division factorization, divisor-by-divisor order
search, Euler-criterion Legendre symbols.
"""

from __future__ import annotations

import math
import random

import pytest

from jacrank.arith import (
    is_prime,
    jacobi,
    order_dividing,
    prime_factors,
    primes_upto,
    squarefree_prime_factors,
)


def is_squarefree_integer(n: int) -> bool:
    """Reference square-free test, the trial division the package used
    before it read square-freeness off one factorization: True iff no prime
    square divides n."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    if n % 4 == 0:
        return False
    while n % 2 == 0:
        n //= 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        else:
            d += 2
    return True


def primes_with_odd_order_of_two(limit: int) -> list[int]:
    """Odd primes p < limit for which the order of 2 mod p is odd."""
    return [
        p
        for p in primes_upto(limit - 1)
        if p != 2 and order_oracle(2, p) % 2 == 1
    ]


PRIMES_BELOW_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
]


def factorize(n: int) -> dict[int, int]:
    """Trial-division oracle: complete factorization as {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def order_oracle(a: int, p: int) -> int:
    """Order of a mod the prime p: the least divisor d of p - 1 with
    a^d = 1 (mod p), the divisors tried in increasing order. Structurally
    different from `order_dividing`, which strips prime factors from p - 1.
    """
    small = [d for d in range(1, math.isqrt(p - 1) + 1) if (p - 1) % d == 0]
    for d in small + [(p - 1) // d for d in reversed(small)]:
        if pow(a, d, p) == 1:
            return d
    raise AssertionError("no order found")


def test_primes_upto_frozen():
    assert primes_upto(100) == PRIMES_BELOW_100
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert len(primes_upto(10000)) == 1229


def test_is_prime_matches_sieve():
    sieve = set(primes_upto(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


def test_is_prime_large_pairs():
    # the largest pair touched by the scan
    assert is_prime(92459)
    assert is_prime(46229)
    assert not is_prime(92459 * 46229)


def test_is_prime_at_the_strong_pseudoprime_bounds():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # prime base up to 37; at psi_13 and above no fixed base set is proved
    assert not is_prime(318665857834031151167461)
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert is_prime(2**61 - 1)
    assert is_prime(41) and is_prime(43) and not is_prime(41 * 43)
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError, match="psi_13"):
            is_prime(n)


def test_multiplicative_order_frozen():
    assert order_dividing(2, 3, 2) == 2
    assert order_dividing(2, 7, 6) == 3
    assert order_dividing(2, 11, 10) == 10
    assert order_dividing(2, 23, 22) == 11


def test_multiplicative_order_against_divisor_oracle():
    rng = random.Random(11)
    for p in primes_upto(200):
        if p == 2:
            continue
        for _ in range(3):
            a = rng.randrange(1, p)
            assert order_dividing(a, p, p - 1) == order_oracle(a, p)


def test_multiplicative_order_largest_scan_pair():
    # q = 92459, p = 46229: the largest pair of the certified scan
    for a in (2, 3, 5, 46228):
        assert order_dividing(a, 92459, 92458) == order_oracle(a, 92459)
        assert order_dividing(a, 46229, 46228) == order_oracle(a, 46229)


def test_prime_factors_against_factorization():
    assert prime_factors(1) == []
    for n in range(1, 3000):
        assert prime_factors(n) == sorted(factorize(n))


def test_order_divides_group_order():
    for p in primes_upto(100):
        if p == 2:
            continue
        assert (p - 1) % order_dividing(2, p, p - 1) == 0


def test_is_squarefree_frozen():
    assert squarefree_prime_factors(13) == [13]  # 1 + 3 + 9
    assert squarefree_prime_factors(49) is None
    assert squarefree_prime_factors(9) is None
    assert squarefree_prime_factors(1) == []
    assert squarefree_prime_factors(12) is None
    assert squarefree_prime_factors(30) == [2, 3, 5]


def test_is_squarefree_against_factorization():
    # the reference trial division too, since the other tests select
    # square-free inputs with it
    for n in range(1, 2000):
        factors = factorize(n)
        expect = all(e == 1 for e in factors.values())
        assert is_squarefree_integer(n) == expect
        assert squarefree_prime_factors(n) == (sorted(factors) if expect else None)


def test_is_squarefree_rejects_nonpositive():
    for test in (is_squarefree_integer, squarefree_prime_factors):
        with pytest.raises(ValueError):
            test(0)
        with pytest.raises(ValueError):
            test(-4)


def test_jacobi_matches_euler_criterion():
    rng = random.Random(23)
    for p in primes_upto(300):
        if p == 2:
            continue
        for _ in range(4):
            a = rng.randrange(1, p)
            euler = pow(a, (p - 1) // 2, p)
            expect = 1 if euler == 1 else -1
            assert jacobi(a, p) == expect
    assert jacobi(0, 7) == 0
    assert jacobi(14, 7) == 0


def test_odd_order_of_two_primes_frozen():
    assert primes_with_odd_order_of_two(100) == [7, 23, 31, 47, 71, 73, 79, 89]
