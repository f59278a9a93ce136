"""Dense univariate polynomials over Q with exact coefficients.

Coefficients are stored ascending as Fractions with trailing zeros trimmed,
so the zero polynomial has an empty coefficient tuple and deg() == -1.
Products and resultants are computed on integers after clearing
denominators, resultants by the subresultant remainder sequence. Every
polynomial division in the package is the one pseudo-division over Z,
`pdivmod`, which is plain exact division by a monic divisor. The
minimal polynomials of 2cos(2*pi/d) are built in integers: the curve
polynomials of the Sophie Germain family from binomials, their roots mod
each split prime from one Lucas value, and the factors of their f - 1 from
cyclotomic polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple

from .arith import is_prime, jacobi, prime_factors

__all__ = [
    "Frozen",
    "RationalPoly",
    "clear_denominators",
    "pdivmod",
    "int_resultant",
    "resultant",
    "min_poly_2cos",
    "min_poly_2cos_coeffs",
    "min_poly_2cos_roots",
    "min_poly_2cos_split",
    "format_poly",
]


class Frozen:
    """Base of the slotted value types: `__init__` sets each field once
    through object.__setattr__, and assigning or deleting one afterwards
    raises AttributeError. Each subclass defines `__reduce__`, so that copy
    and pickle rebuild it through `__init__` rather than assign its slots."""
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RationalPoly(Frozen):
    __slots__ = ("coeffs",)
    coeffs: Tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RationalPoly:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"RationalPoly(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return RationalPoly, (self.coeffs,)

    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly([-c for c in self.coeffs])

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        if self.is_zero() or other.is_zero():
            return RationalPoly([])
        da, a = clear_denominators(self.coeffs)
        db, b = clear_denominators(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        d = da * db
        return RationalPoly(out if d == 1 else [Fraction(v, d) for v in out])

    def derivative(self) -> "RationalPoly":
        return RationalPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def primitive(self) -> Tuple[Fraction, "RationalPoly"]:
        """content * primitive-part factorization; primitive part has integer
        coefficients, positive leading coefficient, and coefficient gcd 1."""
        if self.is_zero():
            return Fraction(0), self
        den, ints = clear_denominators(self.coeffs)
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if ints[-1] < 0:
            g = -g
        return Fraction(g, den), RationalPoly([v // g for v in ints])

    def int_coeffs(self) -> List[int]:
        if not self.is_integral():
            raise ValueError("polynomial has non-integer coefficients")
        return [int(c) for c in self.coeffs]

    def __str__(self) -> str:
        return format_poly(self)


def clear_denominators(coeffs: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """(d, [d * c for c in coeffs]) for d the least common denominator, the
    scaled coefficients as ints."""
    d = lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def pdivmod(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Pseudo-division of integer polynomials with deg a >= deg b: (q, r)
    with lc(b)^(deg a - deg b + 1) * a = q * b + r and deg r < deg b (Knuth,
    TAOCP Vol. 2, section 4.6.1, Algorithm R). Every division step is exact
    over Z thanks to the pre-scaling; for monic b this is plain division."""
    db = len(b) - 1
    lb = b[-1]
    d = len(a) - len(b)
    r = [v * lb ** (d + 1) for v in a]
    q = [0] * (d + 1)
    for k in range(d, -1, -1):
        c, rem = divmod(r[k + db], lb)
        assert rem == 0
        if c:
            q[k] = c
            for j in range(db + 1):
                r[k + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def int_resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Resultant of two nonzero integer polynomials (ascending coefficients)
    via the subresultant pseudo-remainder sequence."""
    if len(a) < len(b):
        sign = -1 if ((len(a) - 1) * (len(b) - 1)) % 2 else 1
        return sign * int_resultant(b, a)
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    g = h = 1
    s = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        d = da - db
        if (da % 2) and (db % 2):
            s = -s
        r = pdivmod(a, b)[1]
        if not r:
            return 0
        div = g * h**d
        a, b = b, [v // div for v in r]
        g = a[-1]
        if d > 0:
            h = g**d // h ** (d - 1)
        if len(b) == 1:
            da = len(a) - 1
            den = h ** (da - 1) if da >= 1 else 1
            return s * (b[0] ** da // den)


def resultant(f: RationalPoly, g: RationalPoly) -> Fraction:
    """Res(f, g) over Q; zero iff f and g share a root."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    # Res(F/a, G/b) = a^-deg g b^-deg f Res(F, G) for integer F, G
    a, fs = clear_denominators(f.coeffs)
    b, gs = clear_denominators(g.coeffs)
    return Fraction(int_resultant(fs, gs), a ** g.deg() * b ** f.deg())


def _diagonal_binomials(n: int) -> List[int]:
    """C(n - k, k) for k = 0, ..., n // 2, each from the one before:
    C(n - k - 1, k + 1) = C(n - k, k) (n - 2k)(n - 2k - 1) / ((k + 1)(n - k)),
    one multiplication by a small factor and one exact division."""
    out = [1]
    for k in range(n // 2):
        out.append(out[-1] * ((n - 2 * k) * (n - 2 * k - 1))
                   // ((k + 1) * (n - k)))
    return out


def min_poly_2cos(q: int, negate: bool) -> RationalPoly:
    """Minimal polynomial of 2cos(2*pi/q) for prime q >= 5, degree (q-1)/2;
    with negate=True, of -2cos(2*pi/q).

    With p = (q-1)/2 this is W_p(y/2), W_p the Chebyshev polynomial of the
    fourth kind: W_p(cos t) = sin((p + 1/2) t) / sin(t/2) vanishes exactly
    at the p distinct values cos(2*pi*k/q), k = 1..p. Its coefficient of
    y^(p-j) is (-1)^floor(j/2) * C(p - ceil(j/2), floor(j/2)).
    """
    return RationalPoly(min_poly_2cos_coeffs(q, negate))


def min_poly_2cos_coeffs(q: int, negate: bool) -> List[int]:
    """The ascending integer coefficients of min_poly_2cos(q, negate)."""
    if q < 5 or not is_prime(q):
        raise ValueError(f"q must be a prime >= 5, got {q}")
    p = (q - 1) // 2
    even, odd = _diagonal_binomials(p), _diagonal_binomials(p - 1)
    total = [(-1) ** (j // 2) * (odd if j % 2 else even)[j // 2]
             for j in range(p, -1, -1)]
    if negate:
        total = [c if i % 2 == 0 else -c for i, c in enumerate(total)]
        if p % 2:
            total = [-c for c in total]
    return total


def _lucas_v(n: int, P: int, ell: int) -> int:
    """V_n(P, 1) mod ell, V_0 = 2, V_1 = P, V_(k+1) = P V_k - V_(k-1), by the
    Lucas ladder on (V_k, V_(k+1)): V_2k = V_k^2 - 2, V_(2k+1) = V_k V_(k+1) - P
    (Crandall & Pomerance, Prime Numbers, Ch. 3)."""
    v, w = 2, P % ell
    for bit in bin(n)[2:]:
        if bit == "1":
            v, w = (v * w - P) % ell, (w * w - 2) % ell
        else:
            v, w = (v * v - 2) % ell, (v * w - P) % ell
    return v


def min_poly_2cos_roots(q: int, negate: bool, ell: int) -> List[int]:
    """The p = (q - 1)/2 roots of min_poly_2cos(q, negate) mod a prime
    ell = e mod q, e = +-1, ascending. These ell are the primes that split
    in Q(zeta_q)^+ (Washington, Introduction to Cyclotomic Fields, Ch. 2).

    Proof. Take the least P >= 3 with (P^2 - 4 | ell) = e. The roots a, 1/a
    of x^2 - P x + 1 lie in F_ell when e = 1, and when e = -1 they are
    conjugate in F_(ell^2), a^ell = 1/a; either way a^(ell - e) = 1. So
    z = a^((ell - e)/q) has z^q = 1, and r = z + 1/z = V_((ell - e)/q)(P, 1).
    r = 2 exactly when z = 1, and then the next P is tried; otherwise z has
    order q, and reducing zeta_q -> z maps 2cos(2 pi k/q) = zeta_q^k +
    zeta_q^-k to V_k(r, 1) = z^k + z^-k, so f splits mod ell into the
    y - V_k(r, 1), k = 1..p, distinct as z^k + z^-k = z^j + z^-j only for
    j = +-k mod q. For negate=True the roots are the -V_k(r, 1).

    Each root is checked by Horner, and the roots for distinctness; a
    failure raises RuntimeError."""
    f = min_poly_2cos_coeffs(q, negate)[::-1]
    if ell % q not in (1, q - 1) or not is_prime(ell):
        raise ValueError(f"ell = {ell} is not a prime = +-1 mod {q}")
    e = 1 if ell % q == 1 else -1
    P = 3
    while True:
        if jacobi(P * P - 4, ell) == e:
            r = _lucas_v((ell - e) // q, P, ell)
            if r != 2:
                break
        P += 1
    roots, prev, cur = [], 2, r
    for _ in range(len(f) - 1):
        roots.append(-cur % ell if negate else cur)
        prev, cur = cur, (r * cur - prev) % ell
    for t in roots:
        v = 0
        for c in f:
            v = (v * t + c) % ell
        if v:
            raise RuntimeError(f"{t} is not a root of min_poly_2cos({q}) "
                               f"mod {ell}")
    if len(set(roots)) != len(roots):
        raise RuntimeError(f"repeated root of min_poly_2cos({q}) mod {ell}")
    return sorted(roots)


def _compose_power(a: List[int], e: int) -> List[int]:
    """a(x^e), ascending integer coefficients."""
    out = [0] * ((len(a) - 1) * e + 1)
    out[::e] = a
    return out


def _cyclotomic(d: int) -> List[int]:
    """Phi_d, ascending, by exact division: Phi_nr(x) = Phi_n(x^r) / Phi_n(x)
    for a prime r not dividing n, and Phi_d(x) = Phi_s(x^(d/s)) for s the
    product of the primes dividing d."""
    phi, s = [-1, 1], 1
    for r in prime_factors(d):
        phi, s = pdivmod(_compose_power(phi, r), phi)[0], s * r
    return _compose_power(phi, d // s)


def _psi(d: int) -> List[int]:
    """Psi_d, the minimal polynomial of 2cos(2*pi/d) for d >= 1, ascending:
    x - 2 and x + 2 for d = 1, 2, and of degree phi(d)/2 for d >= 3, where
    it is read off the cyclotomic polynomial by Phi_d(z) = z^h Psi_d(z + 1/z),
    h = phi(d)/2. With c_i the coefficient of z^(h+i) of the palindromic
    Phi_d, Psi_d = c_0 + sum c_i D_i(y), where D_i(z + 1/z) = z^i + z^-i, so
    D_0 = 2, D_1 = y and D_(i+1) = y D_i - D_(i-1). For a prime d >= 5 it is
    min_poly_2cos(d, False)."""
    if d <= 2:
        return [-2, 1] if d == 1 else [2, 1]
    phi = _cyclotomic(d)
    h = (len(phi) - 1) // 2
    psi = [phi[h]] + [0] * h
    prev, cur = [2], [0, 1]
    for i in range(1, h + 1):
        for j, c in enumerate(cur):
            psi[j] += phi[h + i] * c
        nxt = [0] + cur
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    return psi


def _tau(d: int) -> int:
    """The e with -2cos(2 pi a/d) a root of Psi_e, for a prime to d."""
    if d % 2:
        return 2 * d
    return d // 2 if d % 4 == 2 else d


def min_poly_2cos_split(q: int) -> List[RationalPoly]:
    """The irreducible factors of f - 1 for the curve polynomial
    f = min_poly_2cos(q, p % 4 == 3), q = 2p + 1 with p and q prime, in
    closed form and sorted as `factor_over_Q` sorts them. With Psi_d the
    minimal polynomial of 2cos(2 pi/d) (`_psi`; D. H. Lehmer, Amer. Math.
    Monthly 40, 1933):

      p = 1 mod 4:  f - 1 = Psi_p * prod_{m | (p+1)/2} Psi_4m,
      p = 3 mod 4:  f - 1 = Psi_p * prod_{d | p+1, d > 1} Psi_tau(d),

    tau(d) = 2d for odd d, d/2 for d = 2 mod 4 and d when 4 | d.

    Proof. The indices on the right are distinct, so it is a product of
    distinct monic irreducibles, squarefree, of degree (p - 1)/2 plus
    sum_m phi(m), or plus 1 + sum_{d > 2} phi(d)/2: (p + 1)/2 either way.
    Both sides being monic of degree p, it is enough that each root of the
    right side is a root of f - 1. W_p(cos t) = sin((p + 1/2) t) / sin(t/2),
    and f(y) = W_p(y/2) for p = 1 mod 4, f(y) = -W_p(-y/2) for p = 3 mod 4.
    p = 1 mod 4, y = 2cos t: f(y) = 1 when sin((p + 1/2) t) = sin(t/2), so
    when pt is in 2 pi Z or (p + 1) t in pi (2Z + 1). The first holds at the
    roots 2cos(2 pi k/p) of Psi_p; the second at 2cos(2 pi j/(2p + 2)) for
    odd j, and as (p + 1)/2 is odd, the exact denominator of j/(2p + 2) is
    4m with m | (p + 1)/2: the roots of the Psi_4m.
    p = 3 mod 4, y = -2cos t: f(y) = 1 when sin((p + 1/2) t) = -sin(t/2),
    so when pt is in pi (2Z + 1) or (p + 1) t in 2 pi Z. The first holds at
    -2cos(pi (2k + 1)/p) = 2cos(2 pi ((p - 1)/2 - k)/p), the roots of
    Psi_p; the second at -2cos(2 pi a/d) = 2cos(2 pi (d - 2a)/(2d)) for
    d | p + 1 and a prime to d, and (d - 2a)/(2d) has exact denominator
    tau(d): the roots of the Psi_tau(d).

    `bounds.lower_bound_from_points` checks the product against f - 1
    exactly."""
    p = (q - 1) // 2
    if q < 7 or not is_prime(q) or not is_prime(p):
        raise ValueError(f"q = {q} is not 2p + 1 with p and q prime, q >= 7")
    if p % 4 == 1:
        indices = [4 * m for m in range(1, (p + 3) // 2)
                   if (p + 1) // 2 % m == 0]
    else:
        indices = [_tau(d) for d in range(2, p + 2) if (p + 1) % d == 0]
    factors = [RationalPoly(_psi(d)) for d in [p] + indices]
    factors.sort(key=lambda g: (g.deg(), g.coeffs))
    return factors


def format_poly(f: RationalPoly) -> str:
    """Canonical plain-text rendering, descending powers: x^3 - x^2 - 2x + 1."""
    if f.is_zero():
        return "0"
    parts: List[str] = []
    for i in range(f.deg(), -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xpow = "x" if i == 1 else f"x^{i}"
            body = xpow if mag == 1 else f"{mag}{xpow}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)
