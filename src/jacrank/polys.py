"""Dense univariate polynomials over Q with exact coefficients.

Coefficients are stored ascending as Fractions with trailing zeros trimmed,
so the zero polynomial has an empty coefficient tuple and deg() == -1.
Resultants use the integer subresultant remainder sequence after clearing
denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Sequence, Tuple

from .arith import is_prime

__all__ = [
    "RationalPoly",
    "monic_gcd",
    "prem",
    "resultant",
    "min_poly_2cos",
    "format_poly",
]


@dataclass(frozen=True)
class RationalPoly:
    coeffs: Tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RationalPoly(out)

    def scale(self, c) -> "RationalPoly":
        c = Fraction(c)
        return RationalPoly([c * a for a in self.coeffs])

    def divmod(self, other: "RationalPoly") -> Tuple["RationalPoly", "RationalPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.deg()
        lead = other.coeffs[-1]
        if len(rem) <= dn:
            return RationalPoly([]), self
        quot = [Fraction(0)] * (len(rem) - dn)
        for k in range(len(rem) - dn - 1, -1, -1):
            c = rem[k + dn] / lead
            if c:
                quot[k] = c
                for j in range(dn + 1):
                    rem[k + j] -= c * other.coeffs[j]
        return RationalPoly(quot), RationalPoly(rem)

    def __mod__(self, other: "RationalPoly") -> "RationalPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "RationalPoly":
        return RationalPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "RationalPoly":
        return self.scale(1 / self.lc())

    def primitive(self) -> Tuple[Fraction, "RationalPoly"]:
        """content * primitive-part factorization; primitive part has integer
        coefficients, positive leading coefficient, and coefficient gcd 1."""
        if self.is_zero():
            return Fraction(0), self
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
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


def monic_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """Monic gcd over Q by Euclid's algorithm; zero when a and b are zero."""
    while b.deg() >= 0:
        a, b = b, a % b
    if a.deg() < 0:
        return a
    return a.monic()


def prem(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Pseudo-remainder of integer polynomials with deg a >= deg b: the
    remainder of lc(b)^(deg a - deg b + 1) * a on division by b. Every
    division step is exact over Z thanks to the pre-scaling."""
    db = len(b) - 1
    lb = b[-1]
    d = len(a) - len(b)
    r = [v * lb ** (d + 1) for v in a]
    for k in range(d, -1, -1):
        c, rem = divmod(r[k + db], lb)
        assert rem == 0
        if c:
            for j in range(db + 1):
                r[k + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _int_resultant(a: List[int], b: List[int]) -> int:
    """Resultant of two nonzero integer polynomials (ascending coefficients)
    via the subresultant pseudo-remainder sequence."""
    if len(a) < len(b):
        sign = -1 if ((len(a) - 1) * (len(b) - 1)) % 2 else 1
        return sign * _int_resultant(b, a)
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    g = h = 1
    s = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        d = da - db
        if (da % 2) and (db % 2):
            s = -s
        r = prem(a, b)
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
    m, n = f.deg(), g.deg()
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    cf, pf = f.primitive()
    cg, pg = g.primitive()
    base = _int_resultant(pf.int_coeffs(), pg.int_coeffs())
    return cf**n * cg**m * base


def min_poly_2cos(q: int, negate: bool) -> RationalPoly:
    """Minimal polynomial of 2cos(2*pi/q) for prime q >= 5, degree (q-1)/2;
    with negate=True, of -2cos(2*pi/q).

    Built from the recurrence V0 = 2, V1 = y, V_{n+1} = y*Vn - V_{n-1}
    (so Vn(2cos t) = 2cos nt) and P(y) = 1 + sum_{n=1..p} Vn(y), whose roots
    are exactly the p distinct values 2cos(2*pi*k/q).
    """
    if q < 5 or not is_prime(q):
        raise ValueError(f"q must be a prime >= 5, got {q}")
    p = (q - 1) // 2
    v_prev = [2]
    v_cur = [0, 1]
    total = [1, 1]  # 1 + V1
    for _ in range(2, p + 1):
        v_next = [0] + v_cur
        for i, c in enumerate(v_prev):
            v_next[i] -= c
        v_prev, v_cur = v_cur, v_next
        for i, c in enumerate(v_cur):
            while len(total) <= i:
                total.append(0)
            total[i] += c
    if negate:
        total = [c if i % 2 == 0 else -c for i, c in enumerate(total)]
        if p % 2:
            total = [-c for c in total]
    return RationalPoly(total)


def format_poly(f: RationalPoly, var: str = "x") -> str:
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
            xpow = var if i == 1 else f"{var}^{i}"
            body = xpow if mag == 1 else f"{mag}{xpow}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)
