"""Exact arithmetic in L = Q[x]/(f) for monic irreducible integral f.

Elements are coordinate vectors over the power basis 1, theta, ...,
theta^(deg-1). Everything is exact: norms via resultants, embedding signs via
Sturm intervals, and squareness in odd degree by one engine.

The square products of a set of classes come from an F2 matrix of quadratic
characters (homomorphisms to {+1, -1} that kill squares): residue symbols at
20 degree-one primes, real signs and Legendre symbols of norms, one column
per class. Its kernel holds every square product; the witness proves each
kernel basis product a square, so the rank is the class count minus the
kernel dimension, with no sweep over the 2^k products. `is_square` is the
one-class case: a is a square exactly when no character is -1 on it, and
then the kernel's witness is its square root.

The witness is a square root constructed by Hensel lifting an exact square
root in the residue field F_{ell^deg} of an inert prime ell, with rational
reconstruction of the coordinates, and verified by exact squaring: one
powering for the root, an extended gcd for 1/(2x) in the Newton step.
A square always carries a verified witness, and a nonsquare a character
that is -1 on it. If the precision cap is reached without a witness, the
(never-yet-observed) outcome is a SquarenessUndetermined error, not a guess.

A field finds its split primes, with the roots of f mod each, and its real
root intervals, with their Sturm chain, once, and reuses them for every
element. The split primes come from a value sieve over windows of primes:
ell has a root r < ell exactly when ell divides f(r), so one gcd of f(t)
with the window's prime product per t < max(window) finds them all, with no
Frobenius power mod ell.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, prod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .cyclosig import SignatureVector
from .f2 import MatF2, kernel_basis
from .factor import factor_over_Q
from .modpoly import (PrimePoly, divmod_monic, is_irreducible_mod_p,
                      is_squarefree_mod_p, mul, powmod, sub, xgcd)
from .polys import Frozen, RationalPoly, resultant
from .roots import RootIntervals, isolate_real_roots, sign_at
from .arith import CheckedRecord, is_prime, jacobi, primes_upto

__all__ = [
    "NumberField",
    "FieldElement",
    "SquareClassSet",
    "SquarenessUndetermined",
    "delta_class_of_factor",
    "independence_rank_mod_squares",
]

Scalar = Union[int, Fraction]


class SquarenessUndetermined(RuntimeError):
    """The squareness pipeline exhausted its precision ladder without an
    exact witness or a sound obstruction."""


class NumberField:
    def __init__(self, poly: RationalPoly) -> None:
        if poly.deg() < 2:
            raise ValueError("defining polynomial must have degree >= 2")
        if not poly.is_monic():
            raise ValueError("defining polynomial must be monic")
        if not poly.is_integral():
            raise ValueError("defining polynomial must have integer coefficients")
        _, factors = factor_over_Q(poly)
        if len(factors) != 1 or factors[0][1] != 1:
            raise ValueError("defining polynomial must be irreducible")
        self.poly = poly
        self.degree = poly.deg()
        # the split primes among the odd primes up to _ell_scanned
        self._split_primes: List[Tuple[int, List[int]]] = []
        self._ell_scanned = 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NumberField) and self.poly.coeffs == other.poly.coeffs

    def __hash__(self) -> int:
        return hash(self.poly.coeffs)

    def __repr__(self) -> str:
        return f"NumberField({self.poly})"

    @cached_property
    def root_intervals(self) -> RootIntervals:
        return isolate_real_roots(self.poly)

    @cached_property
    def _int_coeffs(self) -> Tuple[int, ...]:
        return self.poly.int_coeffs()

    def element(self, coords: Sequence[Scalar]) -> "FieldElement":
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def from_poly(self, g: RationalPoly) -> "FieldElement":
        rem = g % self.poly if g.deg() >= self.degree else g
        return self.element(list(rem.coeffs))

    def theta(self) -> "FieldElement":
        return self.element([0, 1])

    def one(self) -> "FieldElement":
        return self.element([1])

    def zero(self) -> "FieldElement":
        return self.element([])

    # -- norms and signatures ------------------------------------------------

    def norm(self, a: "FieldElement") -> Fraction:
        rep = RationalPoly(a.coords)
        if rep.deg() < 0:
            return Fraction(0)
        return resultant(self.poly, rep)

    def signature(self, a: "FieldElement") -> SignatureVector:
        if a.is_zero():
            raise ValueError("signature of zero is undefined")
        ivs = self.root_intervals
        if len(ivs) != self.degree:
            raise ValueError("field is not totally real")
        return SignatureVector(sign_at(RationalPoly(a.coords), ivs))

    # -- squareness ----------------------------------------------------------

    @staticmethod
    def _is_rational_square(x: Fraction) -> bool:
        if x < 0:
            return False
        n, d = x.numerator, x.denominator
        return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d

    def _split_prime(self, i: int) -> Tuple[int, List[int]]:
        """The i-th split prime, counting from 0: (ell, roots of f mod ell)
        for the odd primes ell not dividing disc(f) at which f has a root.
        The primes are sieved a window at a time, each window reaching
        twice as far as the last."""
        while len(self._split_primes) <= i:
            lo = self._ell_scanned
            hi = max(2 * lo, _FIRST_WINDOW)
            self._split_primes += _sieve_split_primes(self._int_coeffs, lo, hi)
            self._ell_scanned = hi
        return self._split_primes[i]

    def _degree_one_ideals(self, count: int,
                           avoid: Sequence["FieldElement"]) -> List[Tuple[int, int]]:
        """The first `count` (ell, root) pairs, by ell then root, at which
        every element of `avoid` is a unit."""
        dens = [c.denominator for a in avoid for c in a.coords]
        reps = [RationalPoly(a.coords) for a in avoid]
        out: List[Tuple[int, int]] = []
        i = 0
        while len(out) < count:
            ell, roots = self._split_prime(i)
            i += 1
            if any(d % ell == 0 for d in dens):
                continue
            for r in roots:
                if len(out) >= count:
                    break
                if all(_eval_mod(rep, r, ell) != 0 for rep in reps):
                    out.append((ell, r))
        return out

    def _residue_symbols(self, a: "FieldElement",
                         ideals: Sequence[Tuple[int, int]]) -> List[int]:
        rep = RationalPoly(a.coords)
        return [jacobi(_eval_mod(rep, r, ell), ell) for ell, r in ideals]

    @cached_property
    def _witness_prime(self) -> int:
        return self._next_witness_prime(-1)

    def _next_witness_prime(self, after: int) -> int:
        """The least prime ell = 3 mod 4 above `after` (-1 starts at 3)
        with f irreducible mod ell, so the residue field is F_{ell^deg} and,
        at odd degree, square roots there are single powerings. Every ell
        tried is 3 mod 4: the walk starts at 3 or at such a prime and steps
        by 4."""
        ell = after + 4
        while ell < 100000:
            if is_prime(ell) and is_irreducible_mod_p(PrimePoly(ell, self._int_coeffs)):
                return ell
            ell += 4
        raise SquarenessUndetermined("no inert witness prime found")

    def is_square(self, a: "FieldElement") -> Tuple[bool, Optional["FieldElement"]]:
        """True plus an exactly verified witness, or False with a quadratic
        character at which a is -1: the one-class case of the square-class
        kernel. Raises SquarenessUndetermined only if every character passes
        and reconstruction fails at the precision cap, and ValueError for
        a = 0 or an even-degree field."""
        if a.is_zero():
            raise ValueError("squareness of zero is undefined")
        kernel = _square_kernel(self, (a,))
        return (True, kernel[0][1]) if kernel else (False, None)

    def _reconstruct_root(self, a: "FieldElement") -> "FieldElement":
        """The witness step: w with w * w == a checked exactly, for an a
        whose norm is a rational square. Then d^(2p) N(a) is a square
        integer, so a is a square in F_{ell^p} at the inert prime ell, whose
        norm to F_ell is the rational norm mod ell. x = a^((ell^p + 1) / 4)
        is a square root mod ell (ell^p = 3 mod 4 at odd p), Newton's
        iteration lifts it with z = 1 / (2x) mod ell^k, and the coordinates
        are read back by rational reconstruction. Raises
        SquarenessUndetermined if none squares to a by the precision cap."""
        p = self.degree
        f = list(self._int_coeffs)
        d = 1
        for c in a.coords:
            d = d * c.denominator // gcd(d, c.denominator)
        scaled = [c * d * d for c in a.coords]
        acoeffs = [int(c) for c in scaled]
        nrm = self.norm(self.element(scaled)).numerator
        ell = self._witness_prime
        while nrm % ell == 0:
            ell = self._next_witness_prime(ell)
        am = [c % ell for c in acoeffs]
        x = powmod(am, (ell ** p + 1) // 4, f, ell)
        z = xgcd(mul([2], x, ell), f, ell)[0]  # 1 / (2x) in F_{ell^p}
        m = ell
        cap = 1 << 14
        while m.bit_length() < cap:
            mm = m * m
            amm = [c % mm for c in acoeffs]
            # Newton: x' = x - (x^2 - a) z ; z' = z (2 - 2 x' z)
            e = sub(divmod_monic(mul(x, x, mm), f, mm)[1], amm, mm)
            x = sub(x, divmod_monic(mul(e, z, mm), f, mm)[1], mm)
            tz = divmod_monic(mul(mul([2], x, mm), z, mm), f, mm)[1]
            z = divmod_monic(mul(z, sub([2], tz, mm), mm), f, mm)[1]
            m = mm
            if m.bit_length() < 192:
                continue
            cand = _rational_coords(x, m, p)
            if cand is not None:
                w = self.element([c / d for c in cand])
                if w * w == a:
                    return w
        raise SquarenessUndetermined(
            "every character passed but no witness found at precision cap")


_FIRST_WINDOW = 64  # the first sieve window is the odd primes up to this


def _sieve_split_primes(coeffs: Sequence[int], lo: int,
                        hi: int) -> List[Tuple[int, List[int]]]:
    """(ell, sorted roots of f mod ell) for the primes lo < ell <= hi, lo >= 2,
    that do not divide disc(f) and at which the monic integer polynomial f
    has a root, ascending in ell.

    A value sieve (Dedekind-Kummer: the degree-one primes over an unramified
    ell are the (ell, theta - r) with f(r) = 0 mod ell): with P the product
    of the window's primes above t, gcd(f(t), P) is the product of those ell
    of which t is a root, and each residue mod ell is met once in [0, ell).
    """
    window = [ell for ell in primes_upto(hi) if ell > lo]
    if not window:
        return []
    roots: Dict[int, List[int]] = {ell: [] for ell in window}
    rev = coeffs[::-1]
    big = prod(window)
    k = 0  # window[k:] are the primes above t, and big is their product
    for t in range(window[-1]):
        while window[k] <= t:
            big //= window[k]
            k += 1
        v = 0
        for c in rev:
            v = v * t + c
        g = gcd(v, big)
        if g == 1:
            continue
        for ell in window[k:]:
            if g % ell == 0:
                roots[ell].append(t)
                g //= ell
                if g == 1:
                    break
    return [(ell, rs) for ell, rs in roots.items()
            if rs and is_squarefree_mod_p(coeffs, ell)]  # else ell | disc(f)


def _eval_mod(rep: RationalPoly, r: int, ell: int) -> int:
    acc = 0
    for c in reversed(rep.coeffs):
        num = c.numerator % ell
        den = pow(c.denominator % ell, ell - 2, ell)
        acc = (acc * r + num * den) % ell
    return acc


def _rat_recon(c: int, m: int) -> Optional[Tuple[int, int]]:
    """num/den = c mod m with |num|, den <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
    a0, a1 = m, c % m
    x0, x1 = 0, 1
    while a1 > bound:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        x0, x1 = x1, x0 - q * x1
    if x1 == 0 or abs(x1) > bound:
        return None
    num, den = (a1, x1) if x1 > 0 else (-a1, -x1)
    if gcd(abs(num), den) != 1:
        return None
    return num, den


def _rational_coords(x: List[int], m: int, p: int) -> Optional[List[Fraction]]:
    out = []
    for i in range(p):
        c = x[i] if i < len(x) else 0
        rc = _rat_recon(c, m)
        if rc is None:
            return None
        out.append(Fraction(rc[0], rc[1]))
    return out


class FieldElement(Frozen):
    __slots__ = ("field", "coords")
    field: NumberField
    coords: Tuple[Fraction, ...]

    def __init__(self, field: NumberField, coords: Tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FieldElement:
            return NotImplemented
        return (self.field, self.coords) == (other.field, other.coords)

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def __repr__(self) -> str:
        return f"FieldElement(field={self.field!r}, coords={self.coords!r})"

    def __reduce__(self):
        return FieldElement, (self.field, self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _coerce(self, other: Union["FieldElement", Scalar]) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.element([Fraction(other)])

    def __add__(self, other: Union["FieldElement", Scalar]) -> "FieldElement":
        o = self._coerce(other)
        return FieldElement(self.field,
                            tuple(a + b for a, b in zip(self.coords, o.coords)))

    def __radd__(self, other: Scalar) -> "FieldElement":
        return self.__add__(other)

    def __sub__(self, other: Union["FieldElement", Scalar]) -> "FieldElement":
        o = self._coerce(other)
        return FieldElement(self.field,
                            tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other: Scalar) -> "FieldElement":
        return (-self).__add__(other)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-c for c in self.coords))

    def __mul__(self, other: Union["FieldElement", Scalar]) -> "FieldElement":
        if not isinstance(other, FieldElement):
            c = Fraction(other)
            return FieldElement(self.field, tuple(a * c for a in self.coords))
        o = self._coerce(other)
        prod = RationalPoly(self.coords) * RationalPoly(o.coords)
        return self.field.from_poly(prod)

    def __rmul__(self, other: Scalar) -> "FieldElement":
        return self.__mul__(other)


class _SquareClassSet(NamedTuple):
    field: NumberField
    representatives: Tuple[FieldElement, ...]


class SquareClassSet(CheckedRecord, _SquareClassSet):
    __slots__ = ()

    def __new__(cls, field: NumberField,
                representatives: Tuple[FieldElement, ...]) -> "SquareClassSet":
        for a in representatives:
            if a.is_zero():
                raise ValueError("square class representatives must be nonzero")
            if a.field != field:
                raise ValueError("representative from a different field")
        return super().__new__(cls, field, representatives)


def independence_rank_mod_squares(classes: SquareClassSet) -> int:
    """Dimension of the subgroup of L*/(L*)^2 generated by the
    representatives, for an odd-degree field: their count minus the
    dimension of the square products among them."""
    reps = classes.representatives
    return len(reps) - len(_square_kernel(classes.field, reps))


def _square_kernel(field: NumberField, reps: Sequence[FieldElement]
                   ) -> List[Tuple[int, FieldElement]]:
    """A basis of the products of `reps` that are squares in L, each as
    (mask, w): bit i of mask selects reps[i], and w * w is the product.

    A quadratic character, a homomorphism L* -> {+1, -1}, kills squares, so
    every product of classes that is a square lies in the kernel of the F2
    matrix with one column per class and one row per character: the residue
    symbols at 20 degree-one primes, the real signs when the field is totally
    real, and Legendre symbols of the norms at primes found on demand. While
    a kernel basis product has a norm that is not a rational square, a prime
    at which that norm is a nonresidue adds a row and the kernel shrinks.
    Then each basis product is proved a square by the witness, so the kernel
    is exactly the set of square products."""
    k = len(reps)
    if k == 0:
        return []
    if field.degree % 2 == 0:
        # the witness square root x = a^((ell^deg + 1) / 4) needs
        # ell^deg = 3 mod 4, which fails for every ell at even degree
        raise ValueError(f"squareness needs an odd-degree field, got "
                         f"degree {field.degree}")
    ideals = field._degree_one_ideals(20, reps)
    columns = [field._residue_symbols(a, ideals) for a in reps]
    if len(field.root_intervals) == field.degree:
        columns = [sym + list(field.signature(a).signs)
                   for sym, a in zip(columns, reps)]
    rows = [sum(1 << i for i, col in enumerate(columns) if col[r] < 0)
            for r in range(len(columns[0]))]
    # n/d and n*d have the same Legendre symbols, and n*d is an integer
    norms = [n.numerator * n.denominator for n in map(field.norm, reps)]
    while True:
        kernel = [v.bits for v in kernel_basis(MatF2(len(rows), k, tuple(rows)))]
        kernel_norms = (prod(norms[i] for i in range(k) if m >> i & 1)
                        for m in kernel)
        nonsquare = next((n for n in kernel_norms
                          if not NumberField._is_rational_square(n)), None)
        if nonsquare is None:
            break
        ell = _nonresidue_prime(nonsquare, norms)
        rows.append(sum(1 << i for i, n in enumerate(norms)
                        if jacobi(n, ell) < 0))
    out = []
    for mask in kernel:
        w = prod((reps[i] for i in range(k) if mask >> i & 1), start=field.one())
        out.append((mask, field._reconstruct_root(w)))
    return out


def _nonresidue_prime(n: int, units: Sequence[int]) -> int:
    """The least odd prime ell dividing none of `units` with n a nonresidue
    mod ell. A nonsquare n is a nonresidue at infinitely many primes
    (quadratic reciprocity and Dirichlet), so the search ends."""
    ell = 3
    while True:
        if is_prime(ell) and all(u % ell for u in units) and jacobi(n, ell) < 0:
            return ell
        ell += 2


def delta_class_of_factor(g: RationalPoly, y0: Fraction,
                          field: NumberField) -> FieldElement:
    """The square class (-1)^deg(g) g(theta) attached to an irreducible
    factor g of f - y0^2."""
    if g.deg() < 1 or g.deg() > field.degree:
        raise ValueError("factor degree out of range")
    shifted = field.poly - RationalPoly([Fraction(y0) * Fraction(y0)])
    if (shifted % g).deg() >= 0:
        raise ValueError("g does not divide f - y0^2")
    elem = field.from_poly(g)
    if elem.is_zero():
        raise ValueError("g shares a root with the defining polynomial")
    if g.deg() % 2 == 1:
        elem = -elem
    return elem
