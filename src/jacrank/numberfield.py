"""Exact arithmetic in L = Q[x]/(f) for monic irreducible integral f.

Elements are coordinate vectors over the power basis 1, theta, ...,
theta^(deg-1). Everything is exact: norms via resultants, embedding signs via
Sturm intervals, and squareness by screen-then-witness:

  1. norm screen: norm(a) must be a rational square;
  2. residue screen: a must be a quadratic residue at degree-one prime
     ideals of >= `residue_primes` split primes away from disc(f) and the
     denominators;
  3. signature screen: a must be totally positive (totally real case);
  4. witness: a square root is constructed by Hensel lifting an exact square
     root in the residue field of an inert prime, with rational
     reconstruction of the coordinates, and verified by exact squaring.

Accepts always carry verified witnesses; rejects always carry a sound
obstruction. If the precision ladder is exhausted without either, the
(never-yet-observed) outcome is a SquarenessUndetermined error, not a guess.

A field finds its split primes, with the roots of f mod each, and its real
root intervals, with their Sturm chain, once, and reuses them for every
element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt
from typing import List, Optional, Sequence, Tuple, Union

from .cyclosig import SignatureVector
from .f2 import MatF2, rank
from .factor import factor_over_Q
from .modpoly import (PrimePoly, divmod_monic, is_irreducible_mod_p,
                      is_squarefree_mod_p, mul, powmod, roots_mod_p, sub)
from .polys import RationalPoly, resultant
from .roots import RootIntervals, isolate_real_roots, sign_at
from .arith import is_prime, jacobi

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
        if rep.deg() == 0:
            return rep.coeffs[0] ** self.degree
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
        Each prime is examined once per field."""
        while len(self._split_primes) <= i:
            ell = self._ell_scanned + 1
            while not is_prime(ell):
                ell += 1
            self._ell_scanned = ell
            if not is_squarefree_mod_p(self._int_coeffs, ell):
                continue  # ell | disc(f)
            roots = roots_mod_p(self._int_coeffs, ell)
            if roots:
                self._split_primes.append((ell, roots))
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
        with f irreducible mod ell, so the residue field is F_{ell^deg} and
        square roots there are single powerings."""
        ell = after + 4
        while ell < 100000:
            if is_prime(ell) and ell % 4 == 3 \
                    and is_irreducible_mod_p(PrimePoly(ell, self._int_coeffs)):
                return ell
            ell += 4
        raise SquarenessUndetermined("no inert witness prime found")

    def is_square(self, a: "FieldElement",
                  residue_primes: int = 20) -> Tuple[bool, Optional["FieldElement"]]:
        """True plus an exactly verified witness, or False with a sound
        obstruction behind it. Raises SquarenessUndetermined only if every
        screen passes and reconstruction fails at the precision cap."""
        if a.is_zero():
            raise ValueError("squareness of zero is undefined")
        n = self.norm(a)
        if not self._is_rational_square(n):
            return False, None
        ideals = self._degree_one_ideals(residue_primes, [a])
        if any(s < 0 for s in self._residue_symbols(a, ideals)):
            return False, None
        if len(self.root_intervals) == self.degree:
            if any(s < 0 for s in self.signature(a).signs):
                return False, None
        return self._reconstruct_root(a)

    def _reconstruct_root(self, a: "FieldElement") -> Tuple[bool, Optional["FieldElement"]]:
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
        # quadratic residue test in F_{ell^p}: exponent (ell^p - 1) / 2
        order = ell ** p - 1
        s = powmod(am, order // 2, f, ell)
        if s != [1]:
            return False, None  # nonresidue in an inert completion
        x = powmod(am, (order + 2) // 4, f, ell)
        twox = mul([2], x, ell)
        z = powmod(twox, order - 1, f, ell)
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
                    return True, w
        raise SquarenessUndetermined(
            "residue screens passed but no witness found at precision cap")


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


@dataclass(frozen=True)
class FieldElement:
    field: NumberField
    coords: Tuple[Fraction, ...]

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

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        r0, r1 = RationalPoly(self.coords), self.field.poly
        s0, s1 = RationalPoly([1]), RationalPoly([])
        while r1.deg() >= 0:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        assert r0.deg() == 0
        return self.field.from_poly(s0.scale(1 / r0.coeffs[0]))

    def __truediv__(self, other: Union["FieldElement", Scalar]) -> "FieldElement":
        o = self._coerce(other)
        return self * o.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


@dataclass(frozen=True)
class SquareClassSet:
    field: NumberField
    representatives: Tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        for a in self.representatives:
            if a.is_zero():
                raise ValueError("square class representatives must be nonzero")
            if a.field != self.field:
                raise ValueError("representative from a different field")


def independence_rank_mod_squares(classes: SquareClassSet, cap: int = 16) -> int:
    """Dimension of the subgroup of L*/(L*)^2 generated by the
    representatives: all 2^k - 1 nonempty products are tested for squareness
    (with shared norm, residue, and signature screens precomputed per class),
    and the rank is k minus the dimension of the square-product kernel."""
    field = classes.field
    reps = classes.representatives
    k = len(reps)
    if k == 0:
        return 0
    if k > cap:
        raise ValueError(f"class count {k} exceeds the sweep cap {cap}")
    norms = [field.norm(a) for a in reps]
    ideals = field._degree_one_ideals(20, reps)
    symbol_bits = []
    for a in reps:
        sym = field._residue_symbols(a, ideals)
        symbol_bits.append(sum(1 << i for i, s in enumerate(sym) if s < 0))
    totally_real = len(field.root_intervals) == field.degree
    sig_bits = [field.signature(a).psi_bits() for a in reps] if totally_real else [0] * k
    kernel_masks = []
    for mask in range(1, 1 << k):
        norm_prod = Fraction(1)
        sym = 0
        sig = 0
        for i in range(k):
            if (mask >> i) & 1:
                norm_prod *= norms[i]
                sym ^= symbol_bits[i]
                sig ^= sig_bits[i]
        if sym or sig or not NumberField._is_rational_square(norm_prod):
            continue
        prod = field.one()
        for i in range(k):
            if (mask >> i) & 1:
                prod = prod * reps[i]
        ok, _ = field.is_square(prod)
        if ok:
            kernel_masks.append(mask)
    kdim = rank(MatF2(len(kernel_masks), k, tuple(kernel_masks))) if kernel_masks else 0
    return k - kdim


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
