"""Exact arithmetic in L = Q[x]/(f) for monic irreducible integral f.

Elements are coordinate vectors over the power basis 1, theta, ...,
theta^(deg-1). Everything is exact: norms via resultants, embedding signs via
Sturm intervals, and square classes in odd degree by quadratic characters.
f is proved irreducible by factoring it over Q.

The rank of a set of k classes comes from an F2 matrix of quadratic
characters (homomorphisms L*/L*^2 -> F2, so they kill squares): residue
symbols at k + 20 degree-one primes, then Legendre symbols of norms, one
column per class. Every square product of classes lies in its kernel, so k
minus the kernel dimension is a proved lower bound on the dimension of the
span; the characters are the whole certificate, with no square root taken.
`is_square` is the one-class case: a is a square exactly when no character
is -1 on it, and then the square root is constructed and verified.

That square root, the witness, is constructed by Hensel lifting an exact
square root in the residue field F_{ell^deg} of any inert odd prime ell,
with rational reconstruction of the coordinates, and verified by exact
squaring: Tonelli-Shanks for the root (one powering when ell^deg = 3 mod 4),
an extended gcd for 1/(2x) in the Newton step. If the precision cap is
reached without a witness, the (never-yet-observed) outcome is a
SquarenessUndetermined error, not a guess. The tests use it to prove that
each kernel basis product is a square, so that the character rank is the
dimension of the span on the fields they cover.

A field finds its split primes, with the roots of f mod each, once, and
reuses them for every element. One walk takes the odd primes ell in
ascending order, with the roots the t < ell at which ell divides f(t), no
Frobenius power mod ell, and keeps those with a root at which f is
squarefree mod ell.
"""

from __future__ import annotations

import operator
from functools import cached_property
from math import gcd, isqrt, prod
from typing import (TYPE_CHECKING, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

# used qualified: a lazy module's body runs only when a route reaches it
from . import factor, modpoly
from .f2 import kernel_basis
from .polys import (Frozen, RationalPoly, clear_denominators, int_resultant,
                    pdivmod, rational)
from .arith import CheckedRecord, is_prime, jacobi

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "NumberField",
    "FieldElement",
    "SquareClassSet",
    "SquarenessUndetermined",
    "independence_rank_mod_squares",
]

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
        try:
            irreducible = len(factor.factor_over_Q(poly)) == 1
        except ValueError:  # a repeated factor
            irreducible = False
        if not irreducible:
            raise ValueError("defining polynomial must be irreducible")
        self.poly = poly
        self.degree = poly.deg()
        # the split primes found so far, and the walk that finds the next
        self._split_primes: List[Tuple[int, List[int]]] = []
        self._walk = _value_split_primes(poly)

    def __reduce__(self):
        # the walk, a generator, cannot be copied: rebuild from poly
        return NumberField, (self.poly,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NumberField) and self.poly.coeffs == other.poly.coeffs

    def __hash__(self) -> int:
        return hash(self.poly.coeffs)

    def __repr__(self) -> str:
        return f"NumberField({self.poly})"

    @cached_property
    def _int_coeffs(self) -> Tuple[int, ...]:
        return self.poly.int_coeffs()

    def element(self, coords: Sequence[Union[int, Fraction]]) -> "FieldElement":
        """The element with these power-basis coordinates, each in the
        canonical form of `polys.rational`, padded with zeros."""
        cs = [c if c.__class__ is int else rational(c) for c in coords]
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs += [0] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def from_poly(self, g: RationalPoly) -> "FieldElement":
        """g(theta): with g = G/d, G integral, the remainder of G on division
        by the monic integral f, over d."""
        if g.deg() < self.degree:
            return self.element(g.coeffs)
        d, gs = clear_denominators(g.coeffs)
        return self.element([rational(c, d)
                             for c in pdivmod(gs, self._int_coeffs)[1]])

    # -- norms and signatures ------------------------------------------------

    def norm(self, a: "FieldElement") -> Union[int, Fraction]:
        """Res(f, a) for monic f: with a = A/d, A integral, Res(f, A)/d^deg f."""
        d, cs = clear_denominators(a.coords)
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            return 0
        return rational(int_resultant(self._int_coeffs, cs), d ** self.degree)

    def signature(self, a: "FieldElement") -> Tuple[int, ...]:
        from .roots import isolate_real_roots, sign_at  # here: no route signs

        if a.is_zero():
            raise ValueError("signature of zero is undefined")
        ivs = isolate_real_roots(self.poly)
        if len(ivs) != self.degree:
            raise ValueError("field is not totally real")
        return sign_at(RationalPoly(a.coords), ivs)

    # -- squareness ----------------------------------------------------------

    @staticmethod
    def _is_rational_square(x: Union[int, Fraction]) -> bool:
        if x < 0:
            return False
        n, d = x.numerator, x.denominator
        return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d

    def _split_prime(self, i: int) -> Tuple[int, List[int]]:
        """The i-th split prime, counting from 0: (ell, roots of f mod ell)
        for the odd primes ell not dividing disc(f) at which f has a root,
        ascending in ell."""
        while len(self._split_primes) <= i:
            self._split_primes.append(next(self._walk))
        return self._split_primes[i]

    def _residue_columns(self, count: int, reps: Sequence["FieldElement"]
                         ) -> Tuple[List[Tuple[int, int]], List[int]]:
        """The first `count` degree-one ideals (ell, r), by ell then r, at
        which every element of `reps` is a unit, and one packed column per
        element: bit j is set when it is a nonresidue at ideal j. Each
        element is evaluated once at each candidate ideal.

        An element a = A/d, A integral and d its least common denominator,
        is evaluated as d A(r) mod ell: d A = d^2 a has the symbol of a. The
        primes dividing some d are skipped."""
        cleared = [clear_denominators(a.coords) for a in reps]
        ideals: List[Tuple[int, int]] = []
        columns = [0] * len(reps)
        i = 0
        while len(ideals) < count:
            ell, roots = self._split_prime(i)
            i += 1
            if any(d % ell == 0 for d, _ in cleared):
                continue
            for r in roots:
                if len(ideals) >= count:
                    break
                powers = [1]  # r^j mod ell, shared by every element
                for _ in range(self.degree - 1):
                    powers.append(powers[-1] * r % ell)
                values = [d * sum(map(operator.mul, cs, powers)) % ell
                          for d, cs in cleared]
                if 0 in values:
                    continue
                for c, v in enumerate(values):
                    if jacobi(v, ell) < 0:
                        columns[c] |= 1 << len(ideals)
                ideals.append((ell, r))
        return ideals, columns

    @cached_property
    def _witness_prime(self) -> int:
        return self._next_witness_prime(1)

    def _next_witness_prime(self, after: int) -> int:
        """The least odd prime ell above the odd `after` (1 starts at 3)
        with f irreducible mod ell, so the residue field is F_{ell^deg}. The
        walk stops below 10000: no prime is inert when Gal(f) has no
        deg-cycle, and otherwise the least one is small in practice (at most
        503 over 200 random irreducible f of degree 3 to 25)."""
        ell = after + 2
        while ell < 10000:
            if is_prime(ell) and modpoly.is_irreducible_mod_p(
                    modpoly.PrimePoly(ell, self._int_coeffs)):
                return ell
            ell += 2
        raise SquarenessUndetermined("no inert witness prime found")

    def is_square(self, a: "FieldElement") -> Tuple[bool, Optional["FieldElement"]]:
        """True plus an exactly verified witness, or False when a quadratic
        character is -1 at a: the one-class case of the character kernel.
        Raises SquarenessUndetermined only if every character passes and
        reconstruction fails at the precision cap, and ValueError for a = 0
        or an even-degree field."""
        if a.is_zero():
            raise ValueError("squareness of zero is undefined")
        if not _character_kernel(self, (a,)):
            return False, None
        return True, self._reconstruct_root(a)

    def _reconstruct_root(self, a: "FieldElement") -> "FieldElement":
        """The witness step: w with w * w == a checked exactly, for an a
        whose norm is a rational square. Then d^(2p) N(a) is a square
        integer, so a is a square in F_{ell^p} at the inert prime ell, whose
        norm to F_ell is the rational norm mod ell, nonzero unless ell
        divides every coordinate of d^2 a (Z[theta]/ell is a field).
        Tonelli-Shanks gives a square root x mod ell, Newton's iteration
        lifts it with z = 1 / (2x) mod ell^k, and the coordinates are read
        back by rational reconstruction. Raises
        SquarenessUndetermined if none squares to a by the precision cap."""
        p = self.degree
        f = list(self._int_coeffs)
        d, da = clear_denominators(a.coords)
        acoeffs = [c * d for c in da]
        ell = self._witness_prime
        while all(c % ell == 0 for c in acoeffs):
            ell = self._next_witness_prime(ell)
        x = _tonelli_shanks([c % ell for c in acoeffs], f, ell)
        # 1 / (2x) in F_{ell^p}
        z = modpoly.xgcd(modpoly.mul([2], x, ell), f, ell)[0]
        m = ell
        cap = 1 << 14
        while m.bit_length() < cap:
            mm = m * m
            amm = [c % mm for c in acoeffs]
            # Newton: x' = x - (x^2 - a) z ; z' = z (2 - 2 x' z)
            e = modpoly.sub(modpoly.mulmod(x, x, f, mm), amm, mm)
            x = modpoly.sub(x, modpoly.mulmod(e, z, f, mm), mm)
            tz = modpoly.mulmod(modpoly.mul([2], x, mm), z, f, mm)
            z = modpoly.mulmod(z, modpoly.sub([2], tz, mm), f, mm)
            m = mm
            if m.bit_length() < 192:
                continue
            cand = _rational_coords(x, m, p)
            if cand is not None:
                # the coordinates of x are d times those of w
                w = self.element([rational(n, den * d) for n, den in cand])
                if w * w == a:
                    return w
        raise SquarenessUndetermined(
            "every character passed but no witness found at precision cap")


def _value_split_primes(f: RationalPoly) -> Iterator[Tuple[int, List[int]]]:
    """The split primes of the monic integer f: (ell, sorted roots of f mod
    ell) for the odd primes ell, ascending, that do not divide disc(f) and
    at which f has a root. For monic f, ell does not divide disc(f) exactly
    when f is squarefree mod ell, which is tested only where f has a root.

    Dedekind-Kummer: the degree-one primes over an unramified ell are the
    (ell, theta - r) with f(r) = 0 mod ell, so the roots are the t < ell
    with ell | f(t), read off the values f(t), each computed once."""
    coeffs = f.int_coeffs()
    rev = coeffs[::-1]
    values: List[int] = []
    ell = 1
    while True:
        ell += 2
        for t in range(len(values), ell):
            v = 0
            for c in rev:
                v = v * t + c
            values.append(v)
        if is_prime(ell):
            roots = [t for t, v in enumerate(values) if v % ell == 0]
            if roots and modpoly.is_squarefree_mod_p(coeffs, ell):
                yield ell, roots


def _tonelli_shanks(a: List[int], f: List[int], ell: int) -> List[int]:
    """A square root of the square a in F_q = F_ell[x]/(f), f irreducible
    of odd degree. With q - 1 = 2^s Q, Q odd, r = a^((Q + 1) / 2) has
    r^2 = a t for t = a^Q, whose order is a power of 2. Each pass lowers
    that order, scaling r by b and t by b^2 for b a power of c = n^Q, n a
    nonresidue of F_ell, which stays one in F_q at odd degree. At
    q = 3 mod 4, s = 1 and t = 1: r = a^((q + 1) / 4) and no pass runs."""
    q = ell ** (len(f) - 1)
    s = ((q - 1) & (1 - q)).bit_length() - 1
    b = modpoly.powmod(a, ((q - 1) >> s) // 2, f, ell)  # a^((Q - 1) / 2)
    r = modpoly.mulmod(a, b, f, ell)
    t = modpoly.mulmod(r, b, f, ell)
    if t != [1]:
        n = next(n for n in range(2, ell) if jacobi(n, ell) < 0)
        c, m = pow(n, (q - 1) >> s, ell), s
        while t != [1]:
            i, u = 0, t
            while u != [1]:
                u, i = modpoly.mulmod(u, u, f, ell), i + 1
            b = pow(c, 1 << (m - i - 1), ell)
            c, m = b * b % ell, i
            t = [v * c % ell for v in t]
            r = [v * b % ell for v in r]
    return r


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


def _rational_coords(x: List[int], m: int, p: int
                     ) -> Optional[List[Tuple[int, int]]]:
    """(num, den) for each of the p coordinates of x mod m, or None."""
    out = []
    for i in range(p):
        c = x[i] if i < len(x) else 0
        rc = _rat_recon(c, m)
        if rc is None:
            return None
        out.append(rc)
    return out


class FieldElement(Frozen):
    __slots__ = ("field", "coords")
    field: NumberField
    coords: Tuple[Union[int, Fraction], ...]

    def __init__(self, field: NumberField,
                 coords: Tuple[Union[int, Fraction], ...]) -> None:
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

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-c for c in self.coords))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if other.__class__ is not FieldElement:
            return NotImplemented
        if other.field != self.field:
            raise ValueError("elements of different fields")
        return self.field.from_poly(RationalPoly(self.coords)
                                    * RationalPoly(other.coords))


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
    """A proved lower bound on the dimension of the subgroup of L*/(L*)^2
    generated by the representatives, for an odd-degree field: their count
    minus the dimension of the kernel of their character matrix. Each
    character is a homomorphism L*/(L*)^2 -> F2, so a product of the
    classes outside that kernel is not a square. The tests prove, with the
    witness, that the bound is the dimension on the fields they cover."""
    reps = classes.representatives
    return len(reps) - len(_character_kernel(classes.field, reps))


def _character_kernel(field: NumberField, reps: Sequence[FieldElement]
                      ) -> List[int]:
    """A basis of the kernel of the character matrix of `reps`, as masks:
    bit i of a mask selects reps[i].

    A quadratic character, a homomorphism L* -> {+1, -1}, kills squares, so
    every product of classes that is a square lies in the kernel of the F2
    matrix with one column per class and one row per character: the residue
    symbols at k + 20 degree-one primes for k classes, then Legendre symbols
    of the norms at primes found on demand. While a kernel basis product has
    a norm that is not a rational square, a prime at which that norm is a
    nonresidue adds a row and the kernel shrinks."""
    k = len(reps)
    if k == 0:
        return []
    if field.degree % 2 == 0:
        # the witness of `is_square` takes a nonresidue of F_ell for one of
        # F_{ell^deg}, which it is only at odd degree; the lower bounds need
        # odd degree anyway, for the descent map to be injective
        raise ValueError(f"squareness needs an odd-degree field, got "
                         f"degree {field.degree}")
    # bit j of columns[i] is character j at reps[i]: the residue symbols,
    # then the norm rows as they are found
    ideals, columns = field._residue_columns(k + 20, reps)
    height = len(ideals)
    # n/d and n*d have the same Legendre symbols, and n*d is an integer
    norms = [n.numerator * n.denominator for n in map(field.norm, reps)]
    while True:
        kernel = kernel_basis(columns)
        kernel_norms = (prod(norms[i] for i in range(k) if m >> i & 1)
                        for m in kernel)
        nonsquare = next((n for n in kernel_norms
                          if not NumberField._is_rational_square(n)), None)
        if nonsquare is None:
            return kernel
        ell = _nonresidue_prime(nonsquare, norms)
        for i, n in enumerate(norms):
            if jacobi(n, ell) < 0:
                columns[i] |= 1 << height
        height += 1


def _nonresidue_prime(n: int, units: Sequence[int]) -> int:
    """The least odd prime ell dividing none of `units` with n a nonresidue
    mod ell. A nonsquare n is a nonresidue at infinitely many primes
    (quadratic reciprocity and Dirichlet), so the search ends."""
    ell = 3
    while True:
        if is_prime(ell) and all(u % ell for u in units) and jacobi(n, ell) < 0:
            return ell
        ell += 2
