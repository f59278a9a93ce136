"""Rank bound pipelines for the two shipped curve families.

Both families are curves y^2 = f(x) whose Jacobian rank is squeezed between a
constructive lower bound (independent square classes built from a rational
point) and a certified upper bound (genus + class-group 2-rank, valid once two
certificates are in hand):

  * G-triviality: at every bad prime v, f stays irreducible over Q_v, so the
    local contribution to the descent group collapses;
  * rho_infty = 0: every totally positive unit is a square, certified either
    through unit signatures (simplest cubics), inertness of 2 in the real
    cyclotomic field, a signature-matrix certificate, or assumed from the
    Davis-Taussky conjecture (flagged as conditional).

For the simplest cubics both certificates are theorems for the whole family,
proved once in their docstrings: f_m(0) = 1 and f_m(1) = -1 place one real
root in each of (-inf, 0), (0, 1) and (1, inf), which fixes the unit
signatures and leaves f_m without a root mod 2, and the shift identity
27 f_m(x - m/3) = 27 x^3 - 9 D x + D (2m + 3) gives Eisenstein at every
v | D. Per m they only factor D once, which also shows whether it is
square-free (`washington_bad_primes`); no number field is built and no F2
span is taken. The Sophie Germain local certificate likewise checks only
the modulus.

Lower bounds take odd-degree f. Class-group 2-ranks are external inputs
carried by a ClassGroupStore.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple, \
    Union

# used qualified, so the washington route never runs these modules
from . import cyclosig, factor, numberfield, polys
from .arith import is_prime, order_dividing, squarefree_prime_factors
from .stores import ClassGroupStore

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BoundReport",
    "GTrivialityCertificate",
    "curve_min_poly",
    "lower_bound_from_points",
    "sophie_local_certificate",
    "sophie_upper_bound",
    "two_inert_in_real_cyclotomic",
    "washington_bad_primes",
    "washington_bound",
    "washington_local_certificate",
    "washington_rho_certificate",
]


class GTrivialityCertificate(NamedTuple):
    """Per-prime evidence that f is irreducible over Q_v for every bad v."""
    bad_primes: Tuple[int, ...]
    evidence: Tuple[Tuple[int, str], ...]


class BoundReport(NamedTuple):
    curve: str
    genus: int
    rho_infty: str  # "0" or "unk"
    j_infty_bound: int
    cl2_used: int
    cl2_source: str
    g_kernel_dim: int
    upper_bound: int
    lower_bound: Optional[int]
    hypotheses: Tuple[str, ...]

    def line(self) -> str:
        parts = [f"curve={self.curve}", f"g={self.genus}",
                 f"rho_inf={self.rho_infty}", f"cl2={self.cl2_used}",
                 f"upper={self.upper_bound}"]
        if self.lower_bound is not None:
            parts.append(f"lower={self.lower_bound}")
        parts.append(f"hyps={','.join(self.hypotheses) or 'none'}")
        return " ".join(parts)

    def describe(self) -> str:
        lines = [self.line(),
                 f"  genus {self.genus}, j_infty term <= {self.j_infty_bound},"
                 f" kernel term {self.g_kernel_dim}",
                 f"  class-group 2-rank {self.cl2_used} (source: {self.cl2_source})"]
        if self.hypotheses:
            lines.append("  conditional on: " + ", ".join(self.hypotheses))
        else:
            lines.append("  upper bound is unconditional")
        if self.lower_bound is not None:
            lines.append(f"  constructive lower bound {self.lower_bound}")
        return "\n".join(lines)


# -- Washington's simplest cubic family -------------------------------------


def _washington_coeffs(m: int) -> Tuple[int, int, int, int]:
    """Ascending integer coefficients of f_m."""
    return (1, -(m + 3), m, 1)


@lru_cache(maxsize=1)
def washington_bad_primes(m: int) -> Optional[Tuple[int, ...]]:
    """The primes of D = m^2 + 3m + 9, ascending, when D is square-free, as
    it is for every m of the family; None otherwise. The last m is kept, so
    the family test of `washington` and both certificates of that m share
    one factorization."""
    bad = squarefree_prime_factors(m * m + 3 * m + 9)
    return None if bad is None else tuple(bad)


def _family_primes(m: int) -> Tuple[int, ...]:
    bad = washington_bad_primes(m)
    if bad is None:
        raise ValueError(f"outside family: D = {m * m + 3 * m + 9} "
                         f"is not square-free for m = {m}")
    return bad


def washington_local_certificate(m: int) -> GTrivialityCertificate:
    """Irreducibility of f_m over Q_v at every bad v, which are 2 and the
    primes of D = m^2 + 3m + 9; ValueError when D is not square-free. The
    evidence is a theorem for every such m, so nothing is recomputed:

    - 2-adic: from the coefficients (1, -(m+3), m, 1), f_m(0) = 1 and
      f_m(1) = -1 are odd, so the cubic f_m has no root mod 2 and is
      irreducible there.
    - Shift: 27 f_m(x - m/3) = 27 x^3 - 9 D x + D (2m + 3). Each
      coefficient of the difference is a polynomial in m of degree <= 3,
      and the tests check m = 0..39, so the identity holds by interpolation.
    - Eisenstein at v | D: D = m(m+3) + 9 is odd, and 3 | D forces 3 | m
      and then 9 | D, so v does not divide 27 but divides 9D and
      D(2m + 3); v^2 | D(2m + 3) would need v | 2m + 3, so v would divide
      (2m + 3)^2 - 4D = -27, and v = 3 does not divide D."""
    bad = _family_primes(m)
    return GTrivialityCertificate(
        (2,) + bad,
        ((2, "irreducible-mod-p"),)
        + tuple((v, "eisenstein-after-shift") for v in bad))


def washington_rho_certificate(m: int) -> None:
    """rho_infty = 0 for L_m when D is square-free (ValueError otherwise):
    the signatures of the three conjugate root units theta, 1/(1-theta),
    1-1/theta span F_2^3, so every totally positive unit is a square.
    Returns None: the certificate is the theorem below, and a call only
    checks that m is in the family.

    The signs hold for every m. From the coefficients, f_m(0) = 1 and
    f_m(1) = -1, so the monic cubic f_m has one real root r in each of
    (-inf, 0), (0, 1) and (1, inf); N(theta) = -f(0) and
    N(1 - theta) = f(1) make theta and 1 - theta units. At r, theta has
    the sign of r, 1/(1-theta) the sign of 1 - r, and
    1 - 1/theta = (theta - 1)/theta the sign of (r - 1) r. At the
    ascending roots that gives (-,+,+), (+,+,-) and (+,-,+): with a bit
    for each negative sign, e_1, e_3 and e_2."""
    _family_primes(m)


def washington_bound(m: int, oracle: ClassGroupStore) -> BoundReport:
    """Upper bound 1 + cl2(L_m), certified by the local and signature
    certificates; the curve has genus 1 and trivial rational 2-torsion."""
    washington_local_certificate(m)
    washington_rho_certificate(m)
    rec = oracle.get(_washington_coeffs(m))
    if rec is None:
        raise LookupError(f"class group unknown for cubic-m{m} (degree 3)")
    return BoundReport(curve=f"cubic-m{m}", genus=1, rho_infty="0",
                       j_infty_bound=1, cl2_used=rec.cl2_rank,
                       cl2_source=rec.source, g_kernel_dim=0,
                       upper_bound=1 + rec.cl2_rank, lower_bound=None,
                       hypotheses=())


# -- Sophie Germain cyclotomic family ----------------------------------------


def two_inert_in_real_cyclotomic(p: int) -> bool:
    """True iff 2 is inert in the degree-(p-1)/2 real cyclotomic field,
    i.e. the order of 2 in (Z/p)^x modulo {+-1} equals (p-1)/2."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if p == 3:
        return True  # degree-one field
    order = order_dividing(2, p, p - 1)
    if order % 2 == 0 and pow(2, order // 2, p) == p - 1:
        order //= 2  # -1 lies in <2>, halving the order in the quotient
    return order == (p - 1) // 2


def _sophie_p(q: int) -> int:
    """p = (q - 1)/2 for a Sophie Germain modulus q; ValueError otherwise."""
    p, r = divmod(q - 1, 2)
    if q < 7 or r != 0 or not is_prime(q) or not is_prime(p):
        raise ValueError(f"q = {q} is not a Sophie Germain modulus "
                         "(need q and (q-1)/2 both prime, q >= 7)")
    return p


@lru_cache(maxsize=1)
def curve_min_poly(q: int) -> polys.RationalPoly:
    """Defining polynomial with constant term +1, so (0,1) is on the curve.
    The last q is kept, so the store key of `sophie_upper_bound` and the
    lower bound of the same q share one polynomial."""
    return polys.min_poly_2cos(q, _sophie_p(q) % 4 == 3)


def sophie_local_certificate(q: int) -> GTrivialityCertificate:
    """Bad primes are 2 and q, for a Sophie Germain modulus q = 2p + 1
    (ValueError otherwise). 2 is inert: its order mod q divides q - 1 = 2p,
    and for q >= 7 neither 2 nor 4 is 1 mod q, so the order is p or 2p.
    q is totally ramified in the cyclotomic field."""
    _sophie_p(q)
    return GTrivialityCertificate(
        (2, q),
        ((2, "inert-by-order"), (q, "totally-ramified-cyclotomic")))


def sophie_upper_bound(q: int, oracle: ClassGroupStore,
                       assume_davis_taussky: bool = False,
                       scan_bound: int = 92459) -> BoundReport:
    """Upper bound for the genus-(p-1)/2 curve y^2 = f(x).

    With rho_infty = 0 in hand (Davis-Taussky assumed, 2 inert in the real
    cyclotomic field, or the signature-matrix certificate for q within
    scan_bound), the bound is g + cl2 (g alone under Davis-Taussky, since the
    conjecture forces an odd class number). Otherwise the fallback
    rho_infty + j_infty <= p - 1 applies on top of the narrow 2-rank."""
    p = _sophie_p(q)
    g = (p - 1) // 2
    sophie_local_certificate(q)

    if assume_davis_taussky:
        return BoundReport(curve=f"cyclo-q{q}", genus=g, rho_infty="0",
                           j_infty_bound=g, cl2_used=0,
                           cl2_source="davis-taussky", g_kernel_dim=0,
                           upper_bound=g, lower_bound=None,
                           hypotheses=("davis-taussky-assumed",))

    rho_zero = False
    hyp: Tuple[str, ...] = ()
    if two_inert_in_real_cyclotomic(p):
        rho_zero = True
        hyp = ("2-inert-in-real-cyclotomic",)
    elif q <= scan_bound and cyclosig.certify_rho_infty(
            cyclosig.SophieGermainPair(p, q)).rho_infty_zero:
        rho_zero = True
        hyp = ("q-below-scan-bound",)

    # the key is f itself, O(p^2) bits, so it is built only here and the
    # message names the curve instead
    rec = oracle.get(curve_min_poly(q).int_coeffs())
    if rec is None:
        raise LookupError(f"class group unknown for cyclo-q{q} (degree {p})")

    if rho_zero:
        # rho_infty = 0 forces narrow = plain 2-rank
        return BoundReport(curve=f"cyclo-q{q}", genus=g, rho_infty="0",
                           j_infty_bound=g, cl2_used=rec.cl2_rank,
                           cl2_source=rec.source, g_kernel_dim=0,
                           upper_bound=g + rec.cl2_rank, lower_bound=None,
                           hypotheses=hyp)

    # fallback: rho_infty + j_infty <= p - 1 on top of the narrow 2-rank
    if rec.narrow_cl2_rank is not None:
        upper = (p - 1) + rec.narrow_cl2_rank
        cl2_used = rec.narrow_cl2_rank
        hyp = ()
    elif order_dividing(2, p, p - 1) % 2 == 0:
        # even order of 2 mod p makes the narrow and plain 2-ranks agree
        upper = (p - 1) + rec.cl2_rank
        cl2_used = rec.cl2_rank
        hyp = ("order-of-2-even",)
    else:
        # narrow <= rho_infty + plain <= (p-1) + plain
        upper = 2 * (p - 1) + rec.cl2_rank
        cl2_used = rec.cl2_rank
        hyp = ("narrow-data-missing",)
    return BoundReport(curve=f"cyclo-q{q}", genus=g, rho_infty="unk",
                       j_infty_bound=p - 1, cl2_used=cl2_used,
                       cl2_source=rec.source, g_kernel_dim=0,
                       upper_bound=upper, lower_bound=None, hypotheses=hyp)


# -- lower bounds from a rational point --------------------------------------


def lower_bound_from_points(f: polys.RationalPoly,
                            y0: Union[int, Fraction] = 1,
                            factors: Optional[Sequence[polys.RationalPoly]]
                            = None) -> Tuple[int, numberfield.SquareClassSet]:
    """Constructive rank lower bound from the point (x two-torsion free): the
    irreducible factors g of f - y0^2 map to square classes
    (-1)^deg(g) g(theta), and the number of independent classes bounds the
    rank from below. f must have odd degree: then the curve has one point at
    infinity, J(Q) has no 2-torsion and the descent map is injective.

    The factors are `factor_over_Q(f - y0^2)` unless given, as from a closed
    form; given factors must be monic and multiply to f - y0^2 exactly, or
    RuntimeError is raised. Any factorization over Q gives valid classes: a
    coarser one only bounds the rank less tightly. Either way each factor g
    divides f - y0^2, so g(theta) is nonzero: a common root theta of g and
    f would give 0 = f(theta) = y0^2."""
    from fractions import Fraction  # here, so the upper-bound routes skip it

    y0 = Fraction(y0)
    if y0 == 0:
        raise ValueError("y0 must be nonzero; factors of f itself would "
                         "share roots with the defining polynomial")
    field = numberfield.NumberField(f)
    if field.degree % 2 == 0:
        raise ValueError("f must have odd degree for a square-class lower "
                         f"bound, got degree {field.degree}")
    split = f - polys.RationalPoly([y0 * y0])
    if factors is None:
        try:
            factors = factor.factor_over_Q(split)
        except ValueError:  # a repeated factor
            raise ValueError("f - y0^2 must be square-free") from None
    elif not all(g.is_monic() for g in factors) \
            or prod(factors, start=polys.RationalPoly([1])) != split:
        raise RuntimeError("the given factors are not monic or do not "
                           "multiply to f - y0^2")
    classes = tuple(-a if g.deg() % 2 else a
                    for g, a in zip(factors, map(field.from_poly, factors)))
    class_set = numberfield.SquareClassSet(field, classes)
    return numberfield.independence_rank_mod_squares(class_set), class_set
