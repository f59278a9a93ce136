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

For the simplest cubics both certificates are exact integer checks in m:
f_m(0) = 1 and f_m(1) = -1 place one real root in each of (-inf, 0), (0, 1)
and (1, inf), which fixes the unit signatures and leaves f_m without a root
mod 2, and the shift identity 27 f_m(x - m/3) = 27 x^3 - 9 D x + D (2m + 3)
gives Eisenstein at every v | D. No number field is built for them.

Lower bounds take odd-degree f. Class-group 2-ranks are external inputs
carried by a ClassGroupStore.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .arith import is_prime, is_squarefree_integer, multiplicative_order, \
    prime_factors
from .cyclosig import SophieGermainPair, certify_rho_infty
from .f2 import VecF2, span_dimension
from .factor import factor_over_Q
from .numberfield import NumberField, SquareClassSet, delta_class_of_factor, \
    independence_rank_mod_squares
from .polys import RationalPoly, min_poly_2cos
from .stores import ClassGroupRecord, ClassGroupStore

__all__ = [
    "BoundReport",
    "GTrivialityCertificate",
    "curve_min_poly",
    "lower_bound_from_points",
    "sophie_local_certificate",
    "sophie_upper_bound",
    "two_inert_in_real_cyclotomic",
    "washington_bound",
    "washington_curve_poly",
    "washington_local_certificate",
    "washington_rho_certificate",
]


@dataclass(frozen=True)
class GTrivialityCertificate:
    """Per-prime evidence that f is irreducible over Q_v for every bad v."""
    bad_primes: Tuple[int, ...]
    evidence: Tuple[Tuple[int, str], ...]
    conclusion: bool


@dataclass(frozen=True)
class BoundReport:
    curve: str
    genus: int
    rho_infty: str  # "0", "pm1" (the generic p-1 bound), or "unk"
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


def washington_curve_poly(m: int) -> RationalPoly:
    """f_m = x^3 + m x^2 - (m+3) x + 1."""
    return RationalPoly(_washington_coeffs(m))


def _washington_D(m: int) -> int:
    D = m * m + 3 * m + 9
    if not is_squarefree_integer(D):
        raise ValueError(
            f"outside family: D = {D} is not square-free for m = {m}")
    return D


def _eval_int(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _shift_by_minus_third(coeffs: Sequence[int], m: int) -> List[int]:
    """27 f(x - m/3) for a cubic f, as sum_k c_k 3^(3-k) (3x - m)^k."""
    out = [0] * 4
    power = [1]  # (3x - m)^k, ascending
    for k, c in enumerate(coeffs):
        for i, a in enumerate(power):
            out[i] += c * 3 ** (3 - k) * a
        power = [3 * b - m * a for a, b in zip(power + [0], [0] + power)]
    return out


def washington_local_certificate(m: int) -> GTrivialityCertificate:
    """Irreducibility of f_m over Q_v for all bad v: at v=2, f_m(0) and
    f_m(1) are odd, so the cubic has no root mod 2 and is irreducible there;
    Eisenstein after the shift x -> x - m/3 at every v | D."""
    D = _washington_D(m)
    coeffs = _washington_coeffs(m)
    evidence: List[Tuple[int, str]] = []
    ok = _eval_int(coeffs, 0) % 2 == 1 and _eval_int(coeffs, 1) % 2 == 1
    evidence.append((2, "irreducible-mod-p"))
    # 27 f_m(x - m/3) = 27 x^3 - 9 D x + D (2m + 3); check the identity once
    const = D * (2 * m + 3)
    ok = ok and _shift_by_minus_third(coeffs, m) == [const, -9 * D, 0, 27]
    bad = prime_factors(D)
    for v in bad:
        # Eisenstein at v: v does not divide the leading 27, v divides the
        # lower coefficients, v^2 does not divide the constant term
        ok = ok and 27 % v != 0 and (9 * D) % v == 0 and const % v == 0 \
            and const % (v * v) != 0
        evidence.append((v, "eisenstein-after-shift"))
    return GTrivialityCertificate(tuple([2] + bad), tuple(evidence), ok)


def washington_rho_certificate(m: int) -> int:
    """rho_infty = 0 for L_m: the signatures of the three conjugate root
    units theta, 1/(1-theta), 1-1/theta span F_2^3, so every totally
    positive unit is a square. Returns 0; a span defect raises.

    The signs come from f_m(0) = 1 and f_m(1) = -1 alone. A monic cubic
    with these values has one real root r in each of (-inf, 0), (0, 1) and
    (1, inf); N(theta) = -f(0) and N(1 - theta) = f(1) make theta and
    1 - theta units. At r, theta has the sign of r, 1/(1-theta) the sign of
    1 - r, and 1 - 1/theta = (theta - 1)/theta the sign of (r - 1) r."""
    _washington_D(m)
    coeffs = _washington_coeffs(m)
    if _eval_int(coeffs, 0) != 1 or _eval_int(coeffs, 1) != -1:
        raise RuntimeError(f"certificate failed: f_{m}(0) != 1 or "
                           f"f_{m}(1) != -1")
    # (sign of r, sign of 1 - r) at the ascending roots
    roots = ((-1, 1), (1, 1), (1, -1))
    conjugates = ([s for s, _ in roots], [t for _, t in roots],
                  [-t * s for s, t in roots])
    vecs = [VecF2.from_bits(s < 0 for s in signs) for signs in conjugates]
    if span_dimension(vecs) != 3:
        raise RuntimeError(f"certificate failed: unit signatures of L_{m} "
                           "do not span the full sign space")
    return 0


def washington_bound(m: int, oracle: ClassGroupStore) -> BoundReport:
    """Upper bound 1 + cl2(L_m), certified by the local and signature
    certificates; the curve has genus 1 and trivial rational 2-torsion."""
    local = washington_local_certificate(m)
    if not local.conclusion:
        raise RuntimeError(f"local certificate failed for m = {m}")
    washington_rho_certificate(m)
    key = washington_curve_poly(m).int_coeffs()
    rec = oracle.get(key)
    if rec is None:
        raise LookupError("class group unknown for poly="
                          + ",".join(str(c) for c in key))
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
    order = multiplicative_order(2, p)
    if order % 2 == 0 and pow(2, order // 2, p) == p - 1:
        order //= 2  # -1 lies in <2>, halving the order in the quotient
    return order == (p - 1) // 2


def _sophie_pair(q: int) -> SophieGermainPair:
    p, r = divmod(q - 1, 2)
    if q < 7 or r != 0 or not is_prime(q) or not is_prime(p):
        raise ValueError(f"q = {q} is not a Sophie Germain modulus "
                         "(need q and (q-1)/2 both prime, q >= 7)")
    return SophieGermainPair(p, q)


def curve_min_poly(q: int) -> RationalPoly:
    """Defining polynomial with constant term +1, so (0,1) is on the curve."""
    pair = _sophie_pair(q)
    return min_poly_2cos(q, pair.p % 4 == 3)


def sophie_local_certificate(q: int) -> GTrivialityCertificate:
    """Bad primes are 2 and q: 2 is inert because its order mod q is q-1 or
    (q-1)/2, and q is totally ramified in the cyclotomic field."""
    pair = _sophie_pair(q)
    order = multiplicative_order(2, q)
    ok = order in (q - 1, (q - 1) // 2)
    if not ok:
        raise RuntimeError(f"order of 2 mod {q} is {order}; the inertness "
                           "condition failed for a Sophie Germain modulus")
    return GTrivialityCertificate(
        (2, q),
        ((2, "inert-by-order"), (q, "totally-ramified-cyclotomic")),
        True)


def sophie_upper_bound(q: int, oracle: ClassGroupStore,
                       assume_davis_taussky: bool = False,
                       scan_bound: int = 92459) -> BoundReport:
    """Upper bound for the genus-(p-1)/2 curve y^2 = f(x).

    With rho_infty = 0 in hand (Davis-Taussky assumed, 2 inert in the real
    cyclotomic field, or the signature-matrix certificate for q within
    scan_bound), the bound is g + cl2 (g alone under Davis-Taussky, since the
    conjecture forces an odd class number). Otherwise the fallback
    rho_infty + j_infty <= p - 1 applies on top of the narrow 2-rank."""
    pair = _sophie_pair(q)
    p = pair.p
    g = pair.genus
    sophie_local_certificate(q)
    key = curve_min_poly(q).int_coeffs()

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
    elif q <= scan_bound and certify_rho_infty(pair).rho_infty_zero:
        rho_zero = True
        hyp = ("q-below-scan-bound",)

    rec = oracle.get(key)
    if rec is None:
        raise LookupError("class group unknown for poly="
                          + ",".join(str(c) for c in key))

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
    elif multiplicative_order(2, p) % 2 == 0:
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


def lower_bound_from_points(f: RationalPoly,
                            y0: Fraction = Fraction(1)
                            ) -> Tuple[int, SquareClassSet]:
    """Constructive rank lower bound from the point (x two-torsion free): the
    irreducible factors g of f - y0^2 map to square classes
    (-1)^deg(g) g(theta), and the number of independent classes bounds the
    rank from below. f must have odd degree: then the curve has one point at
    infinity, J(Q) has no 2-torsion and the descent map is injective."""
    y0 = Fraction(y0)
    if y0 == 0:
        raise ValueError("y0 must be nonzero; factors of f itself would "
                         "share roots with the defining polynomial")
    field = NumberField(f)
    if field.degree % 2 == 0:
        raise ValueError("f must have odd degree for a square-class lower "
                         f"bound, got degree {field.degree}")
    split = f - RationalPoly([y0 * y0])
    _, factors = factor_over_Q(split)
    if any(mult > 1 for _, mult in factors):
        raise ValueError("f - y0^2 must be square-free")
    classes = tuple(delta_class_of_factor(g, y0, field) for g, _ in factors)
    class_set = SquareClassSet(field, classes)
    return independence_rank_mod_squares(class_set), class_set
