"""Tests for exact number field arithmetic, squareness, and delta classes.

Oracles: hand-reduced products in small fields, the resultant identity
norm(theta) = (-1)^deg f(0), multiplicativity laws on random elements,
exactly verified square witnesses, and the split primes of curve fields
from Lucas values, which `CurveField` gives the tests at large q.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import gcd, prod

import pytest

from jacrank import modpoly, numberfield
from jacrank.arith import is_prime, jacobi, primes_upto
from jacrank.bounds import curve_min_poly, lower_bound_from_points
from jacrank.cyclosig import SophieGermainPair, build_M_infty
from jacrank.f2 import MatF2, rank
from jacrank.factor import factor_over_Q
from jacrank.modpoly import (PrimePoly, divmod_monic, is_irreducible_mod_p,
                             is_squarefree_mod_p, mul, powmod, sub, xgcd)
from jacrank.numberfield import (
    NumberField,
    SquareClassSet,
    SquarenessUndetermined,
    independence_rank_mod_squares,
)
from jacrank.polys import RationalPoly, min_poly_2cos
from jacrank.roots import isolate_real_roots
from test_f2 import row_kernel_basis
from test_modpoly import root_test_polys, roots_mod_p
from test_polys import canonical

Q7 = NumberField(min_poly_2cos(7, True))            # x^3 - x^2 - 2x + 1
Q11 = NumberField(min_poly_2cos(11, False))         # x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1
F143 = NumberField(RationalPoly([1, -146, 143, 1]))  # x^3 + 143x^2 - 146x + 1


def rand_elem(field, rng, span=6):
    return field.element([Fraction(rng.randrange(-span, span + 1),
                                   rng.randrange(1, 4)) for _ in range(field.degree)])


def test_field_validation():
    with pytest.raises(ValueError):
        NumberField(RationalPoly([1, 1, 2]))  # not monic
    with pytest.raises(ValueError):
        NumberField(RationalPoly([Fraction(1, 2), 0, 1]))  # not integral
    with pytest.raises(ValueError, match="must be irreducible"):
        NumberField(RationalPoly([-1, 0, 1]))  # reducible
    with pytest.raises(ValueError, match="must be irreducible"):
        NumberField(RationalPoly([-1, -1, 1, 1]))  # (x + 1)^2 (x - 1)
    with pytest.raises(ValueError):
        NumberField(RationalPoly([3, 1]))  # degree 1
    with pytest.raises(ValueError, match="must be irreducible"):
        NumberField(RationalPoly([-1, 1, 0, 0, -1, 1]))  # (x - 1)(x^4 + 1)
    assert Q7.degree == 3 and Q11.degree == 5


def test_power_basis_reduction():
    th = Q7.element([0, 1])
    assert (th * (th * th)).coords == (Fraction(-1), Fraction(2), Fraction(1))


def test_example_product_identity():
    th = Q11.element([0, 1])
    prod = Q11.element([-3, 0, 1]) * Q11.element([-1, 1, 1]) * th
    assert prod == -Q11.element([1])


def test_norm_values():
    assert Q7.norm(-Q7.element([1])) == -1
    assert Q11.norm(-Q11.element([1])) == -1
    assert Q7.norm(Q7.element([1])) == 1
    assert F143.norm(F143.element([0, 1])) == -1  # = -f(0)
    assert Q11.norm(Q11.element([0, 1])) == -1


def test_norm_multiplicative():
    rng = random.Random(40127)
    for field in (Q7, Q11, F143):
        for _ in range(15):
            a, b = rand_elem(field, rng), rand_elem(field, rng)
            assert field.norm(a * b) == field.norm(a) * field.norm(b)
        c = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        assert field.norm(field.element([c])) == c ** field.degree


def test_coordinates_and_norms_are_canonical():
    """element, from_poly, products and norm give an int for an integral
    value and a Fraction for any other; elements built from ints and from
    equal Fractions compare and hash equal, and copy and pickle keep the
    form."""
    rng = random.Random(3131)
    for field in (Q7, Q11, F143):
        ints = field.element([rng.randrange(-6, 7)
                              for _ in range(field.degree)])
        fracs = field.element([Fraction(2 * c, 2) for c in ints.coords])
        assert ints == fracs and hash(ints) == hash(fracs)
        assert all(type(c) is int for c in fracs.coords)
        assert type(field.norm(fracs)) is int
        assert all(type(c) is int for c in (fracs * fracs).coords)
        g = RationalPoly([rng.randrange(-6, 7)
                          for _ in range(field.degree + 3)])
        assert all(type(c) is int for c in field.from_poly(g).coords)
        for _ in range(10):
            a = rand_elem(field, rng)
            values = [*a.coords, *(a * a).coords, field.norm(a),
                      *field.from_poly(RationalPoly(a.coords)
                                       * RationalPoly([0, 1])).coords]
            assert all(map(canonical, values)), a
        for a in (ints, rand_elem(field, rng)):
            for b in (copy.copy(a), copy.deepcopy(a),
                      pickle.loads(pickle.dumps(a))):
                assert b == a and hash(b) == hash(a)
                assert [type(c) for c in b.coords] == \
                    [type(c) for c in a.coords]
        zero = field.element([])
        assert zero.coords == (0,) * field.degree
        assert type(field.norm(field.element([0]))) is int


def test_signature_values():
    assert Q7.signature(Q7.element([1])) == (1, 1, 1)
    assert F143.signature(F143.element([0, 1])) == (-1, 1, 1)
    # theta here generates the q=11 field built from +(zeta+zeta^-1); its
    # sorted conjugates are (-1.92, -1.31, -0.28, 0.83, 1.68)
    assert Q11.signature(Q11.element([0, 1])) == (-1, -1, -1, 1, 1)
    assert Q11.signature(-Q11.element([0, 1])) == (1, 1, 1, -1, -1)
    with pytest.raises(ValueError):
        Q7.signature(Q7.element([]))


def test_signature_multiplicative():
    rng = random.Random(40153)
    for field in (Q7, Q11):
        for _ in range(12):
            a, b = rand_elem(field, rng), rand_elem(field, rng)
            if a.is_zero() or b.is_zero():
                continue
            sa = field.signature(a)
            sb = field.signature(b)
            sab = field.signature(a * b)
            assert sab == tuple(x * y for x, y in zip(sa, sb))


def test_signature_lifts_canonical_unit():
    """NumberField.signature of theta, the canonical unit, is the sign
    vector whose psi-image is column 0 of M_infty."""
    for p, q in [(3, 7), (5, 11), (11, 23)]:
        field = NumberField(min_poly_2cos(q, p % 4 == 1))
        signs = field.signature(field.element([0, 1]))
        column = tuple(row & 1 for row in build_M_infty(SophieGermainPair(p, q)).bits)
        assert tuple(int(s < 0) for s in signs) == column


def test_is_square_basic():
    th = Q11.element([0, 1])
    ok, w = Q11.is_square(th * th)
    assert ok and w is not None and w * w == th * th
    g2, g3 = Q11.element([-3, 0, 1]), Q11.element([-1, 1, 1])
    ok, w = Q11.is_square(-th * g2)
    assert not ok and w is None
    ok, w = Q11.is_square(g2 * g3 * th * -Q11.element([1]))
    assert ok and w * w == Q11.element([1])
    ok, w = Q7.is_square(Q7.element([4]))
    assert ok and w * w == Q7.element([4])
    ok, _ = Q7.is_square(Q7.element([2]))
    assert not ok
    ok, _ = Q7.is_square(-Q7.element([1]))
    assert not ok
    with pytest.raises(ValueError):
        Q7.is_square(Q7.element([]))


def test_is_square_random_squares():
    rng = random.Random(40163)
    for field in (Q7, Q11):
        for _ in range(12):
            b = rand_elem(field, rng, span=3)
            if b.is_zero():
                continue
            a = b * b
            ok, w = field.is_square(a)
            assert ok
            assert w * w == a
            assert w == b or w == -b


def test_screens_never_reject_squares():
    # every individual screen must pass on a true square
    rng = random.Random(40177)
    for _ in range(10):
        b = rand_elem(Q11, rng, span=4)
        if b.is_zero():
            continue
        a = b * b
        n = Q11.norm(a)
        assert (n.numerator >= 0 and
                Q11._is_rational_square(n))
        assert all(s > 0 for s in Q11.signature(a))


def test_is_square_rejects_even_degree_field():
    gauss = NumberField(RationalPoly([1, 0, 1]))  # Q(i), where -1 is a square
    with pytest.raises(ValueError, match="odd-degree"):
        gauss.is_square(-gauss.element([1]))


def test_independence_rank_example():
    th = Q11.element([0, 1])
    classes = SquareClassSet(Q11, (-th, Q11.element([-3, 0, 1]),
                                   Q11.element([-1, 1, 1])))
    assert independence_rank_mod_squares(classes) == 2


def test_independence_rank_degenerate():
    one = Q11.element([1])
    assert independence_rank_mod_squares(SquareClassSet(Q11, (one,))) == 0
    th = Q7.element([0, 1])
    assert independence_rank_mod_squares(SquareClassSet(Q7, (th, th))) == 1
    with pytest.raises(ValueError):
        SquareClassSet(Q7, (Q7.element([]),))
    # a rational is a square in an odd-degree field iff it is one in Q, so
    # 2..18 span the classes of the seven primes up to 17
    assert independence_rank_mod_squares(
        SquareClassSet(Q7, tuple(Q7.element([k]) for k in range(2, 19)))) == 7
    gauss = NumberField(RationalPoly([1, 0, 1]))
    with pytest.raises(ValueError, match="odd-degree"):
        independence_rank_mod_squares(
            SquareClassSet(gauss, (gauss.element([0, 1]),)))


def test_delta_classes_example():
    # f - 1 = x (x^2 - 3)(x^2 + x - 1) on Q11: the classes are -theta and
    # the two quadratics, in the order of the factors
    th = Q11.element([0, 1])
    g2 = RationalPoly([-3, 0, 1])
    g3 = RationalPoly([-1, 1, 1])
    _, classes = lower_bound_from_points(Q11.poly)
    assert classes.representatives == (-th, Q11.from_poly(g2), Q11.from_poly(g3))


def test_delta_product_is_square():
    # product over all factors of f - y0^2 is y0^2 times a square
    for field, y0 in [(Q7, Fraction(1)), (Q11, Fraction(1))]:
        prod = field.element([1])
        for a in lower_bound_from_points(field.poly, y0)[1].representatives:
            prod = prod * a
        ok, w = field.is_square(prod)
        assert ok and w * w == prod


def test_undetermined_is_an_exception_type():
    assert issubclass(SquarenessUndetermined, RuntimeError)


def test_failed_witness_raises_undetermined(monkeypatch):
    # with no coordinates ever reconstructed, a square cannot be proved one;
    # a nonsquare is still rejected, and the rank still bounded, since
    # neither needs a witness
    monkeypatch.setattr(numberfield, "_rational_coords", lambda *args: None)
    th = Q7.element([0, 1])
    with pytest.raises(SquarenessUndetermined):
        Q7.is_square(th * th)
    assert independence_rank_mod_squares(SquareClassSet(Q7, (th, th))) == 1
    assert Q7.is_square(th) == (False, None)  # N(theta) = -1
    assert independence_rank_mod_squares(SquareClassSet(Q7, (th,))) == 1


def test_witness_walk_stops_below_ten_thousand(monkeypatch):
    """With no inert prime, as when Gal(f) has no deg-cycle, the walk tries
    each odd prime below 10000 once and then gives up."""
    field = NumberField(min_poly_2cos(7, True))
    tried = []

    def never_irreducible(fp):
        tried.append(fp.modulus)
        return False

    monkeypatch.setattr(modpoly, "is_irreducible_mod_p", never_irreducible)
    with pytest.raises(SquarenessUndetermined, match="no inert witness prime"):
        field._next_witness_prime(1)
    assert tried == primes_upto(10000)[1:]


# -- split primes: the value walk against two references ---------------------


def frobenius_split_primes(coeffs, lo, hi):
    """Reference: (ell, roots of f mod ell) for the primes lo < ell <= hi
    (lo >= 2) not dividing disc(f) at which f has a root, one Frobenius
    power per prime."""
    out = []
    for ell in primes_upto(hi):
        if ell > lo and is_squarefree_mod_p(coeffs, ell):
            roots = roots_mod_p(coeffs, ell)
            if roots:
                out.append((ell, roots))
    return out


def upto(hi, walk):
    """The split primes of a walk up to hi."""
    return list(itertools.takewhile(lambda s: s[0] <= hi, walk))


def walked_split_primes(field, hi):
    """The field's split primes up to hi, by `_split_prime`."""
    return upto(hi, map(field._split_prime, itertools.count()))


def random_irreducible_polys(seed, count):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        f = RationalPoly([rng.randrange(-30, 31)
                          for _ in range(rng.randrange(2, 12))] + [1])
        try:
            irreducible = len(factor_over_Q(f)) == 1
        except ValueError:  # a repeated factor
            continue
        if irreducible:
            polys.append(f)
    return polys


def test_value_walk_matches_frobenius_roots_below_800():
    """The value walk's roots equal the Frobenius reference at every odd
    prime ell < 800 on the 29 test polynomials of test_modpoly."""
    for f in root_test_polys():
        walk = numberfield._value_split_primes(RationalPoly(f))
        assert upto(799, walk) == frobenius_split_primes(f, 2, 799), f


def test_split_prime_matches_frobenius_reference():
    """Table-4 fields, whose split primes are the ell = +-1 mod q, and
    seeded random irreducible polynomials of degree 2 to 11, up to 600."""
    polys = [curve_min_poly(q) for q in (11, 23, 47, 59)]
    polys += random_irreducible_polys(61, 16)
    for f in polys:
        field = NumberField(f)
        want = frobenius_split_primes(f.int_coeffs(), 2, 600)
        assert walked_split_primes(field, 600) == want, f


def lucas_v(n, P, ell):
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


def min_poly_2cos_roots(q, negate, ell, lucas=lucas_v):
    """Reference: the p = (q - 1)/2 roots of min_poly_2cos(q, negate) mod a
    prime ell = e mod q, e = +-1, ascending. These ell are the primes that
    split in Q(zeta_q)^+ (Washington, Introduction to Cyclotomic Fields,
    Ch. 2).

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
    f = min_poly_2cos(q, negate).int_coeffs()[::-1]
    if ell % q not in (1, q - 1) or not is_prime(ell):
        raise ValueError(f"ell = {ell} is not a prime = +-1 mod {q}")
    e = 1 if ell % q == 1 else -1
    P = 3
    while True:
        if jacobi(P * P - 4, ell) == e:
            r = lucas((ell - e) // q, P, ell)
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


def curve_split_primes(q, negate, lucas=lucas_v):
    """Reference: the split primes of min_poly_2cos(q, negate), the
    ell = +-1 mod q, ascending, that is ell = k q +- 1 for even k (q
    ramifies, and no other ell has a degree-one ideal), with their roots
    from one Lucas value."""
    k = 0
    while True:
        k += 2
        for ell in (k * q - 1, k * q + 1):
            if is_prime(ell):
                yield ell, min_poly_2cos_roots(q, negate, ell, lucas)


class CurveField(NumberField):
    """The field of min_poly_2cos(q, s), irreducible by theorem
    (`test_min_poly_2cos_is_irreducible_for_both_signs` checks it by
    factoring), with its split primes from `curve_split_primes`. It factors
    nothing and evaluates f at no prime, so the tests that build curve
    fields at large q use it in place of `NumberField`, which at q = 1019
    spends seconds factoring f and at q = 839 evaluates f at the 8389
    points below its first split prime."""

    def __init__(self, poly):
        q = 2 * poly.deg() + 1
        negate = poly != min_poly_2cos(q, False)
        if negate and poly != min_poly_2cos(q, True):
            raise ValueError(f"{poly} is not a curve polynomial")
        self.poly, self.degree = poly, poly.deg()
        self._split_primes = []
        self._walk = curve_split_primes(q, negate)


def test_min_poly_2cos_roots_reject_other_ell_and_q():
    for q, ell in ((11, 13), (11, 11), (11, 21), (11, 45), (9, 17), (3, 5)):
        with pytest.raises(ValueError):
            min_poly_2cos_roots(q, False, ell)


def check_curve_walk_against_value_walk(qs, lucas=lucas_v):
    """For each prime q in qs and both signs, the first four split primes
    of min_poly_2cos(q, s) from the Lucas walk equal the value walk's."""
    for q in qs:
        for negate in (False, True):
            curve = curve_split_primes(q, negate, lucas)
            value = numberfield._value_split_primes(min_poly_2cos(q, negate))
            assert list(itertools.islice(curve, 4)) \
                == list(itertools.islice(value, 4)), (q, negate)


def test_curve_walk_matches_the_value_walk():
    """Every prime 5 <= q <= 131, which includes non-Sophie q such as 17,
    19 and 31."""
    check_curve_walk_against_value_walk(primes_upto(131)[2:])


def test_curve_walk_with_a_wrong_lucas_root_fails():
    """Mutation: a Lucas value off by one is not a root, and the reference
    says so rather than walk on."""
    def wrong(n, P, ell):
        return (lucas_v(n, P, ell) + 1) % ell

    with pytest.raises(RuntimeError, match="not a root"):
        check_curve_walk_against_value_walk([11], wrong)


def test_curve_field_walks_like_the_production_field():
    """The curve field of a Table-4 q equals, and walks the same split
    primes as, the field that `NumberField` builds by factoring."""
    for q in (11, 23):
        f = curve_min_poly(q)
        curve, field = CurveField(f), NumberField(f)
        assert curve == field
        assert walked_split_primes(curve, 800) \
            == walked_split_primes(field, 800), q
    with pytest.raises(ValueError, match="not a curve polynomial"):
        CurveField(RationalPoly([-1, 1, 0, 0, -1, 1]))


def test_value_walk_small_fields():
    f = RationalPoly([-2, 0, 1])  # x^2 - 2: ell splits iff ell = +-1 mod 8
    split = dict(walked_split_primes(NumberField(f), 600))
    # 257's roots 60 and 197 recur at t = 317 and 454, which must not count
    assert split[257] == [60, 197]
    assert split[7] == [3, 4]
    assert 3 not in split and 5 not in split
    g = RationalPoly([-3, 0, 1])  # x^2 - 3: 3 ramifies, 11 = -1 mod 12 splits
    split = dict(walked_split_primes(NumberField(g), 11))
    assert split == {11: [5, 6]}


def test_fields_copy_and_pickle_after_walking():
    """A field holds its walk, a generator; copies rebuild it from poly."""
    for f in (min_poly_2cos(11, False), RationalPoly([1, -4, 1, 1])):
        field = NumberField(f)
        want = field._split_prime(5)
        for other in (copy.deepcopy(field), copy.copy(field),
                      pickle.loads(pickle.dumps(field))):
            assert other == field and other._split_prime(5) == want
            assert other._split_primes == field._split_primes[:6]


# -- the character-matrix rank and the witness against the full paths --------


def eval_mod(coords, r, ell):
    """Reference: the element with rational coordinates `coords` at
    theta = r mod ell, each numerator times the inverse of its denominator
    mod ell."""
    acc = 0
    for c in reversed(coords):
        num = c.numerator % ell
        den = pow(c.denominator % ell, ell - 2, ell)
        acc = (acc * r + num * den) % ell
    return acc


def two_pass_ideals(field, count, avoid):
    """Reference: the first `count` (ell, root) pairs, by ell then root, at
    which every element of `avoid` is a unit, each element evaluated at
    each candidate before any symbol is taken."""
    dens = [c.denominator for a in avoid for c in a.coords]
    out = []
    i = 0
    while len(out) < count:
        ell, roots = field._split_prime(i)
        i += 1
        if any(d % ell == 0 for d in dens):
            continue
        for r in roots:
            if len(out) >= count:
                break
            if all(eval_mod(a.coords, r, ell) != 0 for a in avoid):
                out.append((ell, r))
    return out


def two_pass_symbols(field, a, ideals):
    """Reference: the residue symbols of a at the ideals, a second pass."""
    return [jacobi(eval_mod(a.coords, r, ell), ell)
            for ell, r in ideals]


def sweep_rank(classes):
    """Reference: the rank from testing all 2^k - 1 nonempty products for
    squareness, with the norm, residue and signature screens shared."""
    field = classes.field
    reps = classes.representatives
    k = len(reps)
    if k == 0:
        return 0
    norms = [field.norm(a) for a in reps]
    ideals = two_pass_ideals(field, 20, reps)
    symbol_bits = []
    for a in reps:
        sym = two_pass_symbols(field, a, ideals)
        symbol_bits.append(sum(1 << i for i, s in enumerate(sym) if s < 0))
    totally_real = len(isolate_real_roots(field.poly)) == field.degree
    sig_bits = [sum(1 << i for i, s in enumerate(field.signature(a)) if s < 0)
                for a in reps] if totally_real else [0] * k
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
        prod = field.element([1])
        for i in range(k):
            if (mask >> i) & 1:
                prod = prod * reps[i]
        ok, _ = field.is_square(prod)
        if ok:
            kernel_masks.append(mask)
    kdim = rank(MatF2(len(kernel_masks), k, tuple(kernel_masks))) if kernel_masks else 0
    return k - kdim


def residue_rank(classes):
    """k minus the kernel dimension of the k + 20 residue-symbol rows
    alone, before any norm row: a lower bound on the rank."""
    field = classes.field
    reps = classes.representatives
    ideals = two_pass_ideals(field, len(reps) + 20, reps)
    columns = [two_pass_symbols(field, a, ideals) for a in reps]
    rows = tuple(sum(1 << i for i, c in enumerate(columns) if c[r] < 0)
                 for r in range(len(columns[0])))
    return len(reps) - len(row_kernel_basis(MatF2(len(rows), len(reps), rows)))


def random_class_sets(seed, count, degrees=(3, 5), draws=90):
    """Seeded class sets of k <= 10 in odd-degree fields with dependencies
    built in: each class is a product of a few base elements times a square."""
    rng = random.Random(seed)
    fields = [NumberField(f) for f in random_irreducible_polys(seed, draws)
              if f.deg() in degrees][:count]
    out = []
    for field in fields:
        bases = []
        while len(bases) < rng.randrange(2, 5):
            b = rand_elem(field, rng, span=2)
            if not b.is_zero():
                bases.append(b)
        reps = []
        while len(reps) < rng.randrange(len(bases) + 1, 11):
            a = field.element([1])
            for b in bases:
                if rng.random() < 0.5:
                    a = a * b
            c = field.element([rng.randrange(-2, 3) for _ in range(field.degree)])
            if not c.is_zero():
                reps.append(a * c * c)
        out.append(SquareClassSet(field, tuple(reps)))
    return out


def test_character_rank_matches_sweep_on_table4_classes():
    for q, want in ((11, 2), (23, 4), (47, 6), (59, 4)):
        r, classes = lower_bound_from_points(curve_min_poly(q))
        assert r == sweep_rank(classes) == want, q


def test_character_rank_matches_sweep_on_random_fields():
    sets = random_class_sets(71, 6)
    assert len(sets) == 6
    for classes in sets:
        assert independence_rank_mod_squares(classes) == sweep_rank(classes)


def test_character_rank_adds_norm_rows_when_residues_fall_short():
    # Q7 splits only at ell = +-1 mod 7, so its first 30 degree-one primes
    # lie over 10 rational primes: too few residue rows for the 9 primes up
    # to 23, which only the norm rows tell apart
    classes = SquareClassSet(Q7, tuple(
        Q7.element([k]) for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 30)))
    assert residue_rank(classes) < 9
    assert independence_rank_mod_squares(classes) == sweep_rank(classes) == 9


def test_witness_norm_residuosity_and_xgcd_inverse_match_powering():
    """In F_{ell^p} at the witness prime: a is a square, a^((ell^p-1)/2) = 1,
    exactly when its norm is a square mod ell, and the inverse from xgcd is
    a^(ell^p - 2)."""
    rng = random.Random(40189)
    for field in (Q7, Q11, F143, NumberField(curve_min_poly(23))):
        ell, p = field._witness_prime, field.degree
        f = list(field.poly.int_coeffs())
        order = ell ** p - 1
        for _ in range(12):
            a = [rng.randrange(-50, 51) for _ in range(p)]
            nrm = field.norm(field.element(a)).numerator
            am = [c % ell for c in a]
            if nrm % ell == 0:
                continue
            want = [1] if jacobi(nrm, ell) > 0 else [ell - 1]
            assert powmod(am, order // 2, f, ell) == want
            assert xgcd(am, f, ell)[0] == powmod(am, order - 1, f, ell)
        assert xgcd([2], f, ell)[0] == [(ell + 1) // 2]


# -- the one-pass kernel against the parent's two-pass, row-built path -------


def inert_primes(field, step, upto=2000):
    """The primes ell < upto from 3 in steps of `step` with f irreducible
    mod ell, lazily: step 2 walks every odd prime, step 4 those = 3 mod 4."""
    coeffs = field.poly.int_coeffs()
    return (ell for ell in range(3, upto, step)
            if is_prime(ell) and is_irreducible_mod_p(PrimePoly(ell, coeffs)))


def scaled_coords(a):
    """d^2 a as integers, d the least common denominator of a."""
    d = 1
    for c in a.coords:
        d = d * c.denominator // gcd(d, c.denominator)
    return d, [int(c * d * d) for c in a.coords]


def norm_witness_prime(field, a, step):
    """Reference: the first inert prime of the walk not dividing N(d^2 a)."""
    nrm = field.norm(field.element(scaled_coords(a)[1])).numerator
    return next(ell for ell in inert_primes(field, step) if nrm % ell)


def reference_root(field, a):
    """Reference: the witness at the least inert ell = 3 mod 4 not dividing
    the norm of d^2 a, rooted by the single powering a^((ell^p + 1) / 4),
    then lifted and reconstructed as in `_reconstruct_root`."""
    p, f = field.degree, list(field.poly.int_coeffs())
    d, acoeffs = scaled_coords(a)
    ell = norm_witness_prime(field, a, 4)
    x = powmod([c % ell for c in acoeffs], (ell ** p + 1) // 4, f, ell)
    z = xgcd(mul([2], x, ell), f, ell)[0]
    m = ell
    while m.bit_length() < 1 << 14:
        mm = m * m
        e = sub(divmod_monic(mul(x, x, mm), f, mm)[1],
                [c % mm for c in acoeffs], mm)
        x = sub(x, divmod_monic(mul(e, z, mm), f, mm)[1], mm)
        tz = divmod_monic(mul(mul([2], x, mm), z, mm), f, mm)[1]
        z = divmod_monic(mul(z, sub([2], tz, mm), mm), f, mm)[1]
        m = mm
        if m.bit_length() < 192:
            continue
        cand = numberfield._rational_coords(x, m, p)
        if cand is not None:
            w = field.element([Fraction(n, den * d) for n, den in cand])
            if w * w == a:
                return w
    raise SquarenessUndetermined("reference witness failed")


def product(field, reps, mask):
    return prod((reps[i] for i in range(len(reps)) if mask >> i & 1),
                start=field.element([1]))


def reference_square_kernel(field, reps):
    """Reference: the kernel as the parent built it. The symbols are taken
    in a second pass over the chosen ideals, the characters are stacked as
    rows, and each row-built kernel is transposed back by
    `row_kernel_basis`: 20 residue symbols, the real signs and the norm
    rows. Returns the kernel basis masks."""
    k = len(reps)
    ideals = two_pass_ideals(field, 20, reps)
    columns = [two_pass_symbols(field, a, ideals) for a in reps]
    if len(isolate_real_roots(field.poly)) == field.degree:
        columns = [c + list(field.signature(a)) for c, a in zip(columns, reps)]
    rows = [sum(1 << i for i, c in enumerate(columns) if c[r] < 0)
            for r in range(len(columns[0]))]
    norms = [n.numerator * n.denominator for n in map(field.norm, reps)]
    while True:
        kernel = row_kernel_basis(MatF2(len(rows), k, tuple(rows)))
        kernel_norms = (prod(norms[i] for i in range(k) if m >> i & 1)
                        for m in kernel)
        nonsquare = next((n for n in kernel_norms
                          if not NumberField._is_rational_square(n)), None)
        if nonsquare is None:
            break
        ell = numberfield._nonresidue_prime(nonsquare, norms)
        rows.append(sum(1 << i for i, n in enumerate(norms)
                        if jacobi(n, ell) < 0))
    return kernel


def named_class_sets():
    """The Table-4 classes, the README cubic at y0 = 1 and 1/3, F143 and Q7."""
    sets = [lower_bound_from_points(curve_min_poly(q))[1]
            for q in (11, 23, 47, 59)]
    readme = RationalPoly([1, -4, 1, 1])
    sets += [lower_bound_from_points(readme, y0)[1]
             for y0 in (Fraction(1), Fraction(1, 3))]
    sets.append(lower_bound_from_points(F143.poly)[1])
    sets.append(SquareClassSet(Q7, tuple(
        Q7.element([k]) for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 30))))
    return sets


def span(masks):
    """The F2 span of the masks, as a set."""
    out = {0}
    for m in masks:
        out |= {m ^ v for v in out}
    return out


def assert_kernel_matches_reference(classes):
    """The character kernel spans the parent's witnessed kernel, and each
    of its basis products squares to the reference root, which the
    production witness equals up to sign."""
    field, reps = classes.field, classes.representatives
    count = len(reps) + 20
    ideals, columns = field._residue_columns(count, reps)
    want_ideals = two_pass_ideals(field, count, reps)
    assert ideals == want_ideals
    assert columns == [sum(1 << j for j, s in enumerate(two_pass_symbols(
        field, a, want_ideals)) if s < 0) for a in reps]
    got = numberfield._character_kernel(field, reps)
    want = reference_square_kernel(field, reps)
    assert len(got) == len(want)
    assert span(got) == span(want)
    for mask in got:
        a = product(field, reps, mask)
        w_ref = reference_root(field, a)
        assert w_ref * w_ref == a
        w = field._reconstruct_root(a)
        # both walks reach the same inert prime: the same root, exactly
        if norm_witness_prime(field, a, 2) == norm_witness_prime(field, a, 4):
            assert w == w_ref
        else:
            assert w in (w_ref, -w_ref)


def test_one_pass_kernel_matches_reference_on_named_fields():
    sets = named_class_sets()
    for classes in sets:
        # 3 is inert in each, so both walks take it
        assert classes.field._witness_prime == 3
        assert_kernel_matches_reference(classes)


def test_one_pass_kernel_matches_reference_on_random_fields():
    sets = random_class_sets(83, 30, degrees=(3, 5, 7), draws=150)
    assert len(sets) == 30
    for classes in sets:
        assert_kernel_matches_reference(classes)


def test_inert_prime_divides_the_norm_exactly_when_it_divides_every_coordinate():
    """Z[theta]/ell is a field at an inert ell, so the coordinate test of
    `_reconstruct_root` picks the same ell as a test of the norm."""
    rng = random.Random(40193)
    for field in (Q7, Q11, F143, NumberField(RationalPoly([4, -3, 0, 1]))):
        for ell in inert_primes(field, 2, 40):
            for _ in range(20):
                a = [ell * rng.randrange(-3, 4) + rng.choice((0, 0, 1, -2))
                     for _ in range(field.degree)]
                if not any(a):
                    continue
                nrm = field.norm(field.element(a)).numerator
                assert (nrm % ell == 0) == all(c % ell == 0 for c in a)


# -- a witness at any inert odd prime: Tonelli-Shanks ------------------------

# x^3 - 3x + 4, disc = -18^2: every inert prime is 1 mod 4
C4 = NumberField(RationalPoly([4, -3, 0, 1]))


def test_inert_primes_of_a_field_with_no_inert_prime_3_mod_4():
    assert list(inert_primes(C4, 2, 30)) == [5, 13, 17, 29]
    assert list(inert_primes(C4, 4)) == []
    assert C4._witness_prime == 5


def test_tonelli_shanks_roots_squares_in_every_residue_field():
    """At inert primes with ell^3 - 1 divisible by 4, 16 and 2^s for larger
    s, the root squares back to a; at ell^p = 3 mod 4 it is the single
    powering a^((ell^p + 1) / 4)."""
    rng = random.Random(40199)
    for field, ell in ((C4, 5), (C4, 13), (C4, 17), (C4, 29), (Q7, 3), (Q11, 3)):
        f, p = list(field.poly.int_coeffs()), field.degree
        for _ in range(10):
            b = [rng.randrange(ell) for _ in range(p)]
            if not any(b):
                continue
            a = divmod_monic(mul(b, b, ell), f, ell)[1]
            r = numberfield._tonelli_shanks(a, f, ell)
            assert divmod_monic(mul(r, r, ell), f, ell)[1] == a
            if ell ** p % 4 == 3:
                assert r == powmod(a, (ell ** p + 1) // 4, f, ell)


def test_is_square_with_witness_prime_1_mod_4():
    rng = random.Random(40201)
    for _ in range(12):
        b = rand_elem(C4, rng, span=4)
        if b.is_zero():
            continue
        ok, w = C4.is_square(b * b)
        assert ok and w in (b, -b)
    assert C4.is_square(C4.element([0, 1])) == (False, None)
