"""Tests for exact number field arithmetic, squareness, and delta classes.

Oracles: hand-reduced products in small fields, the resultant identity
norm(theta) = (-1)^deg f(0), multiplicativity laws on random elements, and
exactly verified square witnesses.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jacrank import numberfield
from jacrank.arith import jacobi, primes_upto
from jacrank.bounds import curve_min_poly, lower_bound_from_points
from jacrank.cyclosig import SophieGermainPair, canonical_signature
from jacrank.f2 import MatF2, kernel_basis, rank
from jacrank.factor import factor_over_Q
from jacrank.modpoly import is_squarefree_mod_p, powmod, xgcd
from jacrank.numberfield import (
    NumberField,
    SquareClassSet,
    SquarenessUndetermined,
    delta_class_of_factor,
    independence_rank_mod_squares,
)
from jacrank.polys import RationalPoly, min_poly_2cos
from test_modpoly import root_test_polys, roots_mod_p

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
    with pytest.raises(ValueError):
        NumberField(RationalPoly([-1, 0, 1]))  # reducible
    with pytest.raises(ValueError):
        NumberField(RationalPoly([3, 1]))  # degree 1
    assert Q7.degree == 3 and Q11.degree == 5


def test_power_basis_reduction():
    th = Q7.theta()
    assert (th * (th * th)).coords == (Fraction(-1), Fraction(2), Fraction(1))


def test_inverse_roundtrip():
    rng = random.Random(40111)
    for field in (Q7, Q11):
        for _ in range(25):
            a = rand_elem(field, rng)
            if a.is_zero():
                continue
            assert (a * a.inverse()) == field.one()
            assert (field.one() / a) == a.inverse()
    with pytest.raises(ZeroDivisionError):
        Q7.zero().inverse()


def test_example_product_identity():
    th = Q11.theta()
    prod = (th * th - 3) * (th * th + th - 1) * th
    assert prod == -Q11.one()


def test_norm_values():
    assert Q7.norm(-Q7.one()) == -1
    assert Q11.norm(-Q11.one()) == -1
    assert Q7.norm(Q7.one()) == 1
    assert F143.norm(F143.theta()) == -1  # = -f(0)
    assert Q11.norm(Q11.theta()) == -1


def test_norm_multiplicative():
    rng = random.Random(40127)
    for field in (Q7, Q11, F143):
        for _ in range(15):
            a, b = rand_elem(field, rng), rand_elem(field, rng)
            assert field.norm(a * b) == field.norm(a) * field.norm(b)
        c = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        assert field.norm(field.element([c])) == c ** field.degree


def test_signature_values():
    assert Q7.signature(Q7.one()).signs == (1, 1, 1)
    assert F143.signature(F143.theta()).signs == (-1, 1, 1)
    # theta here generates the q=11 field built from +(zeta+zeta^-1); its
    # sorted conjugates are (-1.92, -1.31, -0.28, 0.83, 1.68)
    assert Q11.signature(Q11.theta()).signs == (-1, -1, -1, 1, 1)
    assert Q11.signature(-Q11.theta()).signs == (1, 1, 1, -1, -1)
    with pytest.raises(ValueError):
        Q7.signature(Q7.zero())


def test_signature_multiplicative():
    rng = random.Random(40153)
    for field in (Q7, Q11):
        for _ in range(12):
            a, b = rand_elem(field, rng), rand_elem(field, rng)
            if a.is_zero() or b.is_zero():
                continue
            sa = field.signature(a).signs
            sb = field.signature(b).signs
            sab = field.signature(a * b).signs
            assert sab == tuple(x * y for x, y in zip(sa, sb))


def test_signature_lifts_canonical_unit():
    for p, q in [(3, 7), (5, 11), (11, 23)]:
        pair = SophieGermainPair(p, q)
        field = NumberField(min_poly_2cos(q, p % 4 == 1))
        assert field.signature(field.theta()) == canonical_signature(pair)


def test_is_square_basic():
    th = Q11.theta()
    ok, w = Q11.is_square(th * th)
    assert ok and w is not None and w * w == th * th
    ok, w = Q11.is_square(-th * (th * th - 3))
    assert not ok and w is None
    ok, w = Q11.is_square((th * th - 3) * (th * th + th - 1) * th * -Q11.one())
    assert ok and w * w == Q11.one()
    ok, w = Q7.is_square(Q7.element([4]))
    assert ok and w * w == Q7.element([4])
    ok, _ = Q7.is_square(Q7.element([2]))
    assert not ok
    ok, _ = Q7.is_square(-Q7.one())
    assert not ok
    with pytest.raises(ValueError):
        Q7.is_square(Q7.zero())


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
        assert all(s > 0 for s in Q11.signature(a).signs)


def test_is_square_rejects_even_degree_field():
    gauss = NumberField(RationalPoly([1, 0, 1]))  # Q(i), where -1 is a square
    with pytest.raises(ValueError, match="odd-degree"):
        gauss.is_square(-gauss.one())


def test_independence_rank_example():
    th = Q11.theta()
    classes = SquareClassSet(Q11, (-th, th * th - 3, th * th + th - 1))
    assert independence_rank_mod_squares(classes) == 2


def test_independence_rank_degenerate():
    assert independence_rank_mod_squares(SquareClassSet(Q11, (Q11.one(),))) == 0
    th = Q7.theta()
    assert independence_rank_mod_squares(SquareClassSet(Q7, (th, th))) == 1
    with pytest.raises(ValueError):
        SquareClassSet(Q7, (Q7.zero(),))
    # a rational is a square in an odd-degree field iff it is one in Q, so
    # 2..18 span the classes of the seven primes up to 17
    assert independence_rank_mod_squares(
        SquareClassSet(Q7, tuple(Q7.element([k]) for k in range(2, 19)))) == 7
    gauss = NumberField(RationalPoly([1, 0, 1]))
    with pytest.raises(ValueError, match="odd-degree"):
        independence_rank_mod_squares(SquareClassSet(gauss, (gauss.theta(),)))


def test_delta_classes_example():
    th = Q11.theta()
    g1 = RationalPoly([0, 1])
    g2 = RationalPoly([-3, 0, 1])
    g3 = RationalPoly([-1, 1, 1])
    assert delta_class_of_factor(g1, Fraction(1), Q11) == -th
    assert delta_class_of_factor(g2, Fraction(1), Q11) == th * th - 3
    assert delta_class_of_factor(g3, Fraction(1), Q11) == th * th + th - 1
    with pytest.raises(ValueError):
        delta_class_of_factor(Q11.poly, Fraction(1), Q11)  # g = f shares roots
    with pytest.raises(ValueError):
        delta_class_of_factor(RationalPoly([1, 1]), Fraction(1), Q11)  # not a factor


def test_delta_product_is_square():
    # product over all factors of f - y0^2 is y0^2 times a square
    for field, y0 in [(Q7, Fraction(1)), (Q11, Fraction(1))]:
        shifted = field.poly - RationalPoly([y0 * y0])
        from jacrank.factor import factor_over_Q
        _, factors = factor_over_Q(shifted)
        prod = field.one()
        for g, mult in factors:
            assert mult == 1
            prod = prod * delta_class_of_factor(g, y0, field)
        ok, w = field.is_square(prod)
        assert ok and w * w == prod


def test_undetermined_is_an_exception_type():
    assert issubclass(SquarenessUndetermined, RuntimeError)


# -- split primes: the value sieve against the Frobenius reference -----------


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


def sieved_split_primes(field, hi):
    """The field's split primes up to hi, by `_split_prime`."""
    out = []
    while True:
        ell, roots = field._split_prime(len(out))
        if ell > hi:
            return out
        out.append((ell, roots))


def random_irreducible_polys(seed, count):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        f = RationalPoly([rng.randrange(-30, 31)
                          for _ in range(rng.randrange(2, 12))] + [1])
        _, factors = factor_over_Q(f)
        if len(factors) == 1 and factors[0][1] == 1:
            polys.append(f)
    return polys


def test_sieve_matches_frobenius_roots_below_800():
    """The sieve's roots equal the Frobenius reference at every odd prime
    ell < 800 on the 29 test polynomials of test_modpoly, with the windows
    `_split_prime` uses."""
    for f in root_test_polys():
        sieved, lo = [], 2
        while lo < 800:
            hi = max(2 * lo, numberfield._FIRST_WINDOW)
            sieved += numberfield._sieve_split_primes(f, lo, hi)
            lo = hi
        assert [s for s in sieved if s[0] < 800] \
            == frobenius_split_primes(f, 2, 799), f


def test_split_prime_matches_frobenius_reference():
    """Table-4 fields and seeded random irreducible polynomials of degree 2
    to 11, through the five sieve windows that reach past 600."""
    polys = [curve_min_poly(q) for q in (11, 23, 47, 59)]
    polys += random_irreducible_polys(61, 16)
    for f in polys:
        field = NumberField(f)
        want = frobenius_split_primes(f.int_coeffs(), 2, 600)
        assert sieved_split_primes(field, 600) == want, f


def test_sieve_window_edges():
    f = (-2, 0, 1)  # x^2 - 2: ell splits iff ell = +-1 mod 8
    # 257 = 1 mod 8 is the first prime above the window boundary 256; its
    # roots 60 and 197 recur at t = 317 and 454 < 512, which must not count
    field = NumberField(RationalPoly(f))
    split = dict(sieved_split_primes(field, 600))
    assert split[257] == [60, 197]
    assert numberfield._sieve_split_primes(f, 256, 512)[0] == (257, [60, 197])
    assert split[7] == [3, 4]  # t = 10, 11, ..., 60 in the first window
    # windows that start just below a split prime, end on one, hold one
    # prime or none, on a field split only at ell = +-1 mod 47
    g = curve_min_poly(47).int_coeffs()
    for lo, hi in ((280, 300), (2, 281), (281, 283), (186, 189), (2, 3)):
        assert numberfield._sieve_split_primes(g, lo, hi) \
            == frobenius_split_primes(g, lo, hi), (lo, hi)
    assert numberfield._sieve_split_primes(g, 280, 282)[0][0] == 281
    assert numberfield._sieve_split_primes(f, 4, 4) == []


# -- the character-matrix rank and the witness against the full paths --------


def sweep_rank(classes):
    """Reference: the rank from testing all 2^k - 1 nonempty products for
    squareness, with the norm, residue and signature screens shared."""
    field = classes.field
    reps = classes.representatives
    k = len(reps)
    if k == 0:
        return 0
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


def residue_and_sign_rank(classes):
    """k minus the kernel dimension of the residue-symbol and sign rows
    alone, before any norm row: a lower bound on the rank."""
    field = classes.field
    reps = classes.representatives
    ideals = field._degree_one_ideals(20, reps)
    columns = [field._residue_symbols(a, ideals) for a in reps]
    if len(field.root_intervals) == field.degree:
        columns = [c + list(field.signature(a).signs)
                   for c, a in zip(columns, reps)]
    rows = tuple(sum(1 << i for i, c in enumerate(columns) if c[r] < 0)
                 for r in range(len(columns[0])))
    return len(reps) - len(kernel_basis(MatF2(len(rows), len(reps), rows)))


def random_class_sets(seed, count):
    """Seeded class sets of k <= 10 in odd-degree fields with dependencies
    built in: each class is a product of a few base elements times a square."""
    rng = random.Random(seed)
    fields = [NumberField(f) for f in random_irreducible_polys(seed, 90)
              if f.deg() in (3, 5)][:count]
    out = []
    for field in fields:
        bases = []
        while len(bases) < rng.randrange(2, 5):
            b = rand_elem(field, rng, span=2)
            if not b.is_zero():
                bases.append(b)
        reps = []
        while len(reps) < rng.randrange(len(bases) + 1, 11):
            a = field.one()
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
    # Q7 splits only at ell = +-1 mod 7, so its first 20 degree-one primes
    # lie over 7 rational primes: too few residue rows for the 9 primes up
    # to 23, which only the norm rows tell apart
    classes = SquareClassSet(Q7, tuple(
        Q7.element([k]) for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 30)))
    assert residue_and_sign_rank(classes) < 9
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
