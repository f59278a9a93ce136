"""Bound pipelines: local certificates, rho-infinity routes, upper bounds from
class-group data, and lower bounds from delta-classes of points."""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest

from jacrank import bounds, cyclosig, f2
from jacrank.arith import prime_factors, squarefree_prime_factors
from jacrank.bounds import (
    BoundReport,
    GTrivialityCertificate,
    curve_min_poly,
    lower_bound_from_points,
    sophie_local_certificate,
    sophie_lower_bound,
    sophie_upper_bound,
    two_inert_in_real_cyclotomic,
    washington_bad_primes,
    washington_bound,
    washington_local_certificate,
    washington_rho_certificate,
)
from jacrank.cli import main as cli_main
from jacrank.cyclosig import sophie_germain_pairs
from jacrank.modpoly import PrimePoly, is_irreducible_mod_p
from jacrank.numberfield import NumberField
from jacrank.polys import (
    RationalPoly,
    min_poly_2cos,
    psi,
    split_indices,
    split_sign_vector,
)
from jacrank.stores import builtin_class_groups, parse_class_groups
from test_arith import is_squarefree_integer, order_oracle
from test_numberfield import CurveField
from test_polys import compose, min_poly_2cos_split, to_sympy


def washington_curve_poly(m: int) -> RationalPoly:
    """f_m = x^3 + m x^2 - (m+3) x + 1."""
    return RationalPoly([1, -(m + 3), m, 1])


# signs of theta, 1/(1-theta) and 1-1/theta at the ascending roots of f_m,
# the same for every m (washington_rho_certificate)
WASHINGTON_SIGNS = [(-1, 1, 1), (1, 1, -1), (1, -1, 1)]


def clg(lines: str) -> object:
    return parse_class_groups("clgroup v1\n" + lines)


def ref_local_certificate(m: int) -> GTrivialityCertificate:
    """The Fraction-based certificate: irreducibility mod 2 by factoring,
    and the shift identity by composing with x - m/3 over Q."""
    D = m * m + 3 * m + 9
    if not is_squarefree_integer(D):
        raise ValueError(
            f"outside family: D = {D} is not square-free for m = {m}")
    f = washington_curve_poly(m)
    evidence = []
    ok = is_irreducible_mod_p(PrimePoly(2, f.int_coeffs()))
    evidence.append((2, "irreducible-mod-p"))
    shifted = RationalPoly([27]) * compose(f, RationalPoly([Fraction(-m, 3), 1]))
    expected = RationalPoly([D * (2 * m + 3), -9 * D, 0, 27])
    ok = ok and shifted == expected
    const = D * (2 * m + 3)
    for v in prime_factors(D):
        ok = ok and 27 % v != 0 and (9 * D) % v == 0 and const % v == 0 \
            and const % (v * v) != 0
        evidence.append((v, "eisenstein-after-shift"))
    assert ok, m
    return GTrivialityCertificate(tuple([2] + prime_factors(D)), tuple(evidence))


# -- Washington family ---------------------------------------------------


def test_washington_curve_poly():
    # the tests here build f_m with the helper above; f_1 and f_143 by hand
    assert washington_curve_poly(1).int_coeffs() == [1, -4, 1, 1]
    assert washington_curve_poly(143).int_coeffs() == [1, -146, 143, 1]


def test_local_certificate_m1():
    cert = washington_local_certificate(1)
    assert isinstance(cert, GTrivialityCertificate)
    assert cert.bad_primes == (2, 13)
    assert dict(cert.evidence) == {2: "irreducible-mod-p",
                                   13: "eisenstein-after-shift"}


def test_local_certificate_m143():
    cert = washington_local_certificate(143)
    assert cert.bad_primes == (2, 20887)
    assert dict(cert.evidence) == {2: "irreducible-mod-p",
                                   20887: "eisenstein-after-shift"}


def test_bad_primes_factor_each_m_once(monkeypatch, capsys):
    """`washington_bad_primes` gives the primes of a square-free D and None
    otherwise; the `washington` command factors each D once, for its family
    test and both certificates together."""
    for m in range(-300, 301):
        D = m * m + 3 * m + 9
        want = tuple(prime_factors(D)) if is_squarefree_integer(D) else None
        assert washington_bad_primes(m) == want, m
    factored = []

    def counted(n):
        factored.append(n)
        return squarefree_prime_factors(n)

    monkeypatch.setattr(bounds, "squarefree_prime_factors", counted)
    washington_bad_primes.cache_clear()
    assert cli_main(["washington", "--m", "1..30"]) in (0, 1)
    assert factored == [m * m + 3 * m + 9 for m in range(1, 31)]
    # each m of the family is printed or reported missing
    captured = capsys.readouterr()
    missing = captured.err.split("=", 1)[1].split(",") if captured.err else []
    family = [m for m in range(1, 31) if is_squarefree_integer(m * m + 3 * m + 9)]
    assert captured.out.count("curve=cubic-m") + len(missing) == len(family) == 19


def test_local_certificate_rejects_non_squarefree_discriminant():
    with pytest.raises(ValueError, match="outside family"):
        washington_local_certificate(0)  # D = 9
    with pytest.raises(ValueError, match="outside family"):
        washington_local_certificate(3)  # D = 27
    for m in (0, 3):
        with pytest.raises(ValueError, match="outside family"):
            washington_rho_certificate(m)


def test_values_at_zero_and_one():
    # the certificates take f_m(0) = 1 and f_m(1) = -1 from the coefficients
    # of f_m that bounds certifies and keys the class-group store with
    for m in range(-3000, 3001):
        coeffs = bounds._washington_coeffs(m)
        assert list(coeffs) == washington_curve_poly(m).int_coeffs(), m
        assert (coeffs[0], sum(coeffs)) == (1, -1), m


def test_eisenstein_shift_identity():
    # 27 f_m(x - m/3) = 27 x^3 - 9 D x + D (2m + 3), D = m^2 + 3m + 9
    for m in range(0, 40):
        D = m * m + 3 * m + 9
        shifted = RationalPoly([27]) * compose(
            washington_curve_poly(m), RationalPoly([Fraction(-m, 3), 1]))
        assert shifted == RationalPoly([D * (2 * m + 3), -9 * D, 0, 27])


def test_local_certificate_matches_reference():
    checked = 0
    for m in range(-3000, 3001):
        if not is_squarefree_integer(m * m + 3 * m + 9):
            continue
        assert washington_local_certificate(m) == ref_local_certificate(m), m
        checked += 1
    assert checked == 3732


def test_local_certificates_sweep():
    for m in range(1, 80):
        D = m * m + 3 * m + 9
        if is_squarefree_integer(D):
            cert = washington_local_certificate(m)
            assert cert.bad_primes == (2, *prime_factors(D)), m
            assert [v for v, _ in cert.evidence] == list(cert.bad_primes), m


def washington_units(m: int, field: NumberField) -> tuple:
    """theta, 1/(1-theta) and 1-1/theta in L_m = Q[x]/(f_m). The inverses
    are read off f_m: theta (theta^2 + m theta - m - 3) = -1 and
    (1 - theta)(theta^2 + (m+1) theta - 2) = -f_m(1) = 1, so
    1/theta = -theta^2 - m theta + m + 3 and
    1/(1-theta) = -theta^2 - (m+1) theta + 2; each is checked by
    multiplication."""
    th, one = field.element([0, 1]), field.element([1])
    inv_th = field.element([m + 3, -m, -1])
    inv_one_minus_th = field.element([2, -(m + 1), -1])
    assert th * inv_th == one
    assert field.element([1, -1]) * inv_one_minus_th == one
    return th, inv_one_minus_th, field.element([-m - 2, m, 1])


def test_rho_certificate_frozen_signatures():
    # conjugates of theta are theta, 1/(1-theta), 1-1/theta; their signs at
    # the ascending roots span all of F_2^3
    field = NumberField(washington_curve_poly(1))
    conj = washington_units(1, field)
    signs = [field.signature(a) for a in conj]
    assert signs == WASHINGTON_SIGNS
    f = washington_curve_poly(1)
    for a in conj:  # each is a genuine root of the defining polynomial
        assert to_sympy(compose(f, RationalPoly(a.coords))).rem(to_sympy(f)).is_zero


def test_rho_certificate_closed_form_matches_sturm_signatures():
    # the closed-form sign pattern against Sturm signatures in L_m, on both
    # sides of m = -3/2 (m and -m-3 share D) and at two large m
    ms = [m for m in range(-300, 301) if is_squarefree_integer(m * m + 3 * m + 9)]
    ms += [10**6 + 1, 10**9 + 7]
    assert len(ms) == 375
    for m in ms:
        assert is_squarefree_integer(m * m + 3 * m + 9)
        field = NumberField(washington_curve_poly(m))
        signs = [field.signature(a) for a in washington_units(m, field)]
        assert signs == WASHINGTON_SIGNS, m
        assert washington_rho_certificate(m) is None


def test_frozen_signatures_span_the_sign_space():
    # a bit for each negative sign: e_1, e_3 and e_2
    vecs = [f2.VecF2(3, sum(1 << i for i, s in enumerate(signs) if s < 0))
            for signs in WASHINGTON_SIGNS]
    assert [v.bits for v in vecs] == [0b001, 0b100, 0b010]
    assert f2.span_dimension(vecs) == 3


def test_rho_certificate_values():
    for m in (1, 11, 143):
        assert washington_rho_certificate(m) is None


def test_washington_bounds_fixture():
    store = builtin_class_groups()
    for m, expected in ((1, 1), (11, 3), (143, 5)):
        report = washington_bound(m, store)
        assert report.upper_bound == expected
        assert report.genus == 1
        assert report.rho_infty == "0"
        assert report.g_kernel_dim == 0
        assert report.hypotheses == ()


def test_washington_bound_missing_record():
    with pytest.raises(LookupError,
                       match=r"^class group unknown for cubic-m4 \(degree 3\)$"):
        washington_bound(4, clg(""))  # D = 37 squarefree, no record


# -- inertness of 2 in real cyclotomic fields ------------------------------


def test_two_inert_frozen_values():
    for p in (3, 5, 11, 23, 29, 53, 83):
        assert two_inert_in_real_cyclotomic(p)
    for p in (17, 31, 41, 73, 89):
        assert not two_inert_in_real_cyclotomic(p)
    with pytest.raises(ValueError):
        two_inert_in_real_cyclotomic(2)


def test_two_inert_matches_order_computation():
    # inert iff the order of 2 in (Z/p)^x / {+-1} is (p-1)/2
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        ordq = order_oracle(2, p)
        if pow(2, ordq // 2, p) == p - 1:
            ordq //= 2
        assert two_inert_in_real_cyclotomic(p) == (ordq == (p - 1) // 2)


# -- Sophie Germain upper bounds -------------------------------------------


def test_sophie_local_certificate():
    cert = sophie_local_certificate(11)
    assert cert.bad_primes == (2, 11)
    assert dict(cert.evidence) == {2: "inert-by-order",
                                   11: "totally-ramified-cyclotomic"}


def test_sophie_local_certificate_order_of_two():
    # the certificate takes ord_q(2) in {p, 2p} from q >= 7 alone
    pairs = sophie_germain_pairs(92459)
    assert len(pairs) == 630
    for pair in pairs:
        assert order_oracle(2, pair.q) in (pair.p, 2 * pair.p), pair
        assert sophie_local_certificate(pair.q).bad_primes == (2, pair.q), pair
    for q in (5, 13, 15, 29):
        with pytest.raises(ValueError, match="not a Sophie Germain modulus"):
            sophie_local_certificate(q)


def test_sophie_upper_bounds_builtin():
    store = builtin_class_groups()
    for q, g, upper in ((7, 1, 1), (11, 2, 2), (23, 5, 5), (47, 11, 11),
                        (59, 14, 14)):
        report = sophie_upper_bound(q, store)
        assert report.genus == g
        assert report.upper_bound == upper
        assert report.rho_infty == "0"
        assert report.hypotheses == ("2-inert-in-real-cyclotomic",)
        assert report.curve == f"cyclo-q{q}"


def test_sophie_rejects_non_sophie_germain():
    for q in (5, 13, 15, 29):
        with pytest.raises(ValueError, match="Sophie Germain"):
            sophie_upper_bound(q, builtin_class_groups())


def test_sophie_davis_taussky_route_needs_no_oracle():
    report = sophie_upper_bound(11, clg(""), assume_davis_taussky=True)
    assert report.upper_bound == 2  # g alone
    assert report.cl2_used == 0
    assert report.hypotheses == ("davis-taussky-assumed",)


def test_sophie_scan_route():
    # p = 41: 2 is not inert in the real cyclotomic field, so the matrix
    # certificate is the only unconditional route, and it assumes nothing
    key = ",".join(str(c) for c in min_poly_2cos(83, 41 % 4 == 3).int_coeffs())
    store = clg(f"poly={key} cl2=1 source=synthetic-test")
    report = sophie_upper_bound(83, store)
    assert report.rho_infty == "0"
    assert report.upper_bound == 20 + 1  # g + cl2
    assert report.hypotheses == ()
    assert "upper bound is unconditional" in report.describe()


@pytest.fixture
def certificate_fails(monkeypatch):
    """The signature certificate leaves rho_infty open at every pair, so
    a q where 2 is not inert reaches the fallback ladder."""
    def certify(pair):
        return cyclosig.RhoInftyCertificate(pair, 0, False)
    monkeypatch.setattr(cyclosig, "certify_rho_infty", certify)


def test_sophie_fallback_with_narrow_data(certificate_fails):
    key = ",".join(str(c) for c in min_poly_2cos(83, 41 % 4 == 3).int_coeffs())
    store = clg(f"poly={key} cl2=1 narrow_cl2=2 source=synthetic-test")
    report = sophie_upper_bound(83, store)
    assert report.rho_infty == "unk"
    assert report.upper_bound == 40 + 2  # (p-1) + narrow_cl2
    assert report.hypotheses == ()


def test_sophie_fallback_even_order_substitutes_plain_cl2(certificate_fails):
    # ord(2 mod 41) = 20 is even, so the plain 2-rank stands in for narrow
    key = ",".join(str(c) for c in min_poly_2cos(83, 41 % 4 == 3).int_coeffs())
    store = clg(f"poly={key} cl2=1 source=synthetic-test")
    report = sophie_upper_bound(83, store)
    assert report.upper_bound == 40 + 1
    assert report.hypotheses == ("order-of-2-even",)


def test_sophie_fallback_no_narrow_odd_order(certificate_fails):
    # ord(2 mod 89) = 11 is odd: only narrow <= rho_inf + cl2 is available
    key = ",".join(str(c) for c in min_poly_2cos(179, 89 % 4 == 3).int_coeffs())
    store = clg(f"poly={key} cl2=0 source=synthetic-test")
    report = sophie_upper_bound(179, store)
    assert report.upper_bound == 2 * 88 + 0
    assert report.hypotheses == ("narrow-data-missing",)


def test_sophie_missing_record():
    with pytest.raises(LookupError,
                       match=r"^class group unknown for cyclo-q11 \(degree 5\)$"):
        sophie_upper_bound(11, clg(""))


def test_davis_taussky_route_builds_no_store_key(monkeypatch):
    """The store key is f itself, O(p^2) bits; the Davis-Taussky route
    never reads the store, so it never builds f."""
    def no_key(q):
        raise AssertionError(f"store key built for q = {q}")
    monkeypatch.setattr(bounds, "curve_min_poly", no_key)
    report = sophie_upper_bound(16139, clg(""), assume_davis_taussky=True)
    assert (report.upper_bound, report.hypotheses) == (
        4034, ("davis-taussky-assumed",))


def test_store_key_is_built_only_for_a_record_of_its_degree(monkeypatch):
    """A store with no key of degree p answers `class group unknown`
    without f; with one, f is built and looked up, and a degree-p key that
    is not f finds nothing."""
    built = []

    def counted(q):
        built.append(q)
        return min_poly_2cos(q, (q - 1) // 2 % 4 == 3)
    monkeypatch.setattr(bounds, "curve_min_poly", counted)
    cubic = clg("poly=1,-4,1,1 cl2=0 source=synthetic-test")
    with pytest.raises(LookupError, match="cyclo-q16139"):
        sophie_upper_bound(16139, cubic)
    assert built == []
    other = ",".join(["1"] * 42)  # degree 41, not the curve polynomial
    with pytest.raises(LookupError, match="cyclo-q83"):
        sophie_upper_bound(83, clg(f"poly={other} cl2=0 source=synthetic-test"))
    assert built == [83]


# -- lower bounds from points ----------------------------------------------


def test_lower_bound_q7():
    f = min_poly_2cos(7, True)  # x^3 - x^2 - 2x + 1
    lower, classes = lower_bound_from_points(f, Fraction(1))
    assert lower == 1
    assert len(classes.representatives) == 3
    field = classes.field
    prod = field.element([1])
    for cls in classes.representatives:
        prod = prod * cls
    ok, _ = field.is_square(prod)
    assert ok


def test_lower_bound_q11_example():
    f = min_poly_2cos(11, False)
    lower, classes = lower_bound_from_points(f, Fraction(1))
    assert lower == 2
    coords = [tuple(c.coords) for c in classes.representatives]
    assert coords == [
        (0, -1, 0, 0, 0),   # -theta
        (-3, 0, 1, 0, 0),   # theta^2 - 3
        (-1, 1, 1, 0, 0),   # theta^2 + theta - 1
    ]


def test_lower_bound_rejects_non_squarefree_split():
    # x^3 - x^2 + 1 - 1 = x^2 (x - 1); the even-degree x^2 - 2x + 2, whose
    # f - 1 = (x - 1)^2 is not square-free either, fails on its degree
    with pytest.raises(ValueError, match="square-free"):
        lower_bound_from_points(RationalPoly([1, 0, -1, 1]), Fraction(1))
    with pytest.raises(ValueError, match="odd degree"):
        lower_bound_from_points(RationalPoly([2, -2, 1]), Fraction(1))


def test_lower_bound_rejects_zero_y0():
    with pytest.raises(ValueError, match="y0"):
        lower_bound_from_points(min_poly_2cos(7, True), Fraction(0))


def test_lower_bound_fractional_y0():
    f = min_poly_2cos(7, True)
    lower, classes = lower_bound_from_points(f, Fraction(3, 2))
    assert 0 <= lower <= 3
    field = classes.field
    prod = field.element([1])
    for cls in classes.representatives:
        prod = prod * cls
    ok, _ = field.is_square(prod)
    assert ok


def split_by_closed_form(monkeypatch, q):
    """The curve polynomial f of q, with `bounds` factoring f - 1 by the
    closed form, the Psi_d, in place of `factor_over_Q`, which takes about
    7 s at q = 503 alone; the fake checks that it is asked for f - 1."""
    f = curve_min_poly(q)

    def fake(g):
        assert g == f - RationalPoly([1]), q
        return min_poly_2cos_split(q)

    monkeypatch.setattr(bounds.factor, "factor_over_Q", fake)
    return f


def test_sophie_lower_bounds_past_table_4(monkeypatch):
    # every Sophie Germain q with q <= 1019: Table 4 up to q = 59, the
    # witnessed values up to q = 503 and the earlier prototype's past it;
    # at q = 479, 20 classes, a fixed 20 residue symbols without the real
    # signs give 17, and k + 20 give 18. The sign-vector bound equals the
    # character-table bound of `lower_bound_from_points` at every one, in
    # curve fields that take their split primes from the Lucas walk, with
    # f - 1 factored by the closed form.
    monkeypatch.setattr(bounds.numberfield, "NumberField", CurveField)
    table = {7: 1, 11: 2, 23: 4, 47: 6, 59: 4,
             83: 4, 107: 4, 167: 10, 179: 6, 227: 4, 263: 10, 347: 4,
             359: 16, 383: 12, 467: 6, 479: 18, 503: 16, 563: 4, 587: 6,
             719: 22, 839: 22, 863: 18, 887: 10, 983: 10, 1019: 8}
    assert sorted(table) == [pr.q for pr in sophie_germain_pairs(1019)]
    for q, want in table.items():
        lower, classes = lower_bound_from_points(
            split_by_closed_form(monkeypatch, q))
        assert lower == want, q
        assert len(classes.representatives) == len(split_indices(q))
        assert sophie_lower_bound(q)[0] == lower, q


def test_sophie_sign_vectors_match_field_signatures():
    """At the Table-4 q each sign vector is the signature of its class in
    the curve field, from Sturm root isolation: ascending, the real roots
    are theta_p, ..., theta_1 when p = 1 mod 4 and theta_1, ..., theta_p
    otherwise."""
    for q in (7, 11, 23, 47, 59):
        p = (q - 1) // 2
        field = NumberField(curve_min_poly(q))
        _, indices, vectors = sophie_lower_bound(q)
        for d, vector in zip(indices, vectors):
            g = psi(d)
            cls = field.from_poly(g)
            signs = field.signature(-cls if g.deg() % 2 else cls)
            ks = range(p, 0, -1) if p % 4 == 1 else range(1, p + 1)
            assert vector == sum(1 << (k - 1) for k, sign in zip(ks, signs)
                                 if sign < 0), (q, d)


def divisor_count(n):
    return sum(2 - (k * k == n) for k in range(1, isqrt(n) + 1) if n % k == 0)


def test_sophie_sign_rank_follows_the_divisor_law():
    """An observed law, kept as an oracle: the sign rank is tau((p + 1)/2)
    when p = 1 mod 4 and tau(p + 1) - 2 otherwise, tau counting divisors,
    on a seeded sample of the Sophie Germain q <= 92459 (vectors and rank
    only: the curve polynomial there has O(p^2) bits)."""
    pairs = sophie_germain_pairs(92459)
    for pair in random.Random(36).sample(pairs, 20):
        q, p = pair.q, pair.p
        vectors = [split_sign_vector(q, d) for d in split_indices(q)]
        law = divisor_count((p + 1) // 2) if p % 4 == 1 \
            else divisor_count(p + 1) - 2
        assert f2.echelon_rank(vectors) == law, q
        xor = 0
        for v in vectors:
            xor ^= v
        assert xor == 0, q


def test_sophie_lower_at_most_upper_on_builtin_records():
    """lower <= upper for every builtin Sophie Germain record: two
    independent certified computations."""
    store = builtin_class_groups()
    found = [q for q in (pr.q for pr in sophie_germain_pairs(1019))
             if store.get(curve_min_poly(q).int_coeffs()) is not None]
    assert found == [7, 11, 23, 47, 59]
    for q in found:
        assert sophie_lower_bound(q)[0] \
            <= sophie_upper_bound(q, store).upper_bound, q


@pytest.mark.parametrize("q", [11, 23, 47, 59, 83, 479])
def test_lower_bound_same_for_int_and_fraction_y0(q, monkeypatch):
    """y0 = 1 and y0 = Fraction(1) give the same bound and the same
    classes, whose coordinates are all ints (in curve fields, with the
    closed-form factors, as above)."""
    monkeypatch.setattr(bounds.numberfield, "NumberField", CurveField)
    f = split_by_closed_form(monkeypatch, q)
    lower, classes = lower_bound_from_points(f, 1)
    assert lower_bound_from_points(f, Fraction(1)) == (lower, classes)
    assert all(type(c) is int
               for a in classes.representatives for c in a.coords)


def test_lower_at_most_upper_on_shipped_family():
    store = builtin_class_groups()
    for q in (7, 11, 23):
        p = (q - 1) // 2
        f = min_poly_2cos(q, p % 4 == 3)
        lower, _ = lower_bound_from_points(f, Fraction(1))
        assert lower <= sophie_upper_bound(q, store).upper_bound


# -- report serialization ---------------------------------------------------


def test_bound_report_line_format():
    report = BoundReport(curve="cyclo-q11", genus=2, rho_infty="0",
                         j_infty_bound=2, cl2_used=0, cl2_source="literature",
                         g_kernel_dim=0, upper_bound=2, lower_bound=2,
                         hypotheses=())
    assert report.line() == "curve=cyclo-q11 g=2 rho_inf=0 cl2=0 upper=2 lower=2 hyps=none"
    no_lower = BoundReport(curve="cubic-m143", genus=1, rho_infty="0",
                           j_infty_bound=1, cl2_used=4, cl2_source="literature",
                           g_kernel_dim=0, upper_bound=5, lower_bound=None,
                           hypotheses=("davis-taussky-assumed", "x"))
    assert no_lower.line() == ("curve=cubic-m143 g=1 rho_inf=0 cl2=4 upper=5 "
                               "hyps=davis-taussky-assumed,x")


def test_bound_report_describe_mentions_provenance():
    report = BoundReport(curve="cubic-m1", genus=1, rho_infty="0",
                         j_infty_bound=1, cl2_used=0, cl2_source="literature",
                         g_kernel_dim=0, upper_bound=1, lower_bound=None,
                         hypotheses=())
    text = report.describe()
    assert "literature" in text
    assert "upper" in text
