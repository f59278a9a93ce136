"""Acceptance criteria. One test per criterion; each prints one line.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion
pass/fail listing.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

import pytest

from jacrank.bounds import (
    curve_min_poly,
    lower_bound_from_points,
    sophie_upper_bound,
    washington_bound,
    washington_local_certificate,
)
from jacrank.cli import main as cli_main
from jacrank.cyclosig import (
    SophieGermainPair,
    orbit_word,
    scan_sophie_germain,
    sophie_germain_pairs,
)
from jacrank.factor import factor_over_Q
from jacrank.modpoly import PrimePoly, factor_mod_p, is_squarefree_mod_p
from jacrank.numberfield import NumberField
from jacrank.polys import RationalPoly, format_poly, min_poly_2cos
from jacrank.stats import (
    format_cross_table,
    format_first_occurrences,
    format_sharp_table,
    sharpness_stats,
)
from jacrank.stores import builtin_class_groups, ingest_rank_data, parse_rank_data
from test_arith import is_squarefree_integer, primes_with_odd_order_of_two
from test_cyclosig import float_doubling
from test_polys import compose
from test_roots import euclid_gcd


def report(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n}: PASS {message}")


def test_criterion_1_rho_infty_scan(certified_scan):
    start = time.monotonic()
    gate = scan_sophie_germain(20000)
    gate_elapsed = time.monotonic() - start
    assert all(c.rho_infty_zero for c in gate)
    assert gate_elapsed < 10.0, f"20000-gate took {gate_elapsed:.1f}s"

    certs, elapsed = certified_scan  # the serial scan to q = 92459
    failures = [c for c in certs if not c.rho_infty_zero]
    assert failures == []
    assert all(c.d_infty == c.pair.p - 1 for c in certs)
    assert elapsed < 120.0, f"full scan took {elapsed:.1f}s"
    report(1, f"all {len(certs)} pairs up to q=92459 certified "
              f"in {elapsed:.1f}s (gate {gate_elapsed:.1f}s)")


def test_criterion_2_minimal_polynomials(capsys):
    expected = {
        7: "x^3 - x^2 - 2x + 1",
        11: "x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1",
        23: "x^11 - x^10 - 10x^9 + 9x^8 + 36x^7 - 28x^6 - 56x^5 + 35x^4 "
            "+ 35x^3 - 15x^2 - 6x + 1",
    }
    for q, text in expected.items():
        assert format_poly(curve_min_poly(q)) == text
        assert cli_main(["minpoly", "--q", str(q)]) == 0
        assert capsys.readouterr().out.rstrip("\n") == text
    report(2, "minimal polynomials for q in {7, 11, 23} byte-for-byte")


def test_criterion_3_worked_example_end_to_end():
    f = curve_min_poly(11)
    assert [g.int_coeffs() for g in factor_over_Q(f - RationalPoly([1]))] == [
        [0, 1], [-3, 0, 1], [-1, 1, 1]]

    lower, classes = lower_bound_from_points(f, Fraction(1))
    reps = classes.representatives
    assert [tuple(c.coords) for c in reps] == [
        (0, -1, 0, 0, 0), (-3, 0, 1, 0, 0), (-1, 1, 1, 0, 0)]

    field = classes.field
    product = field.element([1])
    for cls in reps:
        product = product * cls
    ok, witness = field.is_square(product)
    assert ok and witness is not None and witness * witness == product

    non_square = reps[0] * reps[1]  # -theta (theta^2 - 3)
    assert field.is_square(non_square) == (False, None)

    upper = sophie_upper_bound(11, builtin_class_groups()).upper_bound
    assert lower == 2 and upper == 2
    report(3, "q=11 example: factorization, classes, product square, "
              "non-square certificate, lower = upper = 2")


def test_criterion_4_lower_bounds_desk_scale():
    got = {}
    for q, expected in ((11, 2), (23, 4), (47, 6), (59, 4)):
        lower, _ = lower_bound_from_points(curve_min_poly(q), Fraction(1))
        assert lower == expected, f"q={q}: lower {lower} != {expected}"
        got[(q - 1) // 2] = lower
    report(4, "lower bounds p=5,11,23,29 -> "
              + ",".join(str(got[p]) for p in (5, 11, 23, 29)))


def test_criterion_5_washington_pipeline():
    store = builtin_class_groups()
    bounds = {m: washington_bound(m, store).upper_bound for m in (1, 11, 143)}
    assert bounds == {1: 1, 11: 3, 143: 5}
    report(5, "upper bounds 1, 3, 5 for m = 1, 11, 143")


def test_criterion_6_local_certificates_to_2000():
    start = time.monotonic()
    checked = 0
    for m in range(1, 2001):
        if not is_squarefree_integer(m * m + 3 * m + 9):
            continue
        assert washington_local_certificate(m).conclusion, f"m={m}"
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"certificate sweep took {elapsed:.1f}s"
    report(6, f"{checked} certificates for m <= 2000 in {elapsed:.1f}s")


def test_criterion_7_odd_order_primes():
    assert set(primes_with_odd_order_of_two(100)) == {7, 23, 31, 47, 71, 73,
                                                      79, 89}
    report(7, "odd-order primes below 100 match")


def _char_poly(field: NumberField, coords) -> RationalPoly:
    """det(t I - M) for the multiplication matrix M of the element; the
    oracle avoids the squareness pipeline entirely."""
    n = field.degree
    elem = field.element(list(coords))
    cols = []
    power = field.element([1])
    for j in range(n):
        cols.append((elem * power).coords)
        power = power * field.element([0, 1])
    # rows of tI - M as RationalPoly entries
    entries = [[RationalPoly([-cols[j][i], 1] if i == j else [-cols[j][i]])
                for j in range(n)] for i in range(n)]
    assert n == 3  # cofactor expansion below is for the cubic oracle only
    a, b, c = entries[0]
    d, e, g = entries[1]
    h, i, j = entries[2]
    return a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h)


def test_criterion_8a_squareness_box_oracle():
    field = NumberField(curve_min_poly(7))
    agreements = 0
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                if a == b == c == 0:
                    continue
                elem = field.element([a, b, c])
                got, witness = field.is_square(elem)
                if b == 0 and c == 0:
                    expected = field._is_rational_square(Fraction(a))
                else:
                    # square in the field iff the degree-6 polynomial
                    # prod_i (x^2 - e_i) = charpoly(x^2) has a cubic factor
                    char = _char_poly(field, (a, b, c))
                    sq = compose(char, RationalPoly([0, 0, 1]))
                    expected = any(g.deg() % 2 == 1 for g in factor_over_Q(sq))
                assert got == expected, f"({a},{b},{c})"
                if got:
                    assert witness is not None and witness * witness == elem
                agreements += 1
    report(8, f"(a) squareness oracle agreement on {agreements} box elements")


def test_criterion_8b_delta_product_triviality():
    rng = random.Random("delta-product-triviality")
    fields = {q: curve_min_poly(q) for q in (7, 11, 23)}
    done = 0
    while done < 50:
        q = rng.choice((7, 7, 11, 11, 23))
        y0 = Fraction(rng.randint(1, 6), rng.choice((1, 1, 2, 3)))
        if rng.random() < 0.3:
            y0 = -y0
        try:
            _, classes = lower_bound_from_points(fields[q], y0)
        except ValueError:
            continue  # f - y0^2 not square-free for this draw
        field = classes.field
        product = field.element([1])
        for rep in classes.representatives:
            product = product * rep
        ok, witness = field.is_square(product)
        assert ok and witness is not None and witness * witness == product
        done += 1
    report(8, "(b) delta-class product is a verified square for 50 pairs")


def test_criterion_8c_factorization_roundtrips():
    rng = random.Random("factor-roundtrip")
    done = 0
    while done < 200:
        deg = rng.randint(1, 12)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice((1, 1, 1, 2, 3, -1))))
        f = RationalPoly(coeffs)
        if f.deg() < 1:
            continue
        done += 1
        if euclid_gcd(f, f.derivative()).deg() > 0:  # a repeated factor
            with pytest.raises(ValueError, match="repeated factor"):
                factor_over_Q(f)
            continue
        factors = factor_over_Q(f)
        rebuilt = RationalPoly([f.coeffs[-1]])
        for g in factors:
            assert g.is_monic()
            rebuilt = rebuilt * g
        assert rebuilt == f
        # mod-p consistency: for a prime where f stays square-free, the
        # mod-p factor degrees of f refine those of its rational factors
        for p in (101, 103, 107, 109, 113):
            fp = PrimePoly(p, [c.numerator * pow(c.denominator, -1, p) % p
                               for c in f.coeffs])
            if len(fp.coeffs) - 1 != f.deg():
                continue
            if not is_squarefree_mod_p(fp.coeffs, p):
                continue
            whole = sorted(len(g.coeffs) - 1 for g in factor_mod_p(fp))
            refined = []
            for g in factors:
                gp = PrimePoly(p, [c.numerator * pow(c.denominator, -1, p) % p
                                   for c in g.coeffs])
                refined.extend(len(h.coeffs) - 1 for h in factor_mod_p(gp))
            assert sorted(refined) == whole
            break
    report(8, "(c) 200 factorizations: round-trips with mod-p consistency, "
              "repeated factors rejected")


def test_criterion_8d_doubling_cycle_and_orbit_parity():
    pairs = sophie_germain_pairs(1000)
    assert pairs[0] == SophieGermainPair(3, 7)
    for pair in pairs:
        images = float_doubling(pair)
        seen = set()
        i = 1
        for _ in range(pair.p):
            seen.add(i)
            i = images[i - 1]
        assert i == 1 and len(seen) == pair.p  # a single p-cycle
        # norm-one unit: every signature orbit has even minus-count
        word = orbit_word(pair)
        assert bin(word).count("1") % 2 == 0
    report(8, f"(d) doubling is a p-cycle with even orbit parity for "
              f"{len(pairs)} pairs up to q=1000")


def test_criterion_9_statistics():
    synthetic = ingest_rank_data(
        os.path.join(os.path.dirname(__file__), os.pardir, "src", "jacrank",
                     "data", "synthetic_ranks.txt"))
    tables = sharpness_stats(synthetic, [(1, 10), (11, 20)])
    assert [(r.numerator, r.denominator) for r in tables.sharp_rows] \
        == [(5, 8), (1, 4)]
    assert dict(tables.cells)[(1, 1)] == 3

    path = os.environ.get("JACRANK_AUTHORS_RANKS")
    if not path:
        report(9, "synthetic dataset exact; authors' dataset not supplied "
                  "(set JACRANK_AUTHORS_RANKS to a ranks v1 file)")
        return
    authors = ingest_rank_data(path)
    intervals = [(k * 1000 + 1, (k + 1) * 1000) for k in range(20)]
    at = sharpness_stats(authors, intervals)
    sharp_lines = format_sharp_table(at).splitlines()
    assert "[1,1000] 0.91451" in sharp_lines
    assert "t1=7391" in format_cross_table(at).splitlines()[0]
    assert "first r=5 b=5 m=143" in format_first_occurrences(at).splitlines()
    report(9, "synthetic dataset exact; authors' dataset rows reproduced")
