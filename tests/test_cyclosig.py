"""Tests for canonical-unit signatures over real cyclotomic fields.

Oracles: exact real-root isolation for the numeric signature cross-check
(small p), the matrix-rank route as an independent check of the gcd route,
the doubling-loop orbit word and the general F2 gcd as references for the
closed-form word and the primitive-root shortcut on the whole certified
range, and frozen small cases worked by hand.
"""

from __future__ import annotations

import math
import random

import pytest

from jacrank.arith import multiplicative_order
from jacrank.cyclosig import (
    RhoInftyCertificate,
    SophieGermainPair,
    _primitive_gcd_degree,
    build_M_infty,
    canonical_signature,
    certify_rho_infty,
    doubling_permutation,
    orbit_word,
    scan_sophie_germain,
    sophie_germain_pairs,
)
from jacrank.f2 import poly_gcd, rank
from jacrank.polys import min_poly_2cos
from jacrank.roots import isolate_real_roots, sign_at
from jacrank.polys import RationalPoly


CERTIFIED_MAX_Q, CERTIFIED_PAIRS = 92459, 630


def loop_orbit_word(pair: SophieGermainPair) -> int:
    """Reference: the orbit word by walking t = 2^k mod q one step at a time."""
    p, q = pair.p, pair.q
    n = (p - 1) // 2 if p % 4 == 1 else (p + 1) // 2
    buf = bytearray((p + 7) // 8)
    t = 1
    if p % 4 == 1:
        for k in range(p):
            if min(t, q - t) <= n:
                buf[k >> 3] |= 1 << (k & 7)
            t = 2 * t % q
    else:
        for k in range(p):
            if p + 1 - min(t, q - t) <= n:
                buf[k >> 3] |= 1 << (k & 7)
            t = 2 * t % q
    return int.from_bytes(bytes(buf), "little")


def gcd_degree(w: int, p: int) -> int:
    """deg gcd(w, x^p + 1) over F2 by the general gcd."""
    return poly_gcd(w, (1 << p) | 1).bit_length() - 1


def test_pair_validation():
    SophieGermainPair(3, 7)
    SophieGermainPair(5, 11)
    with pytest.raises(ValueError):
        SophieGermainPair(2, 5)  # p must be an odd prime
    with pytest.raises(ValueError):
        SophieGermainPair(7, 15)  # q composite
    with pytest.raises(ValueError):
        SophieGermainPair(5, 13)  # q != 2p+1
    with pytest.raises(ValueError):
        SophieGermainPair(9, 19)  # p composite
    assert SophieGermainPair(5, 11).genus == 2
    assert SophieGermainPair(11, 23).genus == 5


def test_pair_enumeration():
    assert [(pr.p, pr.q) for pr in sophie_germain_pairs(30)] == [(3, 7), (5, 11), (11, 23)]
    assert sophie_germain_pairs(6) == []
    qs = [pr.q for pr in sophie_germain_pairs(200)]
    assert qs == [7, 11, 23, 47, 59, 83, 107, 167, 179]


def test_canonical_signature_frozen():
    assert canonical_signature(SophieGermainPair(5, 11)).signs == (-1, -1, 1, 1, 1)
    assert canonical_signature(SophieGermainPair(3, 7)).signs == (-1, -1, 1)


def test_canonical_signature_matches_sorted_conjugates():
    # the signature must equal the signs of the sorted real conjugates of
    # u = (-1)^((p-1)/2) (zeta + zeta^-1)
    for p, q in [(3, 7), (5, 11), (11, 23)]:
        pair = SophieGermainPair(p, q)
        f = min_poly_2cos(q, p % 4 == 1)
        ivs = isolate_real_roots(f)
        assert len(ivs) == p
        xpoly = RationalPoly([0, 1])
        signs = sign_at(xpoly, ivs)
        assert signs == canonical_signature(pair).signs


def test_canonical_signature_matches_float_evaluation():
    for p, q in [(3, 7), (5, 11), (11, 23), (23, 47)]:
        pair = SophieGermainPair(p, q)
        sgn = -1 if p % 4 == 1 else 1
        vals = sorted(sgn * 2 * math.cos(2 * math.pi * k / q) for k in range(1, p + 1))
        floats = tuple(1 if v > 0 else -1 for v in vals)
        assert floats == canonical_signature(pair).signs


def test_doubling_permutation_frozen():
    assert doubling_permutation(SophieGermainPair(5, 11)).images == (2, 4, 5, 3, 1)
    assert doubling_permutation(SophieGermainPair(3, 7)).images == (3, 1, 2)


def test_doubling_permutation_is_p_cycle():
    for pair in sophie_germain_pairs(300):
        images = doubling_permutation(pair).images
        assert sorted(images) == list(range(1, pair.p + 1))
        assert images != tuple(range(1, pair.p + 1))
        # p prime: any non-identity permutation whose order divides p is a p-cycle
        cur = list(range(1, pair.p + 1))
        for _ in range(pair.p):
            cur = [images[i - 1] for i in cur]
        assert cur == list(range(1, pair.p + 1))


def test_m_infty_frozen_columns():
    m37 = build_M_infty(SophieGermainPair(3, 7))
    assert (m37.rows, m37.cols) == (3, 2)
    cols = [[(m37.bits[i] >> j) & 1 for i in range(3)] for j in range(2)]
    assert cols == [[1, 1, 0], [0, 1, 1]]

    m511 = build_M_infty(SophieGermainPair(5, 11))
    assert (m511.rows, m511.cols) == (5, 4)
    cols = [[(m511.bits[i] >> j) & 1 for i in range(5)] for j in range(4)]
    assert cols == [[1, 1, 0, 0, 0], [1, 0, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 1, 1, 0]]


def test_m_infty_structure():
    for pair in sophie_germain_pairs(150):
        m = build_M_infty(pair)
        assert (m.rows, m.cols) == (pair.p, pair.p - 1)
        f = [1 if s < 0 else 0 for s in canonical_signature(pair).signs]
        # column 0 is the psi-image of the canonical signature
        assert [(m.bits[i] >> 0) & 1 for i in range(pair.p)] == f
        # column j+1 is column j permuted by phi
        images = doubling_permutation(pair).images
        for j in range(pair.p - 2):
            for i in range(1, pair.p + 1):
                assert (m.bits[i - 1] >> (j + 1)) & 1 == (m.bits[images[i - 1] - 1] >> j) & 1
        # omitted p-th column = sum of kept columns (unit has norm 1)
        for i in range(1, pair.p + 1):
            row_sum = bin(m.bits[i - 1]).count("1") % 2
            k = i
            for _ in range(pair.p - 1):
                k = images[k - 1]
            assert row_sum == f[k - 1]


def test_certificates_small():
    c = certify_rho_infty(SophieGermainPair(3, 7))
    assert isinstance(c, RhoInftyCertificate)
    assert c.d_infty == 2 and c.rho_infty_zero
    c = certify_rho_infty(SophieGermainPair(5, 11))
    assert c.d_infty == 4 and c.rho_infty_zero


def test_gcd_route_equals_matrix_route():
    for pair in sophie_germain_pairs(1000):
        fast = certify_rho_infty(pair, method="gcd")
        slow = certify_rho_infty(pair, method="matrix")
        assert fast == slow
        assert slow.d_infty == rank(build_M_infty(pair))
        assert fast.d_infty <= pair.p - 1


def test_closed_form_word_and_shortcut_on_certified_range():
    pairs = sophie_germain_pairs(CERTIFIED_MAX_Q)
    assert len(pairs) == CERTIFIED_PAIRS
    primitive = 0
    for pair in pairs:
        w = orbit_word(pair)
        assert w == loop_orbit_word(pair), pair
        if multiplicative_order(2, pair.p) == pair.p - 1:
            primitive += 1
            shortcut_d = pair.p - _primitive_gcd_degree(w, pair.p)
            assert shortcut_d == pair.p - gcd_degree(w, pair.p), pair
            assert certify_rho_infty(pair).d_infty == shortcut_d
    assert primitive == 282


def test_primitive_shortcut_branches():
    rng = random.Random(5)
    for p in (3, 5, 11, 13, 19, 29):
        assert multiplicative_order(2, p) == p - 1
        ones = (1 << p) - 1
        words = [0, ones]
        while len(words) < 12:
            w = rng.randrange(1, ones)
            if w.bit_count() % 2 == len(words) % 2:
                words.append(w)  # alternately even and odd weight
        for w in words:
            assert _primitive_gcd_degree(w, p) == gcd_degree(w, p), (p, w)
        assert _primitive_gcd_degree(0, p) == p
        assert _primitive_gcd_degree(ones, p) == p - 1


def test_certify_rejects_unknown_method():
    with pytest.raises(ValueError):
        certify_rho_infty(SophieGermainPair(3, 7), method="lattice")


def test_scan_small():
    certs = scan_sophie_germain(30)
    assert [(c.pair.p, c.pair.q) for c in certs] == [(3, 7), (5, 11), (11, 23)]
    assert all(c.rho_infty_zero for c in certs)
    assert scan_sophie_germain(6) == []


def test_scan_threads_deterministic():
    # the scan is serial: it equals the per-pair certificates in ascending q
    certs = scan_sophie_germain(2000)
    pairs = sorted(sophie_germain_pairs(2000), key=lambda pr: pr.q)
    assert certs == [certify_rho_infty(pr) for pr in pairs]
