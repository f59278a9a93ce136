"""Tests for canonical-unit signatures over real cyclotomic fields.

Oracles: exact real-root isolation for the canonical unit's signs
(small p), M_infty from its definition on
floating-point conjugates, checked to lie well apart and away from 0, the
matrix-rank route as an independent check of the gcd route,
the doubling-loop orbit word and the general F2 gcd as references for the
closed-form word and the coset probe, row by row and column by column, on
the whole certified range, on seeded random words (2 a primitive root mod
p included) and on words built to vanish on a coset, the walk of <2> as the
reference coset labelling, the row-wise probe matrix as the reference for
its column-wise build, and frozen small cases worked by hand.
"""

from __future__ import annotations

import bisect
import contextlib
import errno
import math
import os
import random
import signal
import time
import tracemalloc
from itertools import islice

import pytest

from jacrank import cyclosig
from jacrank.arith import is_prime, order_dividing, primes_upto
from jacrank.cli import main as cli_main
from jacrank.cyclosig import (
    RhoInftyCertificate,
    SophieGermainPair,
    _column_lanes,
    _coset_masks,
    _poly_gcd_degree,
    _probe_columns,
    _probe_gcd_degree,
    _probe_rows,
    _route,
    _shares,
    build_M_infty,
    certify_rho_infty,
    orbit_word,
    scan_sophie_germain,
    sophie_germain_pairs,
)
from jacrank.f2 import poly_gcd, rank
from jacrank.polys import RationalPoly, min_poly_2cos
from jacrank.roots import isolate_real_roots, sign_at
from test_arith import order_oracle
from test_f2 import clmul


CERTIFIED_MAX_Q, CERTIFIED_PAIRS = 92459, 630


def loop_orbit_word(pair: SophieGermainPair) -> int:
    """Reference: the orbit word by walking t = 2^k mod q one step at a time.

    w_k = 1 when min(t, q - t) <= n for p = 1 mod 4, and when
    p + 1 - min(t, q - t) <= n, that is min(t, q - t) >= p + 1 - n, for
    p = 3 mod 4. The digits are kept as ASCII text, w_0 first, and packed
    in that order: bit p-1-k = w_k."""
    p, q = pair.p, pair.q
    n = (p - 1) // 2 if p % 4 == 1 else (p + 1) // 2
    digits = bytearray(b"0" * p)
    t = 1
    if p % 4 == 1:
        for k in range(p):
            if t <= n or t >= q - n:
                digits[k] = 49  # "1"
            t += t
            if t >= q:
                t -= q
    else:
        m = p + 1 - n
        for k in range(p):
            if m <= t <= q - m:
                digits[k] = 49  # "1"
            t += t
            if t >= q:
                t -= q
    return int(digits, 2)


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail with TimeoutError instead of hanging, e.g. on a pipe whose
    write end some process still holds."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def reversed_word(w: int, p: int) -> int:
    """The length-p word w read backwards: bit k becomes bit p-1-k."""
    return int(format(w, f"0{p}b")[::-1], 2)


def walk_coset_masks(p: int, m: int) -> list:
    """Reference labelling: the masks sum of 2^n over n in C of the cosets
    C of H = <2> in (Z/p)^x, H first.

    H is walked once, n -> 2n mod p, into ASCII digits. The coset aH of the
    least residue a not yet covered is H's indicator moved by n -> an mod
    p: the n in [ceil(jp/a), ceil((j+1)p/a)) land on an - jp, one slice of
    stride a for each j < a."""
    h = bytearray(b"0") * p
    n = 1
    for _ in range(m):
        h[n] = 49  # "1"
        n += n
        if n >= p:
            n -= p
    residues = (1 << p) - 2  # bits 1..p-1
    masks = []
    covered = 0
    a = 1
    while covered != residues:
        digits = bytearray(p)
        for j in range(a):
            lo = -(-j * p // a)
            digits[a * lo - j * p::a] = h[lo:-(-(j + 1) * p // a)]
        mask = int(digits[::-1], 2)
        masks.append(mask)
        covered |= mask
        free = residues & ~covered
        a = (free & -free).bit_length() - 1
    return masks


def gcd_degree(w: int, p: int, gcd=poly_gcd) -> int:
    """deg gcd(w, x^p + 1) over F2 by a general gcd, the production one
    unless the conftest's `reference_gcd` is passed."""
    return gcd(w, (1 << p) | 1).bit_length() - 1


def counting_poly_gcd(monkeypatch) -> list:
    """Replace the gcd the probe falls back on by one that logs its calls."""
    calls = []

    def logged(a, b):
        calls.append(b.bit_length() - 1)
        return poly_gcd(a, b)

    monkeypatch.setattr(cyclosig, "poly_gcd", logged)
    return calls


def float_conjugates(pair: SophieGermainPair) -> list:
    """The conjugates s 2cos(2 pi k/q), k = 1..p, of the canonical unit,
    s = -1 exactly when p = 1 mod 4, as (value, k) in ascending order."""
    s = -1 if pair.p % 4 == 1 else 1
    return sorted((s * 2 * math.cos(2 * math.pi * k / pair.q), k)
                  for k in range(1, pair.p + 1))


def float_doubling(pair: SophieGermainPair) -> list:
    """phi from the floats: phi[i-1] is the 1-based index of sigma(r_i) among
    the ascending conjugates r_1 < ... < r_p, sigma(zeta + zeta^-1) =
    zeta^2 + zeta^-2. Conjugates of odd q <= 1000 lie at least 1e-5 apart."""
    s = -1 if pair.p % 4 == 1 else 1
    conj = float_conjugates(pair)
    values = [v for v, _ in conj]
    images = []
    for _, k in conj:
        image = s * 2 * math.cos(2 * math.pi * 2 * k / pair.q)
        at = bisect.bisect_left(values, image - 1e-9)
        assert abs(values[at] - image) < 1e-9
        images.append(at + 1)
    return images


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


def test_sieve_pairs_equal_validated_pairs():
    """The sieve builds its pairs without re-running the primality checks;
    each still equals the validated SophieGermainPair(p, q), in type too,
    while the public constructor keeps rejecting bad input."""
    pairs = sophie_germain_pairs(92459)
    assert len(pairs) == 630
    for pr in pairs:
        checked = SophieGermainPair(pr.p, pr.q)
        assert type(pr) is SophieGermainPair
        assert pr == checked and hash(pr) == hash(checked)
        assert repr(pr) == repr(checked)
    for p, q in ((4, 9), (5, 13)):
        with pytest.raises(ValueError):
            SophieGermainPair(p, q)


def test_pair_enumeration():
    assert [(pr.p, pr.q) for pr in sophie_germain_pairs(30)] == [(3, 7), (5, 11), (11, 23)]
    assert sophie_germain_pairs(6) == []
    qs = [pr.q for pr in sophie_germain_pairs(200)]
    assert qs == [7, 11, 23, 47, 59, 83, 107, 167, 179]


def test_pair_enumeration_equals_primality_test():
    """The merge walk over the sieve gives the pairs that Miller-Rabin on p
    and q gives, at every bound to 2000 and at the scan's bounds, among
    them bounds such as 16, where q = 2 * 7 + 1 <= 16 lies above the
    largest prime <= 16 and the bisection returns the end of the list."""
    top = 100003
    expected = [(p, 2 * p + 1) for p in range(3, (top - 1) // 2 + 1, 2)
                if is_prime(p) and is_prime(2 * p + 1)]
    assert primes_upto(16)[-1] < 2 * 7 + 1 <= 16
    for n in [*range(2001), 60000, 92459, top]:
        pairs = sophie_germain_pairs(n)
        assert [(pr.p, pr.q) for pr in pairs] == \
            [pq for pq in expected if pq[1] <= n], n
        assert all(type(pr) is SophieGermainPair for pr in pairs)


def traced_peak(f, n: int) -> int:
    """The tracemalloc peak, in bytes, of one call f(n)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        f(n)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("n", [60000, 92459])
def test_pair_enumeration_allocates_no_more_than_its_sieve(n):
    """The sorted prime list answers the membership test: enumerating the
    pairs allocates about what the sieve does, no set of primes besides."""
    assert traced_peak(sophie_germain_pairs, n) <= 1.1 * traced_peak(primes_upto, n)


def test_canonical_signature_frozen():
    """Column 0 of M_infty is psi of the hand-worked signs of the canonical
    unit at its ascending conjugates."""
    for (p, q), signs in [((3, 7), (-1, -1, 1)), ((5, 11), (-1, -1, 1, 1, 1))]:
        m = build_M_infty(SophieGermainPair(p, q))
        assert tuple(row & 1 for row in m.bits) == tuple(int(s < 0) for s in signs)


def test_canonical_signature_matches_sorted_conjugates():
    """Column 0 of M_infty is psi of the canonical unit's signs at its
    ascending conjugates, u = (-1)^((p-1)/2) (zeta + zeta^-1) being the
    field generator theta of min_poly_2cos, by exact real-root isolation."""
    for p, q in [(3, 7), (5, 11), (11, 23)]:
        m = build_M_infty(SophieGermainPair(p, q))
        column = tuple(row & 1 for row in m.bits)
        f = min_poly_2cos(q, p % 4 == 1)
        ivs = isolate_real_roots(f)
        assert len(ivs) == p
        signs = sign_at(RationalPoly([0, 1]), ivs)
        assert tuple(int(s < 0) for s in signs) == column


def test_canonical_signature_matches_float_evaluation():
    """Column 0 of M_infty is psi of the signs of the sorted float
    conjugates s 2cos(2 pi k/q) of the canonical unit."""
    for p, q in [(3, 7), (5, 11), (11, 23), (23, 47)]:
        pair = SophieGermainPair(p, q)
        column = tuple(row & 1 for row in build_M_infty(pair).bits)
        assert tuple(int(v < 0) for v, _ in float_conjugates(pair)) == column


def test_doubling_permutation_frozen():
    """The hand-worked phi for q = 7, 11 from the floats, and column j + 1
    of M_infty is column j permuted by it."""
    frozen = {(3, 7): [3, 1, 2], (5, 11): [2, 4, 5, 3, 1]}
    for (p, q), images in frozen.items():
        pair = SophieGermainPair(p, q)
        assert float_doubling(pair) == images
        bits = build_M_infty(pair).bits
        for j in range(p - 2):
            for i in range(p):
                assert (bits[i] >> (j + 1)) & 1 == (bits[images[i] - 1] >> j) & 1


def test_doubling_permutation_is_p_cycle():
    for pair in sophie_germain_pairs(300):
        images = float_doubling(pair)
        seen, i = set(), 1
        for _ in range(pair.p):
            seen.add(i)
            i = images[i - 1]
        assert i == 1 and len(seen) == pair.p  # one p-cycle


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
    """M_infty from first principles, for every pair with q <= 1000: entry
    (i, j) is 1 exactly when s 2cos(2 pi k_i 2^j/q) < 0, where the i-th
    least conjugate s 2cos(2 pi k/q) of the canonical unit has k = k_i and
    s = -1 exactly when p = 1 mod 4. Float signs and order are exact here:
    no conjugate lies within 1e-3 of 0, and no two within 1e-5."""
    pairs = sophie_germain_pairs(1000)
    assert len(pairs) == 24
    for pair in pairs:
        p, q = pair.p, pair.q
        conj = float_conjugates(pair)
        values = [v for v, _ in conj]
        assert min(abs(v) for v in values) > 1e-3
        assert min(b - a for a, b in zip(values, values[1:])) > 1e-5
        # s 2cos(2 pi t/q) < 0 for t = 0..q-1: conjugate k = t or q - t
        s = -1 if p % 4 == 1 else 1
        negative = [s * math.cos(2 * math.pi * t / q) < 0 for t in range(q)]
        m = build_M_infty(pair)
        assert (m.rows, m.cols) == (p, p - 1)
        for row, (_, k) in zip(m.bits, conj):
            want = sum(negative[k * pow(2, j, q) % q] << j for j in range(p - 1))
            assert row == want, (pair, k)


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


def test_closed_form_word_and_shortcut_on_certified_range(certified_scan, reference_gcd):
    # the reference gcd is compiled when a compiler is present, a few times
    # faster than the production loop it is checked against in test_f2
    pairs = sophie_germain_pairs(CERTIFIED_MAX_Q)
    assert len(pairs) == CERTIFIED_PAIRS
    certs, _ = certified_scan
    assert [c.pair for c in certs] == pairs
    routes = {"probe": 0, "columns": 0, "gcd": 0}
    for pair, cert in zip(pairs, certs):
        w = orbit_word(pair)
        assert w == loop_orbit_word(pair), pair  # digit order: bit p-1-k = w_k
        route, m, _ = _route(pair.p)
        routes[route] += 1
        assert m == order_oracle(2, pair.p)
        # every route, the probe included, equals the general gcd
        assert cert.d_infty == pair.p - gcd_degree(w, pair.p, reference_gcd), pair
    assert routes == {"probe": 603, "columns": 14, "gcd": 13}


def test_gcd_degree_is_the_same_for_a_word_and_its_reversal(reference_gcd, monkeypatch):
    """x -> 1/x is an automorphism of F2[x]/(x^p - 1), so no route may see
    the order in which the orbit word is packed: on every pair with
    q <= 1000, on a seeded sample of the certified range above it and on
    every pair of the column-wise probe's route, the general gcd and the
    coset probe, row by row and column by column, give one degree for w
    and for w read backwards. The column-wise probe settles each of these
    words without the gcd."""
    pairs = sophie_germain_pairs(CERTIFIED_MAX_Q)
    small = [pr for pr in pairs if pr.q <= 1000]
    sample = random.Random(16).sample(pairs[len(small):], 12)
    columnwise = [pr for pr in pairs if _route(pr.p)[0] == "columns"]
    calls = counting_poly_gcd(monkeypatch)
    routes = set()
    for pair in small + sample + columnwise:
        p = pair.p
        route, m, _ = _route(p)
        routes.add(route)
        w = orbit_word(pair)
        for word in (w, reversed_word(w, p)):
            degrees = {_poly_gcd_degree(word, p)}
            if pair.q <= 1000 or route == "probe":
                degrees.add(_probe_gcd_degree(word, p, m))
            if pair.q <= 1000 or route == "columns":
                del calls[:]
                degrees.add(_probe_gcd_degree(word, p, m, columns=True))
                assert calls == [], pair
            assert degrees == {gcd_degree(w, p, reference_gcd)}, pair
    assert len(columnwise) == 14
    assert routes == {"probe", "columns", "gcd"}


def test_parallel_scan_equals_serial_on_certified_range(certified_scan, monkeypatch):
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1])
    with deadline(300):
        certs = scan_sophie_germain(CERTIFIED_MAX_Q, workers=2)
    assert certs == certified_scan[0]


def test_primitive_shortcut_branches(monkeypatch):
    """Where 2 is a primitive root mod p (e = 1) the probe labels no coset,
    its rows being (w_j, wt w mod 2), and matches the general gcd on words
    of either weight parity and on 0 and the all-ones word. Those two never
    reach the probe's target rank, so they take the gcd fallback once p
    exceeds the e + 64 rows read; the orbit word of each pair among these p
    is certified as the gcd says."""
    rng = random.Random(5)
    calls = counting_poly_gcd(monkeypatch)
    for p in (3, 5, 11, 13, 19, 29, 83, 131):
        assert order_oracle(2, p) == p - 1
        assert _coset_masks(p, p - 1) == []
        ones = (1 << p) - 1
        words = [0, ones]
        while len(words) < 12:
            w = rng.randrange(1, ones)
            if w.bit_count() % 2 == len(words) % 2:
                words.append(w)  # alternately even and odd weight
        for w in words:
            assert _probe_gcd_degree(w, p, p - 1) == gcd_degree(w, p), (p, w)
        del calls[:]
        assert _probe_gcd_degree(0, p, p - 1) == p
        assert _probe_gcd_degree(ones, p, p - 1) == p - 1
        assert len(calls) == (2 if p > 1 + cyclosig._PROBE_SPARE_ROWS else 0), p
        if p in (3, 5, 11, 29, 83, 131):  # 2p + 1 is prime
            pair = SophieGermainPair(p, 2 * p + 1)
            assert certify_rho_infty(pair).d_infty == p - gcd_degree(orbit_word(pair), p)


def all_coset_masks(p: int, m: int) -> list:
    """The e - 1 masks of `_coset_masks`, H first, and the last coset's
    mask as the complement of theirs in the residues 1..p-1."""
    masks = _coset_masks(p, m)
    assert len(masks) == (p - 1) // m - 1
    covered = 0
    for mask in masks:
        covered |= mask
    return masks + [((1 << p) - 2) ^ covered]


# e = 2 with p = 1 and 7 mod 8, e = 3, e = 4 and e >= 5; up to p = 47 the
# probe reads all p rows, from p = 71 on it falls back to the gcd
VANISHING_PRIMES = (17, 23, 31, 43, 71, 97, 113, 127, 251, 257, 281)


def test_coset_masks_equal_the_walk_of_two():
    """The labelling from doublings, negation and dilations gives H first
    and the same cosets as the walk of <2> on every p with e > 1 and
    8 e^2 <= p with q <= 92459 and on the primes below. These take m even
    and odd, e = 2, more than one doubling (d > 1), and least generators g
    of the quotient (Z/p)^x / H from 3 up."""
    es = {pr.p: (pr.p - 1) // order_oracle(2, pr.p)
          for pr in sophie_germain_pairs(CERTIFIED_MAX_Q)}
    ps = [p for p, e in es.items() if e > 1 and 8 * e * e <= p]
    assert len(ps) == 332
    seen = {"m even": 0, "m odd": 0, "e = 2": 0, "d > 1": 0}
    gs = set()
    for p in ps + list(VANISHING_PRIMES) + [8191]:
        m = order_oracle(2, p)
        e = (p - 1) // m
        masks = all_coset_masks(p, m)
        reference = walk_coset_masks(p, m)
        assert masks[0] == reference[0] and sorted(masks) == sorted(reference), p
        seen["m even" if m % 2 == 0 else "m odd"] += 1
        seen["e = 2"] += e == 2
        half = m // 2 if m % 2 == 0 else m
        seen["d > 1"] += cyclosig._WALK_STEPS_PER_DOUBLING * half // p >= 4
        # g^k lies in H, that is g^(km) = 1, for no 0 < k < e
        gs.add(next(g for g in range(3, p)
                    if all(pow(g, k * m, p) != 1 for k in range(1, e))))
    assert min(seen.values()) >= 10, seen
    assert {3, 5, 7, 11} <= gs, sorted(gs)


def test_coset_masks_partition_residues_into_doubling_orbits():
    for p in VANISHING_PRIMES + (8191,):  # e = 630: representatives up to 4k
        m = order_oracle(2, p)
        masks = all_coset_masks(p, m)
        assert len(masks) == (p - 1) // m
        assert masks[0] == sum(1 << pow(2, k, p) for k in range(m))
        union = 0
        for mask in masks:
            assert mask.bit_count() == m and mask & union == 0
            n = (mask & -mask).bit_length() - 1
            assert mask == sum(1 << (n * pow(2, k, p) % p) for k in range(m)), p
            union |= mask
        assert union == (1 << p) - 2


def vanishing_words(p: int, m: int, rng: random.Random) -> list:
    """0, all-ones, 1, a random word, and 24 words that are multiples of
    gcd(D_i + c, x^p - 1) for a random coset sum D_i and c in {0, 1}: D_i + c
    takes the value c + 1 at the roots of the cosets where D_i is 0 or 1,
    so that gcd is a product of coset factors."""
    masks = all_coset_masks(p, m)
    full = (1 << p) | 1
    ones = (1 << p) - 1
    words = [0, ones, 1, rng.randrange(1, ones)]
    for _ in range(24):
        d = rng.choice(masks) ^ rng.randrange(2)
        product = clmul(poly_gcd(d, full), rng.randrange(1, ones))
        words.append((product & ones) ^ (product >> p))  # mod x^p - 1
    return words


@pytest.mark.parametrize("p", VANISHING_PRIMES)
def test_probe_equals_gcd_on_words_vanishing_on_a_coset(p, monkeypatch):
    rng = random.Random(p)
    m = order_oracle(2, p)
    e = (p - 1) // m
    words = vanishing_words(p, m, rng)
    calls = counting_poly_gcd(monkeypatch)
    vanishing = 0
    for w in words:
        want = gcd_degree(w, p)
        del calls[:]
        assert _probe_gcd_degree(w, p, m) == want, (p, w)
        vanishes = want >= m  # w is 0 at the roots of a whole coset
        vanishing += vanishes
        # rank short of e + 1 - [wt even] within e + 64 < p rows: the gcd
        assert calls == ([p] if vanishes and e + 64 < p else []), (p, w)
    assert vanishing >= 8


@pytest.mark.parametrize("p", VANISHING_PRIMES)
def test_column_probe_equals_gcd_on_vanishing_and_random_words(p, monkeypatch):
    """The column-wise probe gives the gcd degree on the words of the
    row-wise test and on 16 more seeded random words. Its R = 64 lanes rows
    are all p rows up to p = 43, where it never calls the gcd; above, a
    word that vanishes on a coset goes to the gcd, and no other word does."""
    rng = random.Random(p + 1)
    m = order_oracle(2, p)
    rows = 64 * _column_lanes((p - 1) // m)
    words = vanishing_words(p, m, rng)
    words += [rng.randrange(1 << p) for _ in range(16)]
    calls = counting_poly_gcd(monkeypatch)
    vanishing = 0
    for w in words:
        want = gcd_degree(w, p)
        del calls[:]
        assert _probe_gcd_degree(w, p, m, columns=True) == want, (p, w)
        vanishes = want >= m
        vanishing += vanishes
        assert calls == ([p] if vanishes and rows < p else []), (p, w)
    assert vanishing >= 8
    assert (rows >= p) == (p <= 43)


def test_column_probe_equals_gcd_on_random_words_of_its_route(reference_gcd, monkeypatch):
    """Two seeded random words for each prime of the column-wise route with
    q <= 92459, e from 32 to 329 and up to six lanes: no coset vanishes on
    them but by chance, and the probe must prove that without the gcd."""
    rng = random.Random(25)
    calls = counting_poly_gcd(monkeypatch)
    ps = [pr.p for pr in sophie_germain_pairs(CERTIFIED_MAX_Q)
          if _route(pr.p)[0] == "columns"]
    assert {_column_lanes((p - 1) // _route(p)[1]) for p in ps} == {1, 2, 4, 6}
    for p in ps:
        m = _route(p)[1]
        for _ in range(2):
            w = rng.randrange(1 << p)
            want = gcd_degree(w, p, reference_gcd)
            del calls[:]
            assert _probe_gcd_degree(w, p, m, columns=True) == want, p
            assert calls == ([p] if want >= m else []), p


def test_probe_columns_are_the_transposed_rows():
    """On every prime 3 <= p <= 300 with e > 1, and one, two and the
    production number of lanes, bit j of column i of `_probe_columns` is bit
    i of row j of `_probe_rows`, for 0, all-ones and three seeded random
    words; R = 64 lanes rows exceed p for the small primes, where the rows
    cycle."""
    rng = random.Random(300)
    checked = 0
    for p in primes_upto(300)[1:]:
        m = order_oracle(2, p)
        e = (p - 1) // m
        if e == 1:
            continue
        masks = _coset_masks(p, m)
        for w in [0, (1 << p) - 1] + [rng.randrange(1 << p) for _ in range(3)]:
            for lanes in sorted({1, 2, _column_lanes(e)}):
                rows = list(islice(_probe_rows(w, p, masks), 64 * lanes))
                transposed = [sum(((row >> i) & 1) << j for j, row in enumerate(rows))
                              for i in range(e + 1)]
                assert _probe_columns(w, p, m, lanes) == transposed, (p, w, lanes)
                checked += 1
    assert checked >= 200


def test_probe_falls_back_to_gcd_when_rows_run_out(monkeypatch):
    monkeypatch.setattr(cyclosig, "_PROBE_SPARE_ROWS", 0)
    calls = counting_poly_gcd(monkeypatch)
    fallbacks = 0
    for pair in sophie_germain_pairs(5000):
        route, m, _ = _route(pair.p)
        if route != "probe":
            continue
        w = orbit_word(pair)
        del calls[:]
        assert _probe_gcd_degree(w, pair.p, m) == gcd_degree(w, pair.p), pair
        # e rows cannot reach rank e + 1 when the weight is odd
        if w.bit_count() % 2:
            assert calls == [pair.p], pair
        fallbacks += len(calls)
    assert fallbacks >= 10


def test_certify_rejects_unknown_method():
    with pytest.raises(ValueError):
        certify_rho_infty(SophieGermainPair(3, 7), method="lattice")


def test_scan_small():
    certs = scan_sophie_germain(30)
    assert [(c.pair.p, c.pair.q) for c in certs] == [(3, 7), (5, 11), (11, 23)]
    assert all(c.rho_infty_zero for c in certs)


def test_scan_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="non-negative"):
        scan_sophie_germain(-5)
    assert scan_sophie_germain(0) == scan_sophie_germain(6) == []
    assert scan_sophie_germain(6) == []


def test_scan_threads_deterministic(monkeypatch):
    # four CPUs, so that workers = 4 forks three children even on a
    # smaller host; every worker count gives the per-pair certificates
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1, 2, 3])
    pairs = sorted(sophie_germain_pairs(2000), key=lambda pr: pr.q)
    expected = [certify_rho_infty(pr) for pr in pairs]
    for workers in (1, 2, 4):
        with deadline(60):
            certs = scan_sophie_germain(2000, workers=workers)
        assert certs == expected, workers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every child was reaped


def test_scan_certifies_unforked_shares_in_parent(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1, 2])
    monkeypatch.setattr(os, "fork", no_fork)
    assert scan_sophie_germain(300, workers=3) == scan_sophie_germain(300)


def test_scan_finds_each_order_once(monkeypatch):
    """ord_p(2) is found once per pair, from the group order p - 1: on the
    serial path by certify_rho_infty, on the forked path by `_shares` in
    the parent, whose cache the children inherit."""
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1])
    calls = []

    def counted(a, n, k):
        calls.append(n)
        assert k == n - 1
        return order_dividing(a, n, k)

    monkeypatch.setattr(cyclosig, "order_dividing", counted)
    pairs = sophie_germain_pairs(5000)
    for workers in (1, 2):
        _route.cache_clear()
        del calls[:]
        with deadline(60):
            certs = scan_sophie_germain(5000, workers=workers)
        assert [c.pair for c in certs] == pairs
        assert sorted(calls) == [pr.p for pr in pairs], workers


def test_scan_shares_balance_estimated_work():
    pairs = sophie_germain_pairs(20000)
    shares = _shares(pairs, 3)
    assert sorted(i for share in shares for i in share) == list(range(len(pairs)))
    estimate = [_route(pr.p)[2] for pr in pairs]
    work = [sum(estimate[i] for i in share) for share in shares]
    assert max(work) - min(work) <= max(estimate)


@pytest.mark.parametrize("share, refused", [(0, False), (1, False), (1, True)],
                         ids=["first-share", "child-share", "refused-fork"])
def test_scan_worker_failure_surfaces_as_serial(share, refused, monkeypatch,
                                                capsys):
    """A failure in a child's share, or in a share the parent certifies
    because its fork was refused (while the first share's child runs),
    raises the serial path's exception and exits 3 with empty stdout."""
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1])
    if refused:
        real_fork, forks = os.fork, []

        def second_refused():
            forks.append(1)
            if len(forks) % 2 == 0:
                raise BlockingIOError("no process to spare")
            return real_fork()

        monkeypatch.setattr(os, "fork", second_refused)
    pairs = sophie_germain_pairs(2000)
    bad = pairs[_shares(pairs, 2)[share][0]]
    real = cyclosig.certify_rho_infty

    def failing(pair, method="gcd"):
        if pair == bad:
            raise RuntimeError(f"injected failure at q={pair.q}")
        return real(pair, method)

    monkeypatch.setattr(cyclosig, "certify_rho_infty", failing)
    message = f"injected failure at q={bad.q}"
    with pytest.raises(RuntimeError, match=message):
        scan_sophie_germain(2000)
    with pytest.raises(RuntimeError, match=message), deadline(60):
        scan_sophie_germain(2000, workers=2)
    with deadline(60):
        assert cli_main(["scan-rho", "--max-q", "2000", "--threads", "2"]) == 3
    if refused:
        assert len(forks) == 4  # one child and one refused fork per scan
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"certification failure: {message}\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every child was reaped


def test_scan_kills_and_reaps_its_children_on_interrupt(monkeypatch):
    """An interrupt while the parent reads the pipes kills every child
    before it is reaped, so the exception surfaces at once: left alive,
    each child would hold the reap for its 60 s share."""
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1])

    def stalled(pair, method="gcd"):
        time.sleep(60)

    def interrupted(fd):
        raise KeyboardInterrupt

    monkeypatch.setattr(cyclosig, "certify_rho_infty", stalled)
    monkeypatch.setattr(cyclosig, "_read_to_eof", interrupted)
    with pytest.raises(KeyboardInterrupt), deadline(10):
        scan_sophie_germain(2000, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every child was reaped


def test_scan_certifies_a_refused_share_after_every_fork(monkeypatch):
    """When the first fork is refused, the parent certifies that share only
    after it has forked the others, so they run alongside it."""
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1, 2])
    monkeypatch.setattr(cyclosig, "_place", lambda cpus: None)
    real_fork, forks = os.fork, []

    def first_refused():
        forks.append(1)
        if len(forks) == 1:
            raise BlockingIOError("no process to spare")
        return real_fork()

    pairs = sophie_germain_pairs(2000)
    expected = [certify_rho_infty(pr) for pr in pairs]
    parent, forks_seen = os.getpid(), []
    real = cyclosig.certify_rho_infty

    def counted(pair, method="gcd"):
        if os.getpid() == parent:
            forks_seen.append(len(forks))
        return real(pair, method)

    monkeypatch.setattr(os, "fork", first_refused)
    monkeypatch.setattr(cyclosig, "certify_rho_infty", counted)
    with deadline(60):
        assert scan_sophie_germain(2000, workers=3) == expected
    assert len(forks_seen) == len(_shares(pairs, 3)[0])
    assert set(forks_seen) == {3}


def read_placements(path):
    """(pid, requested CPUs, mask after the call) per logged call."""
    calls = []
    for line in path.read_text().splitlines():
        pid, asked, got = line.split()
        calls.append((int(pid), {int(c) for c in asked.split(",")},
                      {int(c) for c in got.split(",")}))
    return calls


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity calls on this platform")
def test_scan_places_each_worker_on_its_own_cpu(monkeypatch, tmp_path):
    """Every os.sched_setaffinity call, in the parent or a forked child,
    appends a line to a file. Given three CPUs, the process's own where its
    mask has three, a three-worker scan pins each child to one of them, a
    different one each, and never calls it in the parent."""
    real_get, real_set = os.sched_getaffinity, os.sched_setaffinity
    before = real_get(0)
    cpus = sorted(before)[:3] if len(before) >= 3 else [0, 1, 2]
    log = tmp_path / "placements"

    def logged(pid, mask):
        try:
            real_set(pid, mask)
        finally:
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {','.join(map(str, sorted(mask)))} "
                          f"{','.join(map(str, sorted(real_get(0))))}\n")

    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(os, "sched_setaffinity", logged)
    pairs = sophie_germain_pairs(2000)
    with deadline(60):
        certs = scan_sophie_germain(2000, workers=3)
    assert certs == [certify_rho_infty(pr) for pr in pairs]
    assert real_get(0) == before
    calls = read_placements(log)
    assert os.getpid() not in {pid for pid, _, _ in calls}
    # one call in each of the three children
    assert len({pid for pid, _, _ in calls}) == len(calls) == 3
    assert sorted(min(asked) for _, asked, _ in calls) == cpus
    assert all(len(asked) == 1 for _, asked, _ in calls)
    # the kernel did as asked wherever the CPUs are the process's own
    assert all(asked == got for _, asked, got in calls if asked <= before)


@pytest.mark.parametrize("refusal", ["EINVAL", "EPERM", "unsupported"])
def test_scan_runs_unplaced_when_placement_is_refused(refusal, monkeypatch,
                                                      capsys):
    """A refused placement changes no certificate, output or exit code, and
    the parent certifies nothing: no child fails for it."""
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1])
    serial = cli_main(["scan-rho", "--max-q", "2000", "--threads", "1"]), \
        capsys.readouterr()
    if refusal == "unsupported":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        def refuse(pid, cpus):
            code = getattr(errno, refusal)
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    pairs = sophie_germain_pairs(2000)
    expected = [certify_rho_infty(pr) for pr in pairs]
    parent, calls = os.getpid(), []
    real = cyclosig.certify_rho_infty

    def counted(pair, method="gcd"):
        if os.getpid() == parent:
            calls.append(pair)
        return real(pair, method)

    monkeypatch.setattr(cyclosig, "certify_rho_infty", counted)
    with deadline(60):
        assert scan_sophie_germain(2000, workers=2) == expected
    assert calls == []
    with deadline(60):
        code = cli_main(["scan-rho", "--max-q", "2000", "--threads", "2"])
    assert (code, capsys.readouterr()) == serial
    assert serial[0] == 0 and serial[1].err == ""
    assert calls == []


def test_scan_makes_no_affinity_call_unless_workers_take_every_cpu(
        monkeypatch):
    """No placement with one worker, and none with CPUs to spare: the
    workers are pinned only where they take the whole mask."""
    def forbidden(pid, cpus):
        raise AssertionError("unexpected affinity call")

    monkeypatch.setattr(os, "sched_setaffinity", forbidden, raising=False)
    expected = scan_sophie_germain(2000)
    assert cli_main(["scan-rho", "--max-q", "2000", "--threads", "1"]) == 0
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [1])
    assert scan_sophie_germain(2000, workers=2) == expected  # one CPU
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1])
    assert scan_sophie_germain(6, workers=2) == []  # no pairs
    assert scan_sophie_germain(8, workers=2) == expected[:1]  # one pair
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1, 2])
    with deadline(60):
        assert scan_sophie_germain(2000, workers=2) == expected  # CPU spare
