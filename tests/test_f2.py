"""Tests for bit-packed F2 linear algebra.

Oracle: naive list-of-lists Gaussian elimination, plus a schoolbook
polynomial gcd over F2. The production `f2.poly_gcd`, pure Python, is
checked against the reference gcd `tests/_f2core.c`, built into a temporary
directory once per session (`compiled_core` in conftest), and both against
the schoolbook gcd here.
"""

from __future__ import annotations

import random

import pytest

from jacrank import f2
from jacrank.cyclosig import orbit_word, sophie_germain_pairs
from jacrank.f2 import MatF2, VecF2, backend_name, echelon_rank, kernel_basis, rank, \
    span_dimension
from test_arith import order_oracle


@pytest.fixture(params=["pure", "compiled"])
def gcd(request):
    """The production `f2.poly_gcd`, or the tests' reference gcd (compiled
    when a C compiler is present)."""
    if request.param == "compiled":
        return request.getfixturevalue("reference_gcd")
    return f2.poly_gcd


def naive_rank(rows_bits, nrows, ncols):
    m = [[(r >> j) & 1 for j in range(ncols)] for r in rows_bits]
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(nrows):
            if i != rk and m[i][col]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def naive_poly_gcd(a, b):
    def degree(x):
        return x.bit_length() - 1

    while b:
        while a and degree(a) >= degree(b):
            a ^= b << (degree(a) - degree(b))
        a, b = b, a
    return a


def clmul(a, b):
    """Product of polynomials over F2 packed as ints."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def test_rank_against_naive_oracle():
    rng = random.Random(21701)
    for _ in range(10000):
        r = rng.randrange(1, 9)
        c = rng.randrange(1, 9)
        rows = [rng.randrange(1 << c) for _ in range(r)]
        assert rank(MatF2(r, c, tuple(rows))) == naive_rank(rows, r, c)


def test_echelon_rank_reads_no_row_past_stop_at():
    rng = random.Random(21737)
    for _ in range(2000):
        r = rng.randrange(1, 12)
        c = rng.randrange(1, 9)
        rows = [rng.randrange(1 << c) for _ in range(r)]
        full = naive_rank(rows, r, c)
        assert echelon_rank(rows) == echelon_rank(iter(rows), stop_at=full + 1) == full
        for stop in range(1, full + 1):
            read = []
            assert echelon_rank((read.append(row) or row for row in rows),
                                stop_at=stop) == stop
            # the last row read is the one that brought the rank to stop
            assert naive_rank(read[:-1], len(read) - 1, c) == stop - 1


def test_rank_transpose_property():
    rng = random.Random(21713)
    for _ in range(500):
        r = rng.randrange(1, 12)
        c = rng.randrange(1, 12)
        rows = [rng.randrange(1 << c) for _ in range(r)]
        t = [sum(((rows[i] >> j) & 1) << i for i in range(r)) for j in range(c)]
        assert rank(MatF2(r, c, tuple(rows))) == rank(MatF2(c, r, tuple(t)))


def row_kernel_basis(m):
    """Reference: the kernel from a row-packed MatF2, each column gathered
    from the rows, then the same left-to-right elimination."""
    pivots = {}
    out = []
    for j in range(m.cols):
        cur = 0
        for i, row in enumerate(m.bits):
            cur |= ((row >> j) & 1) << i
        tracker = 1 << j
        while cur:
            top = cur.bit_length() - 1
            if top in pivots:
                pc, pt = pivots[top]
                cur ^= pc
                tracker ^= pt
            else:
                pivots[top] = (cur, tracker)
                break
        if cur == 0:
            out.append(tracker)
    return out


def test_kernel_basis_against_rank():
    """On random packed columns: every mask XORs its columns to 0, the masks
    are independent, and there are as many as columns minus rank."""
    rng = random.Random(21727)
    for _ in range(800):
        r = rng.randrange(1, 10)
        c = rng.randrange(1, 10)
        columns = [rng.randrange(1 << r) for _ in range(c)]
        ker = kernel_basis(columns)
        assert len(ker) == c - echelon_rank(columns)
        for v in ker:
            assert 0 < v < (1 << c)
            acc = 0
            for j, col in enumerate(columns):
                if v >> j & 1:
                    acc ^= col
            assert acc == 0
        assert echelon_rank(ker) == len(ker)


def test_kernel_basis_matches_row_built_reference():
    rng = random.Random(21728)
    for _ in range(800):
        r = rng.randrange(1, 30)
        c = rng.randrange(1, 14)
        columns = [rng.randrange(1 << r) for _ in range(c)]
        rows = tuple(sum((col >> i & 1) << j for j, col in enumerate(columns))
                     for i in range(r))
        assert kernel_basis(columns) == row_kernel_basis(MatF2(r, c, rows))


def test_poly_gcd_against_schoolbook(gcd):
    rng = random.Random(21739)
    for _ in range(2000):
        a = rng.randrange(1 << rng.randrange(1, 64))
        b = rng.randrange(1 << rng.randrange(1, 64))
        assert gcd(a, b) == naive_poly_gcd(a, b)
    # a few wide operands crossing many words
    for _ in range(50):
        a = rng.randrange(1 << 700)
        b = rng.randrange(1 << 500)
        assert gcd(a, b) == naive_poly_gcd(a, b)


def test_poly_gcd_edge_cases(gcd):
    assert gcd(0, 0) == 0
    assert gcd(0b101, 0) == 0b101
    assert gcd(0, 0b11) == 0b11
    # (x+1)^2 = x^2+1 over F2; gcd with x^2+x = x(x+1) is x+1
    assert gcd(0b101, 0b110) == 0b11
    with pytest.raises(ValueError):
        gcd(-1, 1)


def test_backends_agree_when_compiled_present(compiled_core, reference_gcd):
    """The production gcd, pure Python, equals the compiled reference."""
    rng = random.Random(21751)
    pairs = [(rng.randrange(1 << 1000), rng.randrange(1 << 900)) for _ in range(300)]
    known = {}  # pairs whose gcd is known in advance
    for d in (0, 1, 7, 8, 63, 64, 65, 127, 128, 129, 700):
        a = (1 << d) | rng.randrange(1 << d)
        known.update({(a, 0): a, (0, a): a, (a, a): a})
    # shifted XORs whose offset and operand degrees straddle a 64-bit word
    degrees = (63, 64, 65, 127, 128, 129)
    for da in degrees:
        for db in degrees:
            a = (1 << da) | rng.randrange(1 << da)
            b = (1 << db) | rng.randrange(1 << db)
            pairs += [(a, b), (b, a)]
            known.update({(a, clmul(a, b)): a, (clmul(a, b), b): b})
    pairs += list(known)
    # orbit words with 2 not primitive mod p, the words the probe and the
    # gcd route of certify_rho_infty handle
    pairs += [(orbit_word(pr), (1 << pr.p) | 1) for pr in sophie_germain_pairs(20000)
              if order_oracle(2, pr.p) != pr.p - 1]

    assert reference_gcd is not f2.poly_gcd
    assert [f2.poly_gcd(a, b) for a, b in pairs] == [reference_gcd(a, b) for a, b in pairs]
    assert all(f2.poly_gcd(a, b) == g for (a, b), g in known.items())


def test_matf2_construction_and_rank_examples():
    ident = MatF2(3, 3, (1, 2, 4))
    assert rank(ident) == 3
    assert rank(MatF2(3, 4, (0, 0, 0))) == 0
    # columns (1,1,0) and (0,1,1) as a 3x2 matrix
    m = MatF2(3, 2, (0b01, 0b11, 0b10))
    assert rank(m) == 2
    with pytest.raises(ValueError):
        MatF2(2, 2, (1, 4, 1))  # wrong row count
    with pytest.raises(ValueError):
        MatF2(2, 2, (1, 4))  # row value exceeds column width


def test_kernel_basis_examples():
    assert kernel_basis([1, 2, 4]) == []
    assert kernel_basis([1, 1]) == [0b11]
    assert kernel_basis([]) == []
    assert kernel_basis([0b1, 0, 0b1]) == [0b10, 0b101]
    assert kernel_basis([0b00011, 0b11110]) == []
    with pytest.raises(ValueError, match="nonnegative"):
        kernel_basis([1, -1])


def test_span_dimension_examples():
    vs = [VecF2(3, bits) for bits in (0b001, 0b100, 0b010)]
    assert span_dimension(vs) == 3
    assert span_dimension([]) == 0
    assert span_dimension([VecF2(2, 0b11), VecF2(2, 0b11)]) == 1


def test_span_dimension_invariances():
    rng = random.Random(21767)
    for _ in range(200):
        n = rng.randrange(1, 8)
        vs = [VecF2(n, rng.randrange(1 << n)) for _ in range(rng.randrange(1, 6))]
        d = span_dimension(vs)
        shuffled = vs[:]
        rng.shuffle(shuffled)
        assert span_dimension(shuffled) == d
        assert span_dimension(vs + [rng.choice(vs)]) == d


def test_span_dimension_length_mismatch():
    with pytest.raises(ValueError):
        span_dimension([VecF2(2, 0b01), VecF2(3, 0b101)])


def test_backend_reported():
    assert backend_name() == "pure"
