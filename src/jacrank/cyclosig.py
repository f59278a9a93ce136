"""Signature data for the canonical unit of L = Q(zeta_q)+, q = 2p+1.

For a Sophie Germain pair (p, q) the unit is u = (-1)^((p-1)/2) * theta,
where theta = (-1)^((p-1)/2) (zeta + zeta^-1) generates the field; that is,
u = -(zeta+zeta^-1) when p = 1 mod 4 and +(zeta+zeta^-1) when p = 3 mod 4,
so that u has norm +1. Under the ascending ordering r_1 < ... < r_p of the
conjugates of u, its sign vector has a fixed prefix of -1 entries, and the
Galois action sigma permutes conjugates by the doubling permutation phi.

The sign matrix M_infty has entry (i, j) = psi(sign of tau_i(sigma^j u)),
j = 0..p-2, with psi(-1) = 1. Because phi is a p-cycle, the rows of the
full p x p version are rotations of a single orbit word w, so

    rank(M_infty) = p - deg gcd(w(x), x^p - 1)   over F2,

and the norm-1 relation makes the omitted column the sum of the kept ones.
The certificate d_infty = p - 1 holds exactly when the gcd is x + 1. Both
the gcd route and direct packed elimination are implemented and must agree.

The gcd route reads w off the binary digits of 1/q, packed in the order the
digits come (bit p-1-k = w_k), which as a polynomial is the reversal
x^(p-1) w(1/x). Since x -> 1/x is an automorphism of F2[x]/(x^p - 1) and x
a unit there, the reversal has the gcd degree of w; below, w stands for
the packed word. The degree of the gcd is found in one of three exact
ways. Let m = ord_p(2) and e = (p-1)/m. Over F2, x^p - 1 is x + 1 times
one irreducible factor of degree m for each of the e cosets C_0, ...,
C_{e-1} of H = <2> in (Z/p)^x: the roots zeta^n, n in C_i, are one
Frobenius orbit (Lidl & Niederreiter, Finite Fields, Thm 2.47).

- Coset probe. In R = F2[x]/(x^p - 1) let D_i = sum of x^n over n in C_i.
  Since a(x)^2 = a(x^2) over F2, the elements with coefficients constant
  on {0} and on each C_i, that is the span A of 1, D_0, ..., D_{e-1}, are
  exactly those with a^2 = a: the idempotents, one generating each cyclic
  code of length p (MacWilliams & Sloane, The Theory of Error-Correcting
  Codes, Ch. 8 Sec. 3 and Ch. 16). An idempotent takes values 0 or 1, so
  evaluation at 1 and at one root per coset maps A onto F2^(e+1), and
  dim w A = e + 1 - z, with z the number of these e + 1 points at which w
  vanishes. As w(1) is the parity of the weight of w,

      deg gcd(w, x^p - 1) = [wt w even] + m (e + 1 - [wt w even] - dim w A).

  The columns w D_i and w of a p x (e+1) matrix span w A. Its row j has
  bit i = parity of w_{n+j} over n in C_i (coefficient j of w D_i, with
  the cosets relabelled by n -> -n) and bit e = w_j. The e coset bits of
  row j sum to the parity of w off position j, w_j + wt w mod 2, so adding
  the other columns to column e - 1 turns it into the constant wt w mod 2
  and leaves the rank as it was: the last coset is never labelled, and
  when e = 1 (2 a primitive root mod p) none is, each row being (w_j,
  wt w mod 2). Rows j = 0, 1, ... are eliminated until the rank reaches
  e + 1 - [wt w even], which proves deg gcd = [wt w even]. All p rows give
  dim w A, as do any k consecutive ones, k = dim R w, since they are an
  information set of the cyclic code R w (a column operation keeps the
  rank of every set of rows); on the certified range the rank is reached
  within e + 10 rows, and within e + 6 for e > 2. After e + 64 rows,
  unless that is all p of them, the word goes to the general gcd. The
  coset masks come from a walk of half of <2> or less, completed by
  doublings n -> 2n, and each coset from the one before by n -> gn, each
  such map a few slices of an array of p digits (`_coset_masks`). The rows
  cost about e^2 AND-popcounts of p bits.
- Coset probe built column by column, for large e (`_probe_columns`): the
  same matrix, its first R = 64 L >= e + 1 + 8 rows at once. Bit j of
  coset column i is the parity of w over C_i + j, which is bit j of the
  XOR, over the n in C_i, of the 64-bit window of w that starts at n; lane
  k of 64 rows XORs the windows at n + 64k. The windows of all p rotations
  come from 64 shifts of w repeated, into one array("Q"), and each coset's
  positions from a walk of <2> times r_i = g^i mod p. So no coset mask is
  built or parsed: the cost is about L p gathers and XORs of small ints,
  plus an elimination on the e + 1 columns of R bits, the rank of the
  transpose. The rank proves the degree as for the rows; if it falls
  short, the word goes to the general gcd unless R >= p.
- Otherwise the general gcd in `f2.poly_gcd`.

`_route` chooses by measured cost: the probe is preferred to the gcd when
8 e^2 <= p, and the column-wise probe replaces either where its estimate
is lower, for 32 <= e <= 329 on the certified range.

No step is probabilistic: every route is exact.

The scan spreads the pairs over forked worker processes: the routes are pure
Python, so threads would share one core under the interpreter lock. When
the workers take every CPU of the process's affinity mask, each child is
pinned to a CPU of its own, best effort: the scheduler tends to keep a
short-lived forked child on its parent's CPU, where two shares would run
one after the other. The parent only waits, so it is never pinned.
"""

from __future__ import annotations

import os
import sys
from array import array
from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import islice
from math import isqrt
from operator import itemgetter, xor
from typing import Iterator, List, NamedTuple, Optional, Set, Tuple, Union

from .arith import CheckedRecord, is_prime, order_dividing, prime_factors, \
    primes_upto
from .f2 import MatF2, echelon_rank, poly_gcd, rank

__all__ = [
    "SophieGermainPair",
    "RhoInftyCertificate",
    "sophie_germain_pairs",
    "orbit_word",
    "build_M_infty",
    "certify_rho_infty",
    "scan_sophie_germain",
]


class _SophieGermainPair(NamedTuple):
    p: int
    q: int


class SophieGermainPair(CheckedRecord, _SophieGermainPair):
    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "SophieGermainPair":
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if q != 2 * p + 1:
            raise ValueError(f"q must equal 2p+1, got p={p}, q={q}")
        if not is_prime(q):
            raise ValueError(f"q must be prime, got {q}")
        return super().__new__(cls, p, q)


class RhoInftyCertificate(NamedTuple):
    pair: SophieGermainPair
    d_infty: int
    rho_infty_zero: bool


def sophie_germain_pairs(q_max: int) -> List[SophieGermainPair]:
    """All pairs (p, q) with q <= q_max, q = 2p+1, both prime, p odd.

    The sorted prime list of the one sieve answers the membership test: a
    merge walk takes p over the odd primes and looks q = 2p + 1 up by
    bisection from the index of the last lookup, as q grows with p, so no
    set of primes is built."""
    primes = primes_upto(q_max)
    out = []
    k = 0
    for p in islice(primes, 1, None):
        q = 2 * p + 1
        if q > q_max:
            break
        k = bisect_left(primes, q, k)
        # k = len(primes) when q <= q_max lies above the largest prime, as
        # q = 15 does at q_max = 16
        if k < len(primes) and primes[k] == q:
            # the sieve proved p and q prime: build without the checks
            out.append(_SophieGermainPair.__new__(SophieGermainPair, p, q))
    return out


def orbit_word(pair: SophieGermainPair) -> int:
    """The length-p word w with w_k = psi(epsilon at phi^k of a fixed start
    index), packed in the order its digits come: bit p-1-k = w_k. Rows of
    the full circulant sign matrix are rotations of w; any start index
    gives the same gcd with x^p - 1.

    Read as a polynomial the packed word is x^(p-1) w(1/x), the reversal of
    w. As x -> 1/x is an automorphism of F2[x]/(x^p - 1) and x is a unit
    there, deg gcd(w, x^p - 1), and with it every route of
    `certify_rho_infty`, is the same for w and its reversal.

    With t_k = 2^k mod q, w_k = 1 exactly when min(t_k, q - t_k) <= (p-1)/2
    for p = 1 mod 4, and exactly when it is larger for p = 3 mod 4. Since
    (p-1)/2 = floor(q/4) and q/4 is not an integer, the test asks whether
    t_k/q lies within 1/4 of 0 or 1, that is whether binary digits k+1 and
    k+2 of 1/q agree: t_k/q is 1/q shifted left by k places."""
    p, q = pair.p, pair.q
    x = (1 << (p + 2)) // q  # digits d_1..d_{p+2} of 1/q, d_1 the highest
    # bit p-1-k of differ is d_{k+1} xor d_{k+2}, for k = 0..p-1
    differ = ((x ^ (x >> 1)) >> 1) & ((1 << p) - 1)
    if p % 4 == 1:
        differ ^= (1 << p) - 1
    return differ


def build_M_infty(pair: SophieGermainPair) -> MatF2:
    """The p x (p-1) sign matrix M_infty: the reference that the tests and
    the benchmark's scan oracle (`certify_rho_infty(method="matrix")`) check
    the other routes against. Row i-1 has bit j set exactly when
    phi^j(i) <= n, i = 1..p, j = 0..p-2: the canonical unit is negative at
    the n least of its ascending conjugates r_1 < ... < r_p, n = (p-1)/2 when
    p = 1 mod 4 and (p+1)/2 when p = 3 mod 4, and sigma(zeta+zeta^-1) =
    zeta^2+zeta^-2 maps r_i to r_phi(i)."""
    p, q = pair.p, pair.q
    n = (p - 1) // 2 if p % 4 == 1 else (p + 1) // 2
    phi = [0] * (p + 1)  # phi[i] for i = 1..p
    for i in range(1, p + 1):
        if p % 4 == 1:
            t = 2 * i % q
            phi[i] = min(t, q - t)
        else:
            t = 2 * (p + 1 - i) % q
            phi[i] = p + 1 - min(t, q - t)
    rows = []
    for i in range(1, p + 1):
        row, k = 0, i  # k = phi^j(i)
        for j in range(p - 1):
            if k <= n:
                row |= 1 << j
            k = phi[k]
        rows.append(row)
    return MatF2(p, p - 1, tuple(rows))


# probe rows read beyond e before the word goes to the general gcd
_PROBE_SPARE_ROWS = 64
# rows beyond e + 1 that the column-wise probe builds, rounded up to lanes of 64
_COLUMN_SPARE_ROWS = 8
# a doubling of the coset labelling, two slices and an OR of p digits, costs
# about as much as p / _WALK_STEPS_PER_DOUBLING steps of its Python walk
_WALK_STEPS_PER_DOUBLING = 64
# measured cost of each route in bit operations of the gcd's p-bit
# shift-xors (pure Python, 2-core host, the pairs with q <= 92459): the
# probe's rows per e^2 p and its labelling, when e > 1, per p; the
# column-wise probe's gathers per lane and p, its windows and positions per
# p, and its elimination per lane and e^2
_PROBE_ROW_WORK, _PROBE_LABEL_WORK = 6, 700
_LANE_WORK, _COLUMN_WORK, _ELIMINATION_WORK = 3300, 1800, 80


def _column_lanes(e: int) -> int:
    """Lanes of 64 rows the column-wise probe builds: e + 1 rows and spare."""
    return -(-(e + 1 + _COLUMN_SPARE_ROWS) // 64)


@lru_cache(maxsize=None)
def _route(p: int) -> Tuple[str, int, int]:
    """How certify_rho_infty finds deg gcd(w, x^p - 1) for the prime p: the
    route ("probe", "columns" or "gcd"), m = ord_p(2), and
    the route's estimated work in bit operations, which `_shares`
    balances. It is cached, so a scan finds each order once: `_shares` in
    the parent, then `certify_rho_infty` in the parent or in a forked
    child, which inherits the cache.

    The gcd runs about p shift-xors of p-bit words, p^2 bit operations.
    The probe's rows cost about e^2 AND-and-popcounts of p bits plus, when
    e > 1, its coset labelling; it is preferred to the gcd when 8 e^2 <= p.
    There it measured (pure Python, pairs with q <= 92459) for e > 1 a
    median 3x faster than the gcd below p = 2000 and 17x above p = 30000,
    and slower only at p = 41, 911 and 1013, by under 0.1 ms; for e = 1,
    a few rows of two bits, it took 3 to 13 us a pair, slower than the gcd
    only at p = 11, by 0.1 us. The column-wise probe costs
    about p gathers of 64-bit windows per lane of 64 rows, a walk and the
    positions of the cosets, and an elimination on e + 1 columns; it is
    taken where its estimate is below that of the probe or gcd so chosen.
    On the pairs with q <= 92459 that holds for 14 pairs, e from 32 to
    329, where it measured (best of 5, two sweeps) 1.4x to 2.8x faster
    than the route it replaced for e >= 40 and within the host's noise at
    e = 32 and 329; at e = 1285 (p = 43691) the gcd stays 3-4x cheaper.
    The constants above put each estimate within about 30 % of its route's
    measured time on those pairs above p = 1500, but for the probe at
    e = 1, whose microseconds are mostly fixed costs left out of its
    estimate; all 280 such pairs together take about 2 ms."""
    m = order_dividing(2, p, p - 1)  # p is prime: (Z/p)^x has order p - 1
    e = (p - 1) // m
    if 8 * e * e <= p:
        label = _PROBE_LABEL_WORK if e > 1 else 0
        route, work = "probe", (_PROBE_ROW_WORK * e * e + label) * p
    else:
        route, work = "gcd", p * p
    lanes = _column_lanes(e)
    columns = (_LANE_WORK * lanes + _COLUMN_WORK) * p + _ELIMINATION_WORK * lanes * e * e
    if columns < work:
        return "columns", m, columns
    return route, m, work


def _poly_gcd_degree(w: int, p: int) -> int:
    """deg gcd(w, x^p - 1) over F2 by the general gcd."""
    return poly_gcd(w, (1 << p) | 1).bit_length() - 1


def _dilate(digits: Union[bytes, bytearray], p: int, g: int) -> bytearray:
    """The p digits of the set gS = {gn mod p : n in S} from those of S,
    digit n being 1 exactly for n in S: the n in [ceil(jp/g),
    ceil((j+1)p/g)) land on gn - jp, one slice of stride g for each j < g."""
    out = bytearray(p)
    for j in range(g):
        lo = -(-j * p // g)
        out[g * lo - j * p::g] = digits[lo:-(-(j + 1) * p // g)]
    return out


def _quotient_generator(p: int, e: int) -> int:
    """The least g >= 3 whose class generates the cyclic group
    (Z/p)^x / <2> of order e: g^((p-1)/r) != 1 for every prime r | e."""
    factors = prime_factors(e)
    g = 3
    while any(pow(g, (p - 1) // r, p) == 1 for r in factors):
        g += 1
    return g


def _coset_masks(p: int, m: int) -> List[int]:
    """The masks sum of 2^n over n in C of the cosets C = H, gH, ...,
    g^(e-2)H of H = <2> in (Z/p)^x, all but the last of the e = (p-1)/m,
    so none when e = 1; the probe needs no mask of the last (`_probe_rows`).

    Each coset C is built as the p ASCII digits of -C, digit n' being 1
    exactly when n' is in -C. Read as a binary number, digit 0 the highest,
    they give the mask of C shifted right by one: digit n' lands on bit
    p-1-n' = n-1 for n = p-n' in C. So no digits are reversed.

    -H is walked as -2^(dk) for k < ceil(m/d) and completed by ORing in the
    d - 1 doublings n -> 2n of those marks, two slices each (`_dilate`); d
    balances the walk against the doublings. When m is even, -1 = 2^(m/2)
    lies in H, so the walk covers half of H and marks both n and -n. Each
    further coset is g times the one before, in g slices, where g is the
    least residue whose class generates the cyclic group (Z/p)^x / H of
    order e. The labelling costs about m / d steps of Python, d + e - 3
    dilations and e - 1 conversions of p digits, and holds O(p) bytes
    besides the masks."""
    e = (p - 1) // m
    if e == 1:
        return []
    half = m if m % 2 else m // 2
    d = max(1, isqrt(_WALK_STEPS_PER_DOUBLING * half // p))
    step = pow(2, d, p)
    digits = bytearray(b"0") * p
    n = p - 1
    if m % 2:
        for _ in range(-(-half // d)):
            digits[n] = 49  # "1"
            n = n * step % p
    else:
        for _ in range(-(-half // d)):
            digits[n] = digits[p - n] = 49
            n = n * step % p
    if d > 1:
        # an OR of big-endian integers with a byte per digit: 48 | 49 = 49
        marks = digits
        union = int.from_bytes(marks, "big")
        for _ in range(d - 1):
            marks = _dilate(marks, p, 2)
            union |= int.from_bytes(marks, "big")
        digits = union.to_bytes(p, "big")
    masks = [int(digits, 2) << 1]
    g = _quotient_generator(p, e)
    for _ in range(e - 2):
        digits = _dilate(digits, p, g)
        masks.append(int(digits, 2) << 1)
    return masks


def _probe_rows(w: int, p: int, masks: List[int]) -> Iterator[int]:
    """Rows j = 0, 1, ... of the probe matrix, its last coset column made
    constant (module docstring): bit i < e - 1 is the parity of w_{n+j}
    over n in the coset of masks[i], bit e - 1 the parity of the weight of
    w, and bit e is w_j."""
    e = len(masks) + 1
    parity = (w.bit_count() & 1) << (e - 1)
    r = w  # w rotated right by j: bit t is w_{t+j mod p}
    while True:
        row = (r & 1) << e | parity
        for i, mask in enumerate(masks):
            row |= ((r & mask).bit_count() & 1) << i
        yield row
        r = (r >> 1) | ((r & 1) << (p - 1))


def _windows(w: int, p: int, count: int) -> array:
    """The 64-bit windows of w read cyclically, as array("Q"): entry n < count
    has bit j = w_{(n+j) mod p}. Entry n = s + 64t is 64-bit word t of the
    periodic repetition of w shifted right by s, so the 64 shifts s < 64
    fill every entry by strided slices."""
    reps, width = w, p
    while width < count + 64:
        reps |= reps << width
        width += width
    out = array("Q", bytes(8 * count))
    for s in range(min(64, count)):
        words = 8 * ((count - s + 63) // 64)  # entries s, s + 64, ... below count
        out[s::64] = array("Q", (reps >> s).to_bytes(width // 8 + 1, sys.byteorder)[:words])
    return out


def _probe_columns(w: int, p: int, m: int, lanes: int) -> List[int]:
    """The columns of the first R = 64 * lanes rows of the probe matrix of
    `_probe_rows`, bit j of column i being bit i of row j, without its coset
    masks. Bit j of coset column i is the parity of w_{n+j} over n in
    C_i = g^i H, which is bit j of the XOR over n in C_i of the window of w
    at n (`_windows`); lane k of 64 rows reads the windows at n + 64k. So
    each coset costs one gather of its m windows per lane, and only that
    coset's positions r h mod p, h in H = <2>, are held as Python ints."""
    e = (p - 1) // m
    windows = memoryview(_windows(w, p, p + 64 * (lanes - 1)))
    views = [windows[64 * k:64 * k + p] for k in range(lanes)]
    h = [1] * m  # H, walked n -> 2n
    for k in range(1, m):
        h[k] = h[k - 1] * 2 % p
    g = _quotient_generator(p, e)
    columns = []
    r = 1
    for _ in range(e - 1):
        gather = itemgetter(*[r * n % p for n in h])
        column = 0
        for k, view in enumerate(views):
            column |= reduce(xor, gather(view)) << (64 * k)
        columns.append(column)
        r = r * g % p
    # bit e - 1 of every row is wt w mod 2, bit e of row j is w_j
    columns.append(-(w.bit_count() & 1) & ((1 << (64 * lanes)) - 1))
    columns.append(sum(windows[64 * k] << (64 * k) for k in range(lanes)))
    return columns


def _probe_gcd_degree(w: int, p: int, m: int, columns: bool = False) -> int:
    """deg gcd(w, x^p - 1) over F2 from the rank of the coset probe's first
    rows (see the module docstring), built row by row (`_probe_rows`, e +
    _PROBE_SPARE_ROWS rows) or, with columns, column by column
    (`_probe_columns`, 64 * `_column_lanes(e)` rows); from the general gcd
    when the rank has not proved it within those rows, fewer than p."""
    e = (p - 1) // m
    even = w.bit_count() % 2 == 0
    unvanished = e + 1 - even  # dim w A when w vanishes on no coset
    if columns:
        lanes = _column_lanes(e)
        rows = 64 * lanes
        vectors = _probe_columns(w, p, m, lanes)
    else:
        rows = min(p, e + _PROBE_SPARE_ROWS)
        vectors = islice(_probe_rows(w, p, _coset_masks(p, m)), rows)
    dim = echelon_rank(vectors, stop_at=unvanished)
    if dim == unvanished or rows >= p:  # all p rows give dim w A itself
        return even + m * (e + 1 - even - dim)
    return _poly_gcd_degree(w, p)


def certify_rho_infty(pair: SophieGermainPair, method: str = "gcd") -> RhoInftyCertificate:
    """d_infty = rank of the sign matrix; rho_infty = 0 iff d_infty = p-1.

    method="gcd" exploits the circulant structure: d = p - deg gcd(w, x^p-1),
    with the degree found by the route of `_route` (module docstring).
    method="matrix" runs packed elimination on the assembled matrix."""
    p = pair.p
    if method == "gcd":
        w = orbit_word(pair)
        route, m, _ = _route(p)
        if route in ("probe", "columns"):
            d = p - _probe_gcd_degree(w, p, m, columns=route == "columns")
        else:
            d = p - _poly_gcd_degree(w, p)
    elif method == "matrix":
        d = rank(build_M_infty(pair))
    else:
        raise ValueError(f"unknown method {method!r}")
    return RhoInftyCertificate(pair, d, d == p - 1)


def _available_cpus() -> List[int]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _place(cpus: Set[int]) -> None:
    """Confine this process to cpus, best effort: where the kernel refuses
    (EINVAL, EPERM), it stays put."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _shares(pairs: List[SophieGermainPair], n: int) -> List[List[int]]:
    """Indices of pairs split into n shares of near-equal work, longest
    first, as `_route` estimates it for each pair's route."""
    work = [_route(pr.p)[2] for pr in pairs]
    shares: List[List[int]] = [[] for _ in range(n)]
    loads = [0] * n
    for i in sorted(range(len(pairs)), key=work.__getitem__, reverse=True):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += work[i]
    return shares


def _fork_share(pairs: List[SophieGermainPair], share: List[int],
                cpu: Optional[int]) -> Tuple[int, int]:
    """Fork a child that certifies pairs[i] for i in share, on CPU cpu if
    one is given and it can be placed there, and writes their d_infty as
    decimal text to a pipe; return its pid and the read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        # os._exit in finally ends the child on any exception before a
        # traceback prints, and skips the parent's atexit hooks and stdio
        # buffers; the parent reads a failure from the exit status.
        status = 1
        try:
            os.close(read_end)
            if cpu is not None:
                _place({cpu})
            text = " ".join(str(certify_rho_infty(pairs[i]).d_infty) for i in share)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(text.encode())
            status = 0
        finally:
            os._exit(status)
    # a later child must not inherit this write end, or the pipe never ends
    os.close(write_end)
    return pid, read_end


def _read_to_eof(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _scan_forked(pairs: List[SophieGermainPair], workers: int,
                 cpus: Optional[List[int]]) -> List[RhoInftyCertificate]:
    """A forked child certifies each share, pinned to cpus[k] for share k
    if cpus is given, while the parent waits; every child is reaped before
    this returns or raises."""
    d_infty = {}
    children: List[Tuple[int, int, List[int]]] = []  # pid, read end, share
    refused: List[int] = []
    outputs: List[bytes] = []
    try:
        for k, share in enumerate(_shares(pairs, workers)):
            try:
                pid, read_end = _fork_share(
                    pairs, share, None if cpus is None else cpus[k])
            except OSError:  # no process or pipe to spare: certify it here
                refused.extend(share)
                continue
            children.append((pid, read_end, share))
        # after every fork, so the children run alongside it
        d_infty.update((i, certify_rho_infty(pairs[i]).d_infty) for i in refused)
        outputs = [_read_to_eof(read_end) for _, read_end, _ in children]
    except BaseException:
        import signal  # only here, so that a normal run never loads it
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, read_end, _ in children:
            os.close(read_end)
            statuses.append(os.waitpid(pid, 0)[1])
    for (_, _, share), out, status in zip(children, outputs, statuses):
        values = [int(v) for v in out.split()]
        if status != 0 or len(values) != len(share):
            values = [certify_rho_infty(pairs[i]).d_infty for i in share]
        d_infty.update(zip(share, values))
    return [RhoInftyCertificate(pr, d_infty[i], d_infty[i] == pr.p - 1)
            for i, pr in enumerate(pairs)]


def scan_sophie_germain(q_max: int, workers: int = 1) -> List[RhoInftyCertificate]:
    """Certify every pair with q <= q_max, in ascending q.

    workers > 1 forks up to workers child processes, one per share, never
    more than the pairs or the CPUs available to the process allow, and
    the parent only waits; workers = 0 means one per available CPU. When
    the workers take every CPU of the sorted affinity mask cpus, child k
    is pinned to cpus[k], best effort: a forked child left to the
    scheduler tends to share its parent's CPU. The caller's own mask is
    never changed, workers <= 1 makes no affinity call, and with CPUs to
    spare (a case not measured) the scheduler places the workers. The
    result does not depend on workers. A child that fails has its share
    certified again by the parent, so an exception surfaces as on the
    serial path. A caller running other threads should keep workers = 1:
    a forked child gets only the calling thread. A negative q_max or
    workers raises ValueError."""
    if q_max < 0:
        raise ValueError(f"max-q must be non-negative, got {q_max}")
    if workers < 0:
        raise ValueError(f"worker count must be non-negative, got {workers}")
    pairs = sophie_germain_pairs(q_max)
    cpus = _available_cpus()
    workers = min(workers or len(cpus), len(pairs), len(cpus))
    if workers <= 1 or not hasattr(os, "fork"):
        return [certify_rho_infty(pr) for pr in pairs]
    # pinned only when the workers take every CPU, the case that was measured
    placed = None
    if workers == len(cpus) and hasattr(os, "sched_setaffinity"):
        placed = cpus
    return _scan_forked(pairs, workers, placed)
