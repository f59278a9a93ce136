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

- e = 1 (2 is a primitive root mod p): x^p - 1 = (x + 1) Phi_p with Phi_p
  irreducible, so the gcd is fixed by the parity of w and by whether w is
  0 or all-ones.
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
  the cosets relabelled by n -> -n) and bit e = w_j. Rows j = 0, 1, ...
  are eliminated until the rank reaches e + 1 - [wt w even], which proves
  deg gcd = [wt w even]. All p rows give dim w A, as do any k consecutive
  ones, k = dim R w, since they are an information set of the cyclic code
  R w; on the certified range the rank is reached within e + 10 rows.
  After e + 64 rows, unless that is all p of them, the word goes to the
  general gcd. The coset masks come from a walk of half of <2> or less,
  completed by doublings n -> 2n, and each coset from the one before by
  n -> gn, each such map a few slices of an array of p digits
  (`_coset_masks`).
- Otherwise (8 e^2 > p, where the probe would cost more) the general gcd
  in `f2.poly_gcd`.

No step is probabilistic: every route is exact.

The scan spreads the pairs over forked worker processes: the routes are pure
Python, so threads would share one core under the interpreter lock.
"""

from __future__ import annotations

import os
import signal
from functools import lru_cache
from itertools import islice
from math import isqrt
from typing import Iterator, List, NamedTuple, Tuple, Union

from .arith import CheckedRecord, is_prime, order_dividing, prime_factors, \
    primes_upto
from .f2 import MatF2, echelon_rank, poly_gcd, rank

__all__ = [
    "SophieGermainPair",
    "SignatureVector",
    "DoublingPermutation",
    "RhoInftyCertificate",
    "sophie_germain_pairs",
    "canonical_signature",
    "doubling_permutation",
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

    @property
    def genus(self) -> int:
        return (self.p - 1) // 2


class _SignatureVector(NamedTuple):
    signs: Tuple[int, ...]


class SignatureVector(CheckedRecord, _SignatureVector):
    __slots__ = ()

    def __new__(cls, signs: Tuple[int, ...]) -> "SignatureVector":
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        return super().__new__(cls, signs)

    def psi_bits(self) -> int:
        """psi(-1) = 1, psi(+1) = 0, packed with bit i = entry i."""
        return sum(1 << i for i, s in enumerate(self.signs) if s < 0)


class _DoublingPermutation(NamedTuple):
    images: Tuple[int, ...]  # 1-based: images[i-1] = phi(i)


class DoublingPermutation(CheckedRecord, _DoublingPermutation):
    __slots__ = ()

    def __new__(cls, images: Tuple[int, ...]) -> "DoublingPermutation":
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a permutation of 1..p")
        return super().__new__(cls, images)


class RhoInftyCertificate(NamedTuple):
    pair: SophieGermainPair
    d_infty: int
    rho_infty_zero: bool


def sophie_germain_pairs(q_max: int) -> List[SophieGermainPair]:
    """All pairs (p, q) with q <= q_max, q = 2p+1, both prime, p odd."""
    if q_max < 7:
        return []
    primes = primes_upto(q_max)
    sieve = set(primes)
    out = []
    for q in primes:
        p = (q - 1) // 2
        if q >= 7 and q % 2 == 1 and p in sieve:
            # the sieve proved p and q prime: build without the checks
            out.append(_SophieGermainPair.__new__(SophieGermainPair, p, q))
    return out


def _n_minus(pair: SophieGermainPair) -> int:
    return (pair.p - 1) // 2 if pair.p % 4 == 1 else (pair.p + 1) // 2


def canonical_signature(pair: SophieGermainPair) -> SignatureVector:
    """Sign vector of the canonical norm-one unit at the ascending real
    embeddings: a prefix of -1 entries, (p-1)/2 of them when p = 1 mod 4 and
    (p+1)/2 when p = 3 mod 4."""
    n = _n_minus(pair)
    return SignatureVector((-1,) * n + (1,) * (pair.p - n))


def doubling_permutation(pair: SophieGermainPair) -> DoublingPermutation:
    """phi with tau_i(sigma(u)) = r_phi(i), sigma(zeta+zeta^-1) = zeta^2+zeta^-2."""
    p, q = pair.p, pair.q
    images = []
    for i in range(1, p + 1):
        if p % 4 == 1:
            t = 2 * i % q
            images.append(min(t, q - t))
        else:
            t = 2 * (p + 1 - i) % q
            images.append(p + 1 - min(t, q - t))
    return DoublingPermutation(tuple(images))


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
    """p x (p-1) matrix with entry (i, j) = psi(epsilon_{phi^j(i)})."""
    p = pair.p
    f = canonical_signature(pair).psi_bits()
    images = doubling_permutation(pair).images
    rows = [0] * p
    idx = list(range(1, p + 1))  # idx[i-1] = phi^j(i)
    for j in range(p - 1):
        for i in range(p):
            if (f >> (idx[i] - 1)) & 1:
                rows[i] |= 1 << j
        idx = [images[k - 1] for k in idx]
    return MatF2(p, p - 1, tuple(rows))


# probe rows read beyond e before the word goes to the general gcd
_PROBE_SPARE_ROWS = 64
# a probe's coset labelling costs about as much as this many of the gcd's
# p-bit shift-xors (pure Python, p near 40000)
_PROBE_LABEL_WORK = 1152
# a doubling of the coset labelling, two slices and an OR of p digits, costs
# about as much as p / _WALK_STEPS_PER_DOUBLING steps of its Python walk
_WALK_STEPS_PER_DOUBLING = 64


@lru_cache(maxsize=None)
def _route(p: int) -> Tuple[str, int, int]:
    """How certify_rho_infty finds deg gcd(w, x^p - 1) for the prime p: the
    route ("primitive", "probe" or "gcd"), m = ord_p(2), and the route's
    estimated work in bit operations, which `_shares` balances. It is
    cached, so a scan finds each order once: `_shares` in the parent, then
    `certify_rho_infty` in the parent or in a forked child, which inherits
    the cache.

    The gcd runs about p shift-xors of p-bit words, p^2 bit operations.
    The probe's rows cost about e^2 AND-and-popcounts of p bits, some 8 e^2
    shift-xors, plus its coset labelling. It is taken when 8 e^2 <= p. On
    such pairs with q <= 92459 it measured (pure Python) a median 3x
    faster than the gcd below p = 2000 and 17x above p = 30000, and slower
    only at p = 41, 911 and 1013, by under 0.1 ms. The primitive-root
    closed form reads the weight of w, p bits."""
    m = order_dividing(2, p, p - 1)  # p is prime: (Z/p)^x has order p - 1
    e = (p - 1) // m
    if e == 1:
        return "primitive", m, p
    if 8 * e * e <= p:
        return "probe", m, (8 * e * e + _PROBE_LABEL_WORK) * p
    return "gcd", m, p * p


def _primitive_gcd_degree(w: int, p: int) -> int:
    """deg gcd(w, x^p - 1) over F2 for a length-p word w, when 2 is a
    primitive root mod p: x + 1 divides w iff its weight is even, and the
    irreducible Phi_p of degree p-1 divides w iff w is 0 or all-ones. This
    is the e = 1 case of the probe's identity."""
    return (w.bit_count() % 2 == 0) + (p - 1) * (w in (0, (1 << p) - 1))


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


def _coset_masks(p: int, m: int) -> List[int]:
    """The masks sum of 2^n over n in C of the e = (p-1)/m >= 2 cosets C
    of H = <2> in (Z/p)^x, H first.

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
    order e, and the last coset is what the others leave. The labelling
    costs about m / d steps of Python, d + e - 3 dilations and e - 1
    conversions of p digits, and holds O(p) bytes besides the e masks."""
    e = (p - 1) // m
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
    # g generates the cyclic (Z/p)^x / H when no g^((p-1)/r) = 1, r | e prime
    factors = prime_factors(e)
    g = 3
    while any(pow(g, (p - 1) // r, p) == 1 for r in factors):
        g += 1
    covered = masks[0]
    for _ in range(e - 2):
        digits = _dilate(digits, p, g)
        masks.append(int(digits, 2) << 1)
        covered |= masks[-1]
    masks.append(((1 << p) - 2) ^ covered)
    return masks


def _probe_rows(w: int, p: int, masks: List[int]) -> Iterator[int]:
    """Rows j = 0, 1, ... of the probe matrix: bit i is the parity of
    w_{n+j} over n in the coset of masks[i], bit len(masks) is w_j."""
    e = len(masks)
    r = w  # w rotated right by j: bit t is w_{t+j mod p}
    while True:
        row = (r & 1) << e
        for i, mask in enumerate(masks):
            row |= ((r & mask).bit_count() & 1) << i
        yield row
        r = (r >> 1) | ((r & 1) << (p - 1))


def _probe_gcd_degree(w: int, p: int, m: int) -> int:
    """deg gcd(w, x^p - 1) over F2 from the rank of the coset probe (see
    the module docstring), or from the general gcd when the rank has not
    proved it within e + _PROBE_SPARE_ROWS rows, fewer than p."""
    e = (p - 1) // m
    even = w.bit_count() % 2 == 0
    unvanished = e + 1 - even  # dim w A when w vanishes on no coset
    rows = min(p, e + _PROBE_SPARE_ROWS)
    dim = echelon_rank(islice(_probe_rows(w, p, _coset_masks(p, m)), rows),
                       stop_at=unvanished)
    if dim == unvanished or rows == p:  # all p rows give dim w A itself
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
        if route == "primitive":
            d = p - _primitive_gcd_degree(w, p)
        elif route == "probe":
            d = p - _probe_gcd_degree(w, p, m)
        else:
            d = p - _poly_gcd_degree(w, p)
    elif method == "matrix":
        d = rank(build_M_infty(pair))
    else:
        raise ValueError(f"unknown method {method!r}")
    return RhoInftyCertificate(pair, d, d == p - 1)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _fork_share(pairs: List[SophieGermainPair], share: List[int]) -> Tuple[int, int]:
    """Fork a child that certifies pairs[i] for i in share and writes their
    d_infty as decimal text to a pipe; return its pid and the read end."""
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


def _scan_forked(pairs: List[SophieGermainPair], workers: int) -> List[RhoInftyCertificate]:
    """The parent certifies the first share while a forked child certifies
    each other one; every child is reaped before this returns or raises."""
    shares = _shares(pairs, workers)
    own = list(shares[0])
    children: List[Tuple[int, int, List[int]]] = []  # pid, read end, share
    outputs: List[bytes] = []
    try:
        for share in shares[1:]:
            try:
                pid, read_end = _fork_share(pairs, share)
            except OSError:  # no process or pipe to spare: certify it here
                own += share
                continue
            children.append((pid, read_end, share))
        d_infty = {i: certify_rho_infty(pairs[i]).d_infty for i in own}
        outputs = [_read_to_eof(read_end) for _, read_end, _ in children]
    except BaseException:
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

    workers > 1 forks up to workers - 1 child processes, never more than
    the pairs or the CPUs available to the process allow, and the parent
    certifies one share itself; workers = 0 means one per available CPU.
    The result does not depend on workers. A child that fails has its
    share certified again by the parent, so an exception surfaces as on
    the serial path. A caller running other threads should keep
    workers = 1: a forked child gets only the calling thread."""
    if workers < 0:
        raise ValueError(f"worker count must be non-negative, got {workers}")
    pairs = sophie_germain_pairs(q_max)
    cpus = _available_cpus()
    workers = min(workers or cpus, len(pairs), cpus)
    if workers <= 1 or not hasattr(os, "fork"):
        return [certify_rho_infty(pr) for pr in pairs]
    return _scan_forked(pairs, workers)
