"""Dense bit-packed linear algebra over F2.

Rows, vectors and polynomials are Python ints: bit i is column i, or the
coefficient of x^i. Matrices are immutable; elimination always works on
copies, so values can be shared freely across threads. The polynomial gcd
runs in the optional C extension `jacrank._f2core` when it is built, and in
the pure-Python loop here otherwise; everything else is pure Python.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .arith import CheckedRecord

try:
    from . import _f2core
except ImportError:
    _f2core = None

__all__ = ["MatF2", "VecF2", "rank", "echelon_rank", "kernel_basis",
           "span_dimension", "poly_gcd", "backend_name"]


def backend_name() -> str:
    """Which polynomial gcd runs: "compiled" or "pure"."""
    return "pure" if _f2core is None else "compiled"


class _VecF2(NamedTuple):
    length: int
    bits: int


class VecF2(CheckedRecord, _VecF2):
    __slots__ = ()

    def __new__(cls, length: int, bits: int) -> "VecF2":
        if length < 0 or not 0 <= bits < (1 << length):
            raise ValueError("bits exceed vector length")
        return super().__new__(cls, length, bits)

    @classmethod
    def from_bits(cls, entries: Iterable[int]) -> "VecF2":
        es = [int(bool(e)) for e in entries]
        return cls(len(es), sum(b << i for i, b in enumerate(es)))


class _MatF2(NamedTuple):
    rows: int
    cols: int
    bits: Tuple[int, ...]


class MatF2(CheckedRecord, _MatF2):
    __slots__ = ()

    def __new__(cls, rows: int, cols: int, bits: Tuple[int, ...]) -> "MatF2":
        if len(bits) != rows:
            raise ValueError("bit storage length does not match row count")
        for r in bits:
            if not 0 <= r < (1 << cols):
                raise ValueError("row value exceeds column width")
        return super().__new__(cls, rows, cols, bits)


def echelon_rank(rows: Iterable[int], stop_at: Optional[int] = None) -> int:
    """Rank over F2 of packed rows, eliminated in the order given.

    No row is read after the one that brings the rank to stop_at, so rows
    may be a generator that is costly to run to its end."""
    pivots = {}
    rk = 0
    for row in rows:
        cur = row
        while cur:
            m = cur.bit_length() - 1
            if m in pivots:
                cur ^= pivots[m]
            else:
                pivots[m] = cur
                rk += 1
                break
        if rk == stop_at:
            break
    return rk


def rank(m: MatF2) -> int:
    return echelon_rank(m.bits)


def kernel_basis(m: MatF2) -> Tuple[VecF2, ...]:
    """Basis of {x : every row r has parity(r & x) = 0}.

    Columns are eliminated left to right; each dependent column emits the
    accumulated combination, so the order is deterministic."""
    pivots = {}
    out: List[VecF2] = []
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
            out.append(VecF2(m.cols, tracker))
    return tuple(out)


def span_dimension(vectors: Sequence[VecF2]) -> int:
    vs = list(vectors)
    if not vs:
        return 0
    n = vs[0].length
    if any(v.length != n for v in vs):
        raise ValueError("vectors have mismatched lengths")
    return echelon_rank(v.bits for v in vs)


def poly_gcd(a: int, b: int) -> int:
    """gcd of polynomials over F2, coefficients packed into int bits."""
    if a < 0 or b < 0:
        raise ValueError("packed polynomials must be nonnegative")
    if _f2core is not None:
        n = (max(a.bit_length(), b.bit_length()) + 7) // 8
        return int.from_bytes(
            _f2core.poly_gcd(a.to_bytes(n, "little"), b.to_bytes(n, "little")),
            "little")
    while b:
        db = b.bit_length() - 1
        while a:
            da = a.bit_length() - 1
            if da < db:
                break
            a ^= b << (da - db)
        a, b = b, a
    return a
