"""Dense bit-packed linear algebra over F2.

Rows, columns, vectors and polynomials are Python ints: bit i is entry i,
or the coefficient of x^i. Matrices are immutable; elimination always works
on copies, so values can be shared freely across threads. Every kernel,
the polynomial gcd included, is pure Python and has one implementation.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .arith import CheckedRecord

__all__ = ["MatF2", "VecF2", "rank", "echelon_rank", "kernel_basis",
           "span_dimension", "poly_gcd", "backend_name"]


def backend_name() -> str:
    """Always "pure": the package has no compiled part. Kept because the
    benchmark's start-up probe still records it; it goes with the
    benchmark's revision (ROADMAP item 13)."""
    return "pure"


class _VecF2(NamedTuple):
    length: int
    bits: int


class VecF2(CheckedRecord, _VecF2):
    __slots__ = ()

    def __new__(cls, length: int, bits: int) -> "VecF2":
        if length < 0 or not 0 <= bits < (1 << length):
            raise ValueError("bits exceed vector length")
        return super().__new__(cls, length, bits)


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


def kernel_basis(columns: Sequence[int]) -> List[int]:
    """Basis of the dependencies among packed columns: the masks x, bit j
    selecting columns[j], whose selected columns XOR to 0.

    Columns are eliminated left to right; each dependent column emits the
    accumulated combination, so the order is deterministic."""
    pivots = {}
    out: List[int] = []
    for j, cur in enumerate(columns):
        if cur < 0:
            raise ValueError("packed columns must be nonnegative")
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
    while b:
        db = b.bit_length() - 1
        while a:
            da = a.bit_length() - 1
            if da < db:
                break
            a ^= b << (da - db)
        a, b = b, a
    return a
