"""Sharpness statistics: how often the certified upper bound is attained.

Inputs are rank stores whose records carry the best lower bound `lo` (the
exact rank when status=exact) and the certified upper bound `hi`. Records
with status=bounds have an unknown rank: they count as family members but
never as sharp, so every reported fraction is a lower bound on the true
sharpness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .stores import RankStore

__all__ = [
    "SharpRow",
    "StatsTables",
    "format_cross_table",
    "format_first_occurrences",
    "format_sharp_table",
    "sharpness_stats",
]


class SharpRow(NamedTuple):
    lo: int
    hi: int
    numerator: int    # members whose exact rank equals the upper bound
    denominator: int  # all family members in the interval

    def value(self) -> Optional[Fraction]:
        if self.denominator == 0:
            return None
        return Fraction(self.numerator, self.denominator)


class StatsTables(NamedTuple):
    sharp_rows: Tuple[SharpRow, ...]
    r_values: Tuple[int, ...]
    b_values: Tuple[int, ...]
    cells: Tuple[Tuple[Tuple[int, int], int], ...]  # ((rank, bound), count)
    column_totals: Dict[int, int]
    diagonal_ratios: Tuple[Tuple[int, Optional[Fraction]], ...]
    first_occurrences: Tuple[Tuple[int, int, int], ...]  # (rank, bound, first m)


def _check_intervals(intervals: Sequence[Tuple[int, int]]) -> None:
    for a, b in intervals:
        if a > b:
            raise ValueError(f"malformed interval [{a},{b}]")
    ordered = sorted(intervals)
    for (a1, b1), (a2, b2) in zip(ordered, ordered[1:]):
        if a2 <= b1:
            raise ValueError(f"intervals [{a1},{b1}] and [{a2},{b2}] overlap")


def sharpness_stats(ranks: RankStore,
                    intervals: Sequence[Tuple[int, int]]) -> StatsTables:
    _check_intervals(intervals)
    records = ranks.records()
    exact = {r.m: r.lo for r in records if r.status == "exact"}
    bound = {r.m: r.hi for r in records}

    sharp_rows = []
    for a, b in intervals:
        den = sum(1 for m in bound if a <= m <= b)
        num = sum(1 for m, r in exact.items() if a <= m <= b and r == bound[m])
        sharp_rows.append(SharpRow(a, b, num, den))

    cells: Dict[Tuple[int, int], int] = {}
    firsts: Dict[Tuple[int, int], int] = {}
    for m in sorted(exact):
        key = (exact[m], bound[m])
        cells[key] = cells.get(key, 0) + 1
        firsts.setdefault(key, m)
    r_values = tuple(sorted({r for r, _ in cells}))
    b_values = tuple(sorted(set(bound.values())))
    column_totals = {r: sum(c for (rr, _), c in cells.items() if rr == r)
                     for r in r_values}
    ratios = []
    for b in b_values:
        den = sum(c for (_, bb), c in cells.items() if bb == b)
        num = cells.get((b, b), 0)
        ratios.append((b, Fraction(num, den) if den else None))

    return StatsTables(
        sharp_rows=tuple(sharp_rows),
        r_values=r_values,
        b_values=b_values,
        cells=tuple(sorted(cells.items())),
        column_totals=column_totals,
        diagonal_ratios=tuple(ratios),
        first_occurrences=tuple(sorted((r, b, m) for (r, b), m in firsts.items())),
    )


def format_sharp_table(tables: StatsTables) -> str:
    lines = ["interval sharp"]
    for row in tables.sharp_rows:
        v = row.value()
        shown = "n/a" if v is None else f"{float(v):.5f}"
        lines.append(f"[{row.lo},{row.hi}] {shown}")
    return "\n".join(lines)


def format_cross_table(tables: StatsTables) -> str:
    cell = dict(tables.cells)
    lines = []
    for b, ratio in tables.diagonal_ratios:
        counts = " ".join(f"t{r}={cell.get((r, b), 0)}" for r in tables.r_values)
        shown = "n/a" if ratio is None else f"{float(ratio):.4f}"
        lines.append(f"b={b} {counts} ratio={shown}")
    totals = " ".join(f"t{r}={tables.column_totals[r]}" for r in tables.r_values)
    lines.append(f"totals {totals}")
    return "\n".join(lines)


def format_first_occurrences(tables: StatsTables) -> str:
    return "\n".join(f"first r={r} b={b} m={m}"
                     for r, b, m in tables.first_occurrences)
