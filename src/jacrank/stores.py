"""Line-oriented stores for externally computed data.

Class-group 2-ranks are ingested, never computed: the trust boundary is kept
explicit through mandatory free-text `source=` provenance. Files are strict:
versioned headers, known fields only, and errors that carry file:line.

Formats:

  clgroup v1
  poly=<comma-separated integer coefficients, ascending, monic of
      degree >= 2> cl2=<int> [narrow_cl2=<int>] source=<free text, may
      contain spaces>

  ranks v1
  m=<int> status=<exact|bounds> lo=<int> hi=<int>

In a rank record, `hi` is the certified upper bound and `lo` the best lower
bound; `status=exact` asserts that `lo` is the true rank.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, NamedTuple, Optional, Set, Tuple, Union

__all__ = [
    "ClassGroupRecord",
    "ClassGroupStore",
    "RankRecord",
    "RankStore",
    "StoreFormatError",
    "builtin_class_groups",
    "ingest_class_groups",
    "ingest_rank_data",
    "parse_class_groups",
    "parse_rank_data",
]


class StoreFormatError(ValueError):
    """A data file violated its schema; message carries name:line."""


def _fail(name: str, lineno: int, msg: str) -> None:
    raise StoreFormatError(f"{name}:{lineno}: {msg}")


class ClassGroupRecord(NamedTuple):
    poly: Tuple[int, ...]
    cl2_rank: int
    narrow_cl2_rank: Optional[int]
    source: str


class RankRecord(NamedTuple):
    m: int
    status: str
    lo: int
    hi: int


class ClassGroupStore:
    def __init__(self) -> None:
        self._records: Dict[Tuple[int, ...], ClassGroupRecord] = {}
        # the degrees of the keys, so that a caller whose key is costly to
        # build can first ask whether any record could match it
        self.degrees: Set[int] = set()

    def get(self, poly: Tuple[int, ...]) -> Optional[ClassGroupRecord]:
        return self._records.get(tuple(poly))


class RankStore:
    def __init__(self) -> None:
        self._records: Dict[int, RankRecord] = {}

    def records(self) -> Tuple[RankRecord, ...]:
        return tuple(self._records[m] for m in sorted(self._records))


def _split_fields(line: str, name: str, lineno: int,
                  expected: Tuple[str, ...]) -> Dict[str, str]:
    """key=value tokens; a trailing source= field swallows the rest of the
    line so provenance strings may contain spaces."""
    fields: Dict[str, str] = {}
    rest = line
    if "source=" in line:
        head, _, tail = line.partition("source=")
        fields["source"] = tail.strip()
        rest = head
    for token in rest.split():
        key, eq, value = token.partition("=")
        if not eq:
            _fail(name, lineno, f"malformed token {token!r}")
        if key in fields:
            _fail(name, lineno, f"repeated field {key!r}")
        if key not in expected:
            _fail(name, lineno, f"unknown field {key!r}")
        fields[key] = value
    return fields


def _int_field(fields: Dict[str, str], key: str, name: str, lineno: int) -> int:
    raw = fields.get(key)
    if raw is None:
        _fail(name, lineno, f"missing field {key!r}")
    try:
        return int(raw)
    except ValueError:
        _fail(name, lineno, f"field {key!r} is not an integer: {raw!r}")
    raise AssertionError  # unreachable


def _check_header(text: str, want: str, name: str) -> Tuple[str, ...]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != want:
        _fail(name, 1, f"expected header {want!r}")
    return tuple(lines)


def parse_class_groups(text: str, name: str = "<string>") -> ClassGroupStore:
    lines = _check_header(text, "clgroup v1", name)
    store = ClassGroupStore()
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = _split_fields(stripped, name, lineno,
                               ("poly", "cl2", "narrow_cl2", "source"))
        if "poly" not in fields:
            _fail(name, lineno, "missing field 'poly'")
        if "source" not in fields or not fields["source"]:
            _fail(name, lineno, "missing field 'source'")
        try:
            poly = tuple(int(c) for c in fields["poly"].split(","))
        except ValueError:
            _fail(name, lineno, f"bad polynomial key {fields['poly']!r}")
        if len(poly) < 3 or poly[-1] != 1:
            # lookups are by the exact key of a monic curve polynomial
            _fail(name, lineno, f"polynomial key {fields['poly']!r} is not "
                  "monic of degree >= 2")
        cl2 = _int_field(fields, "cl2", name, lineno)
        if cl2 < 0:
            _fail(name, lineno, "cl2 must be non-negative")
        narrow: Optional[int] = None
        if "narrow_cl2" in fields:
            narrow = _int_field(fields, "narrow_cl2", name, lineno)
            if narrow < cl2:
                _fail(name, lineno,
                      f"narrow_cl2={narrow} below cl2={cl2}; the narrow class"
                      " group surjects onto the class group")
        record = ClassGroupRecord(poly, cl2, narrow, fields["source"])
        existing = store._records.get(poly)
        if existing is not None and existing != record:
            _fail(name, lineno, f"conflicting duplicate for poly={fields['poly']}")
        store._records[poly] = record
        store.degrees.add(len(poly) - 1)
    return store


def parse_rank_data(text: str, name: str = "<string>") -> RankStore:
    lines = _check_header(text, "ranks v1", name)
    store = RankStore()
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = _split_fields(stripped, name, lineno,
                               ("m", "status", "lo", "hi"))
        m = _int_field(fields, "m", name, lineno)
        if m <= 0:
            _fail(name, lineno, "m must be positive")
        status = fields.get("status")
        if status not in ("exact", "bounds"):
            _fail(name, lineno, f"status must be exact or bounds, got {status!r}")
        lo = _int_field(fields, "lo", name, lineno)
        hi = _int_field(fields, "hi", name, lineno)
        if not 0 <= lo <= hi:
            _fail(name, lineno, f"need 0 <= lo <= hi, got lo={lo} hi={hi}")
        if m in store._records:
            _fail(name, lineno, f"duplicate record for m={m}")
        store._records[m] = RankRecord(m, status, lo, hi)
    return store


def ingest_class_groups(path: Union[str, Path]) -> ClassGroupStore:
    p = Path(path)
    return parse_class_groups(p.read_text(), str(p))


def ingest_rank_data(path: Union[str, Path]) -> RankStore:
    p = Path(path)
    return parse_rank_data(p.read_text(), str(p))


def builtin_class_groups() -> ClassGroupStore:
    data = Path(__file__).with_name("data") / "class_groups.txt"
    return parse_class_groups(data.read_text(), "builtin:class_groups.txt")
