"""Line-oriented data stores: class-group records and rank records."""

from __future__ import annotations

from pathlib import Path

import pytest

from jacrank import stores
from jacrank.cli import main
from jacrank.stores import (
    ClassGroupRecord,
    RankRecord,
    StoreFormatError,
    builtin_class_groups,
    ingest_class_groups,
    ingest_rank_data,
    parse_class_groups,
    parse_rank_data,
)

CLG = """clgroup v1
# simplest cubic fields
poly=1,-4,1,1 cl2=0 source=literature
poly=1,-146,143,1 cl2=4 narrow_cl2=4 source=literature
"""

RANKS = """ranks v1
m=1 status=exact lo=1 hi=1
m=11 status=exact lo=3 hi=3
m=170 status=exact lo=1 hi=3
m=999 status=bounds lo=1 hi=5
"""


def test_parse_class_groups_basic():
    store = parse_class_groups(CLG, "inline")
    rec = store.get((1, -4, 1, 1))
    assert rec == ClassGroupRecord((1, -4, 1, 1), 0, None, "literature")
    rec2 = store.get((1, -146, 143, 1))
    assert rec2.cl2_rank == 4
    assert rec2.narrow_cl2_rank == 4
    assert store.get((1, 2, 3)) is None
    assert store.degrees == {3}


def test_class_group_source_may_contain_spaces():
    store = parse_class_groups(
        "clgroup v1\npoly=1,0,1 cl2=1 source=tables, second edition\n")
    assert store.get((1, 0, 1)).source == "tables, second edition"


def test_class_group_header_required():
    with pytest.raises(StoreFormatError, match=r"inline:1:"):
        parse_class_groups("poly=1,0,1 cl2=0 source=x\n", "inline")
    with pytest.raises(StoreFormatError, match="clgroup v1"):
        parse_class_groups("clgroup v2\n", "inline")


def test_class_group_field_errors_carry_line_numbers():
    bad = "clgroup v1\n\npoly=1,0,1 cl2=zero source=x\n"
    with pytest.raises(StoreFormatError, match=r"inline:3:"):
        parse_class_groups(bad, "inline")
    with pytest.raises(StoreFormatError, match=r"inline:2:.*unknown field"):
        parse_class_groups("clgroup v1\npoly=1,0,1 cl2=0 extra=1 source=x\n",
                           "inline")
    with pytest.raises(StoreFormatError, match=r"missing"):
        parse_class_groups("clgroup v1\npoly=1,0,1 source=x\n", "inline")


def test_class_group_invariant_narrow_at_least_plain():
    bad = "clgroup v1\npoly=1,0,1 cl2=3 narrow_cl2=1 source=x\n"
    with pytest.raises(StoreFormatError, match=r"narrow"):
        parse_class_groups(bad, "inline")


def test_class_group_negative_rank_rejected():
    with pytest.raises(StoreFormatError):
        parse_class_groups("clgroup v1\npoly=1,0,1 cl2=-1 source=x\n")


def test_class_group_duplicates():
    dup_same = ("clgroup v1\npoly=1,0,1 cl2=1 source=a\n"
                "poly=1,0,1 cl2=1 source=a\n")
    store = parse_class_groups(dup_same)
    assert store.get((1, 0, 1)) == ClassGroupRecord((1, 0, 1), 1, None, "a")
    dup_conflict = ("clgroup v1\npoly=1,0,1 cl2=1 source=a\n"
                    "poly=1,0,1 cl2=2 source=b\n")
    with pytest.raises(StoreFormatError, match=r"conflict"):
        parse_class_groups(dup_conflict)


def test_class_group_key_must_be_monic_of_degree_at_least_two(tmp_path):
    # lookups are by the exact key of a monic curve polynomial: a key with
    # another leading coefficient, a trailing zero or degree < 2 could never
    # match, so it is rejected with its file:line rather than kept dead
    for key in ("1,-4,1,2", "1,-4,1,1,0", "1", "1,1", "1,0,0"):
        with pytest.raises(StoreFormatError,
                           match=rf"inline:3: polynomial key '{key}' is not "
                                 "monic of degree >= 2"):
            parse_class_groups("clgroup v1\n# fields\n"
                               f"poly={key} cl2=0 source=x\n", "inline")
    for key in ("1,0,1", "1,-4,1,1", "-1,2,-1,1"):
        store = parse_class_groups(f"clgroup v1\npoly={key} cl2=0 source=x\n")
        assert store.get(tuple(map(int, key.split(",")))) is not None
    # the workloads' generated keys 1,-(m+3),m,1 parse too
    store = parse_class_groups("clgroup v1\n" + "".join(
        f"poly=1,{-(m + 3)},{m},1 cl2=0 source=x\n" for m in range(-5, 301)))
    assert store.get((1, -303, 300, 1)).cl2_rank == 0
    # through the CLI a dead key is invalid input, exit 2
    path = tmp_path / "clg.txt"
    path.write_text("clgroup v1\npoly=1,-4,1,2 cl2=0 source=x\n")
    assert main(["washington", "--m", "1..1", "--clgroups", str(path)]) == 2


def test_class_group_empty_file_is_empty_store():
    store = parse_class_groups("clgroup v1\n")
    assert store.get((1, 0, 1)) is None
    assert store.get((1, -4, 1, 1)) is None
    assert store.degrees == set()


def test_ingest_class_groups_roundtrip(tmp_path):
    path = tmp_path / "fixture.clg"
    path.write_text(CLG)
    store = ingest_class_groups(path)
    assert store.get((1, -146, 143, 1)).cl2_rank == 4
    with pytest.raises(FileNotFoundError):
        ingest_class_groups(tmp_path / "missing.clg")


def test_parse_rank_data_basic():
    store = parse_rank_data(RANKS, "inline")
    assert store.records() == (RankRecord(1, "exact", 1, 1),
                               RankRecord(11, "exact", 3, 3),
                               RankRecord(170, "exact", 1, 3),
                               RankRecord(999, "bounds", 1, 5))


def test_rank_data_errors():
    with pytest.raises(StoreFormatError, match="ranks v1"):
        parse_rank_data("clgroup v1\n")
    with pytest.raises(StoreFormatError, match=r"inline:2:.*status"):
        parse_rank_data("ranks v1\nm=1 status=guess lo=1 hi=1\n", "inline")
    with pytest.raises(StoreFormatError, match=r"lo"):
        parse_rank_data("ranks v1\nm=1 status=bounds lo=5 hi=3\n")
    with pytest.raises(StoreFormatError, match=r"duplicate"):
        parse_rank_data("ranks v1\nm=1 status=exact lo=1 hi=1\n"
                        "m=1 status=exact lo=1 hi=1\n")
    with pytest.raises(StoreFormatError, match=r"unknown field"):
        parse_rank_data("ranks v1\nm=1 status=exact lo=1 hi=1 rank=1\n")
    with pytest.raises(StoreFormatError, match=r"m must be positive"):
        parse_rank_data("ranks v1\nm=0 status=exact lo=1 hi=1\n")


def test_exact_rank_cannot_exceed_bound():
    # status=exact means lo is the true rank; it must not exceed hi.
    ok = parse_rank_data("ranks v1\nm=5 status=exact lo=2 hi=4\n")
    assert ok.records() == (RankRecord(5, "exact", 2, 4),)


def test_ingest_rank_data_roundtrip(tmp_path):
    path = tmp_path / "ranks.txt"
    path.write_text(RANKS)
    assert len(ingest_rank_data(path).records()) == 4


def test_builtin_class_groups_cover_the_shipped_fields():
    store = builtin_class_groups()
    # simplest-cubic fields for m = 1, 11, 143
    assert store.get((1, -4, 1, 1)).cl2_rank == 0
    assert store.get((1, -14, 11, 1)).cl2_rank == 2
    assert store.get((1, -146, 143, 1)).cl2_rank == 4
    # real cyclotomic fields for q = 7, 11, 23, 47, 59
    assert store.get((1, -2, -1, 1)).cl2_rank == 0
    assert store.get((1, 3, -3, -4, 1, 1)).cl2_rank == 0
    # every record of the shipped file, looked up by its key
    data = Path(stores.__file__).with_name("data") / "class_groups.txt"
    keys = [tuple(int(c) for c in line.split()[0][len("poly="):].split(","))
            for line in data.read_text().splitlines() if line.startswith("poly=")]
    assert len(keys) == 8
    for key in keys:
        rec = store.get(key)
        assert rec.poly == key and rec.source
        if rec.narrow_cl2_rank is not None:
            assert rec.narrow_cl2_rank >= rec.cl2_rank
