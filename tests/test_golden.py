"""Golden CLI transcripts: each command in `tests/golden/` prints exactly the
stdout and stderr, and returns exactly the exit code, recorded there. The
files are written by `tests/regen_golden.py`, which this test never runs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from regen_golden import GOLDEN, run

FILES = sorted(GOLDEN.glob("*.json"))


def test_golden_files_exist():
    assert len(FILES) == 22


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_cli_matches_golden_transcript(path: Path):
    want = json.loads(path.read_text())
    code, out, err = run(want["argv"])
    assert out == "".join(want["stdout"])
    assert err == "".join(want["stderr"])
    assert code == want["exit"]
