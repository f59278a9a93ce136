"""Write the golden CLI transcripts that `tests/test_golden.py` compares.

Each file in `tests/golden/` holds one command's argv, exit code, stdout and
stderr, the output streams as lists of lines so that a diff shows the line
that changed. `{data}` in an argv stands for the package's bundled data
directory. Regenerate only when a change of output is intended, and say so
in CHANGES.md:

    PYTHONPATH=src python tests/regen_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import jacrank
from jacrank.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(jacrank.__file__).resolve().parent / "data"

COMMANDS = {
    "washington-1-300": ["washington", "--m", "1..300"],
    "washington-1-12": ["washington", "--m", "1..12"],
    "sophie-table-lower-verbose": [
        "sophie", "--q", "7,11,23,47,59,83,167", "--lower", "--table",
        "--verbose"],
    "sophie-7-11-23": ["sophie", "--q", "7,11,23"],
    "sophie-1019": ["sophie", "--q", "1019"],
    "scan-rho-3000": ["scan-rho", "--max-q", "3000", "--threads", "2"],
    "scan-rho-92459": ["scan-rho", "--max-q", "92459", "--threads", "2"],
    "scan-rho-error-negative-max-q": ["scan-rho", "--max-q", "-5"],
    "lower-bound-readme-y0-1": [
        "lower-bound", "--poly", "1,-4,1,1", "--y0", "1", "--verbose"],
    "lower-bound-readme-y0-third": [
        "lower-bound", "--poly", "1,-4,1,1", "--y0", "1/3", "--verbose"],
    "lower-bound-quintic": ["lower-bound", "--poly", "1,3,-3,-4,1,1",
                            "--verbose"],
    "lower-bound-no-inert-3-mod-4-y0-1": [
        "lower-bound", "--poly", "4,-3,0,1", "--y0", "1"],
    "lower-bound-no-inert-3-mod-4-y0-2": [
        "lower-bound", "--poly", "4,-3,0,1", "--y0", "2"],
    "lower-bound-no-inert-3-mod-4-y0-3": [
        "lower-bound", "--poly", "4,-3,0,1", "--y0", "3"],
    # min_poly_2cos(19): a cyclotomic field of composite degree 9
    "lower-bound-cyclotomic-19": [
        "lower-bound", "--poly", "1,5,-10,-20,15,21,-7,-8,1,1", "--y0", "1",
        "--verbose"],
    "lower-bound-error-split-not-squarefree": [
        "lower-bound", "--poly", "1,0,-1,1"],
    "lower-bound-error-reducible": ["lower-bound", "--poly=-1,-1,1,1"],
    "lower-bound-error-even-degree": ["lower-bound", "--poly", "1,0,1"],
    "minpoly-11": ["minpoly", "--q", "11"],
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the
    # prime bases up to 37
    "minpoly-error-strong-pseudoprime": [
        "minpoly", "--q", "318665857834031151167461"],
    "stats-bundled": ["stats", "--ranks", "{data}/synthetic_ranks.txt"],
}


def run(argv):
    """(exit code, stdout, stderr) of one in-process `cli.main` run, with
    `{data}` replaced by the bundled data directory."""
    argv = [arg.replace("{data}", str(DATA)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def transcript(argv):
    code, out, err = run(argv)
    return {"argv": argv, "exit": code,
            "stdout": out.splitlines(keepends=True),
            "stderr": err.splitlines(keepends=True)}


def main_regen() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(transcript(argv), indent=1) + "\n")
        print(path.name)


if __name__ == "__main__":
    main_regen()
