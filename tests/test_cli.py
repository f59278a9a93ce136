"""Command-line interface: output lines, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from jacrank import cyclosig, numberfield, polys
from jacrank.cli import main
from test_cyclosig import deadline
from test_structure import modules_run

SYNTH_PATH = str(resources.files("jacrank").joinpath("data/synthetic_ranks.txt"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_washington_range(capsys):
    code, out, err = run(capsys, "washington", "--m", "1..12")
    # square-free D in 1..12: m = 1, 2, 4, 7, 8, 10, 11; records exist for 1, 11
    assert out.splitlines() == [
        "curve=cubic-m1 g=1 rho_inf=0 cl2=0 upper=1 hyps=none",
        "curve=cubic-m11 g=1 rho_inf=0 cl2=2 upper=3 hyps=none",
    ]
    assert code == 1
    assert "m = 2,4,7,8,10" in err


def test_washington_single(capsys):
    code, out, _ = run(capsys, "washington", "--m", "143..143")
    assert code == 0
    assert out.strip() == "curve=cubic-m143 g=1 rho_inf=0 cl2=4 upper=5 hyps=none"


def test_washington_non_family_is_silent(capsys):
    code, out, _ = run(capsys, "washington", "--m", "0..0")
    assert code == 0 and out == ""


def test_washington_bad_range(capsys):
    code, _, err = run(capsys, "washington", "--m", "5..3")
    assert code == 2 and "error" in err


def test_sophie_single(capsys):
    code, out, _ = run(capsys, "sophie", "--q", "11")
    assert code == 0
    assert out.strip() == ("curve=cyclo-q11 g=2 rho_inf=0 cl2=0 upper=2 "
                           "hyps=2-inert-in-real-cyclotomic")


def test_sophie_missing_class_group_is_one_short_line(capsys):
    """The message names the curve, not its O(p^2)-bit polynomial."""
    code, out, err = run(capsys, "sophie", "--q", "1019")
    assert (code, out) == (1, "")
    assert err == "q=1019: class group unknown for cyclo-q1019 (degree 509)\n"
    assert len(err.encode()) < 200


def test_sophie_lower_and_table(capsys):
    code, out, _ = run(capsys, "sophie", "--q", "11", "--lower", "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("curve=cyclo-q11 g=2 rho_inf=0 cl2=0 upper=2 lower=2 "
                        "hyps=2-inert-in-real-cyclotomic")
    assert lines[1] == "p q upper lower"
    assert lines[2] == "5 11 2 2"


def test_sophie_lower_builds_each_curve_polynomial_once(capsys, monkeypatch):
    """The store key and the lower bound of a q share one curve polynomial,
    and the number field recognises it from its integer coefficients."""
    from jacrank import bounds

    built = []
    real = polys.min_poly_2cos

    def counted(q, negate):
        built.append(q)
        return real(q, negate)

    monkeypatch.setattr(polys, "min_poly_2cos", counted)
    bounds.curve_min_poly.cache_clear()
    code, out, _ = run(capsys, "sophie", "--q", "11,23,47,59", "--lower")
    assert code == 0 and len(out.splitlines()) == 4
    assert built == [11, 23, 47, 59]


def test_sophie_rejects_invalid_modulus(capsys):
    code, out, err = run(capsys, "sophie", "--q", "15")
    assert code == 2 and out == "" and "Sophie Germain" in err
    code, out, err = run(capsys, "sophie", "--q", "11,15")
    assert code == 1 and len(out.splitlines()) == 1


def test_scan_rho_small(capsys):
    code, out, _ = run(capsys, "scan-rho", "--max-q", "100")
    assert code == 0
    assert out.splitlines() == [
        "7 3 2 true",
        "11 5 4 true",
        "23 11 10 true",
        "47 23 22 true",
        "59 29 28 true",
        "83 41 40 true",
        "pairs=6 certified=6 failures=0",
    ]


def test_scan_rho_empty(capsys):
    code, out, _ = run(capsys, "scan-rho", "--max-q", "6")
    assert code == 0
    assert out.strip() == "pairs=0 certified=0 failures=0"


def test_scan_rho_thread_count_does_not_change_bytes(capsys):
    _, out1, _ = run(capsys, "scan-rho", "--max-q", "300", "--threads", "1")
    _, out4, _ = run(capsys, "scan-rho", "--max-q", "300", "--threads", "4")
    assert out1 == out4


def test_scan_rho_threads_clamped_to_cpus(capsys, monkeypatch):
    monkeypatch.setattr(cyclosig, "_available_cpus", lambda: [0, 1, 2, 3])
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    _, serial, _ = run(capsys, "scan-rho", "--max-q", "300", "--threads", "1")
    assert forks == []
    with deadline(60):
        code, out, _ = run(capsys, "scan-rho", "--max-q", "300",
                           "--threads", "1000000")
    assert code == 0 and out == serial
    assert len(forks) == 4  # four workers, each a forked child


def test_scan_rho_negative_threads_is_invalid(capsys):
    for max_q in ("300", "6"):
        code, out, err = run(capsys, "scan-rho", "--max-q", max_q,
                             "--threads", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "-1" in err


def test_scan_rho_negative_max_q_is_invalid(capsys):
    code, out, err = run(capsys, "scan-rho", "--max-q", "-5")
    assert code == 2 and out == ""
    assert err == "error: max-q must be non-negative, got -5\n"
    for max_q in ("0", "6"):
        code, out, _ = run(capsys, "scan-rho", "--max-q", max_q)
        assert code == 0 and out == "pairs=0 certified=0 failures=0\n"


def test_sophie_lower_wrong_lucas_root_is_a_certification_failure(
        capsys, monkeypatch):
    monkeypatch.setattr(polys, "_lucas_v", lambda n, P, ell: 0)
    code, out, err = run(capsys, "sophie", "--q", "11", "--lower")
    assert code == 3 and "curve=" not in out
    assert err.startswith("certification failure:") and "not a root" in err


def test_scan_rho_too_large_for_memory_is_invalid():
    # under a 1 GiB address-space cap the sieve's bytearray is refused at
    # once, so the test never allocates it
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
             "from jacrank.cli import main\n"
             "sys.exit(main(['scan-rho', '--max-q', '1000000000000000']))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: --max-q 1000000000000000: not enough "
                           "memory to sieve the primes up to it\n")


def test_lower_bound_command(capsys):
    code, out, _ = run(capsys, "lower-bound", "--poly", "1,-2,-1,1")
    assert code == 0
    assert out.strip() == "poly=1,-2,-1,1 y0=1 factors=3 lower=1"


def test_lower_bound_verbose_lists_classes(capsys):
    code, out, _ = run(capsys, "lower-bound", "--poly", "1,3,-3,-4,1,1",
                       "--verbose")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "poly=1,3,-3,-4,1,1 y0=1 factors=3 lower=2"
    assert lines[1] == "class=0,-1,0,0,0"
    assert lines[2] == "class=-3,0,1,0,0"
    assert lines[3] == "class=-1,1,1,0,0"


def test_lower_bound_beyond_sixteen_factors(capsys):
    # f = (x - 1)(x - 2)...(x - 17) + 1: f - 1 has 17 linear factors, whose
    # classes multiply to (-1)^17 (f - 1)(theta) = 1, so the rank is 16
    f = [1]
    for r in range(1, 18):
        f = [a - r * b for a, b in zip([0] + f, f + [0])]
    f[0] += 1
    poly = ",".join(map(str, f))
    code, out, err = run(capsys, "lower-bound", f"--poly={poly}", "--y0", "1")
    assert (code, err) == (0, "")
    assert out == f"poly={poly} y0=1 factors=17 lower=16\n"


def test_lower_bound_needs_no_witness(capsys, monkeypatch):
    # f - 1 = x (x^2 + x - 4): the classes -theta and theta^2 + theta - 4
    # multiply to 1, a square that no witness can prove under the patch;
    # the bound rests on the characters alone
    monkeypatch.setattr(numberfield, "_rational_coords", lambda *args: None)
    code, out, err = run(capsys, "lower-bound", "--poly", "1,-4,1,1",
                         "--y0", "1")
    assert (code, out, err) \
        == (0, "poly=1,-4,1,1 y0=1 factors=2 lower=1\n", "")


@pytest.mark.parametrize("y0", ["1", "2"])
def test_lower_bound_on_a_field_with_no_inert_prime(capsys, y0):
    # Q(2cos(2 pi/7) + 2cos(2 pi/9)) has group C3 x C3, with no 9-cycle, so
    # no prime is inert and no witness prime exists; f - y0^2 is irreducible
    # and its class (-1)^9 (f(theta) - y0^2) = y0^2 is a square
    poly = "-1,-15,-51,-15,81,33,-32,-12,3,1"
    code, out, err = run(capsys, "lower-bound", f"--poly={poly}", "--y0", y0)
    assert (code, out, err) == (
        0, f"poly={poly} y0={y0} factors=1 lower=0\n", "")


@pytest.mark.parametrize("y0,line", [
    ("1", "poly=4,-3,0,1 y0=1 factors=1 lower=0"),
    ("2", "poly=4,-3,0,1 y0=2 factors=2 lower=1"),
    ("3", "poly=4,-3,0,1 y0=3 factors=1 lower=0"),
])
def test_lower_bound_with_every_inert_prime_1_mod_4(capsys, y0, line):
    # x^3 - 3x + 4 has disc -18^2, so every inert prime splits in Q(i) and
    # is 1 mod 4: the witness roots by Tonelli-Shanks at ell = 5
    code, out, err = run(capsys, "lower-bound", "--poly", "4,-3,0,1",
                         "--y0", y0)
    assert (code, out, err) == (0, line + "\n", "")


def test_lower_bound_invalid_inputs(capsys):
    code, _, err = run(capsys, "lower-bound", "--poly", "1,-2,-1,1",
                       "--y0", "0")
    assert code == 2 and "y0" in err
    # x^3 - x^2 + 1 is irreducible, and f - 1 = x^2 (x - 1)
    code, _, err = run(capsys, "lower-bound", "--poly", "1,0,-1,1")
    assert code == 2 and "square-free" in err


def test_lower_bound_zero_denominator_is_invalid_input():
    proc = subprocess.run(
        [sys.executable, "-m", "jacrank", "lower-bound", "--poly", "1,-4,1,1",
         "--y0", "1/0"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "y0" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("poly", ["2,0,1", "4,0,1"])
def test_lower_bound_even_degree_is_invalid_input(poly):
    # y^2 = x^2 + 2 has genus 0, so there is no rank to bound; in
    # Q[x]/(x^2 + 4) = Q(i), -1 is a square that the odd-degree square-root
    # witness cannot produce
    proc = subprocess.run(
        [sys.executable, "-m", "jacrank", "lower-bound", f"--poly={poly}"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "lower=" not in proc.stdout
    assert proc.stderr.startswith("error:") and "odd degree" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_lower_bound_even_degree_is_reported_before_the_split():
    # f - 1 = x^2 is not square-free either, but the fault is the degree
    proc = subprocess.run(
        [sys.executable, "-m", "jacrank", "lower-bound", "--poly=1,0,1"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: f must have odd degree for a square-class "
                           "lower bound, got degree 2\n")


def test_stats_command(capsys):
    code, out, _ = run(capsys, "stats", "--ranks", SYNTH_PATH,
                       "--intervals", "1..10,11..20")
    assert code == 0
    blocks = out.split("\n\n")
    assert blocks[0].splitlines() == [
        "interval sharp",
        "[1,10] 0.62500",
        "[11,20] 0.25000",
    ]
    assert "b=1 t1=3 t3=0 t5=0 t7=0 ratio=1.0000" in blocks[1]
    assert "first r=1 b=1 m=1" in blocks[2]


def test_stats_default_intervals(capsys):
    code, out, _ = run(capsys, "stats", "--ranks", SYNTH_PATH)
    assert code == 0
    assert "[1,1000] " in out


def test_stats_empty_intervals_is_invalid_input(capsys):
    """An empty --intervals is a malformed range, not the default chunks."""
    code, out, err = run(capsys, "stats", "--ranks", SYNTH_PATH, "--intervals", "")
    assert code == 2
    assert out == ""
    assert err == "error: range must look like A..B, got ''\n"


def test_stats_missing_file(capsys):
    code, _, err = run(capsys, "stats", "--ranks", "/nonexistent/ranks.txt")
    assert code == 2


@pytest.mark.parametrize("argv", [["washington", "--m", "1..3", "--clgroups"],
                                  ["stats", "--ranks"]],
                         ids=["washington", "stats"])
def test_directory_as_data_file_is_invalid_input(argv, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "jacrank", *argv, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_closed_stdout_is_partial_output_not_invalid_input(tmp_path):
    """A reader that leaves after one line, as `| head -1` does: the 2000
    lines, some 100 kB, overflow the pipe, so a later write meets the
    closed pipe. The run ends quietly with exit 1."""
    clgroups = tmp_path / "clgroups.txt"
    clgroups.write_text("clgroup v1\n" + "".join(
        f"poly=1,{-(m + 3)},{m},1 cl2=0 source=test\n" for m in range(1, 2001)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "jacrank", "washington", "--m", "1..2000",
         "--clgroups", str(clgroups)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.startswith(b"curve=cubic-m1 ")
    assert err == b""


def test_error_paths_load_no_number_field(tmp_path):
    """A store format error is a ValueError and a failed certificate a
    RuntimeError: each is reported on one stderr line without loading the
    number-field layers to name its type."""
    bad = tmp_path / "bad.txt"
    bad.write_text("clgroup v1\npoly=1,-4,1,1 cl2=x source=test\n")
    failing = ("import jacrank.bounds\n"
               "def fail(m):\n"
               "    raise RuntimeError('signatures do not span')\n"
               "jacrank.bounds.washington_rho_certificate = fail\n")
    for setup, argv, code, prefix in (
            ("", ["--clgroups", str(bad)], 2, f"error: {bad}:2:"),
            (failing, [], 3, "certification failure: signatures")):
        got, out, err, ran, _ = modules_run(
            ["washington", "--m", "1..30", *argv], setup)
        assert (got, out) == (code, [])
        assert len(err) == 1 and err[0].startswith(prefix), err
        assert "numberfield" not in ran


def test_minpoly_frozen(capsys):
    for q, expected in (
        (7, "x^3 - x^2 - 2x + 1"),
        (11, "x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1"),
        (23, "x^11 - x^10 - 10x^9 + 9x^8 + 36x^7 - 28x^6 - 56x^5 + 35x^4 "
             "+ 35x^3 - 15x^2 - 6x + 1"),
    ):
        code, out, _ = run(capsys, "minpoly", "--q", str(q))
        assert code == 0
        assert out.strip() == expected


def test_minpoly_plain_flag(capsys):
    code, out, _ = run(capsys, "minpoly", "--q", "7", "--plain")
    assert code == 0
    assert out.strip() == "x^3 + x^2 - 2x - 1"


def test_minpoly_invalid_q(capsys):
    code, _, err = run(capsys, "minpoly", "--q", "8")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jacrank", "minpoly", "--q", "7"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x^3 - x^2 - 2x + 1"


def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "sophie", "--q", "7,11,23", "--table")
    _, second, _ = run(capsys, "sophie", "--q", "7,11,23", "--table")
    assert first == second


def test_sophie_invalid_moduli_print_error_lines(capsys):
    code, out, err = run(capsys, "sophie", "--q", "13,15")
    assert (code, out) == (2, "")
    assert [line.split(":")[0] for line in err.splitlines()] == ["error"] * 2
    # beside a valid modulus the invalid one is still an error, exit 1
    code, out, err = run(capsys, "sophie", "--q", "13,11")
    assert code == 1 and out.startswith("curve=cyclo-q11 ")
    assert err.startswith("error: q=13: ")


# -- fuzz: every argv drawn from small alphabets returns an exit code --------

# each alphabet is (values that run a route to its end, malformed values)
FUZZ_RANGES = (["1..3", "140..145", "0..0", "1..3,5..7"],
               ["3..1", "a..b", "-2..2", "1..", "7", "", "1..5,3..7"])
FUZZ_QS = (["11", "7", "23"], ["13", "15", "-7", "1", "", "x", "9"])
FUZZ_POLYS = (["1,-4,1,1", "-2,0,0,1", "1,3,-3,-4,1,1", "4,-3,0,1"], [])
FUZZ_Y0S = (["1", "-1", "2/3"], ["1/0", "x"])
FUZZ_CLGROUP_LINES = ([
    "poly=1,-4,1,1 cl2=0 source=test",
    "poly=1,-14,11,1 cl2=2 narrow_cl2=2 source=test",
    "poly=1,3,-3,-4,1,1 cl2=0 source=test",  # the curve of q = 11
    "# comment",
    "",
], [
    "poly=1,-4,1,1 cl2=1 source=a conflicting duplicate",
    "poly=1,-4,1,2 cl2=0 source=not monic",
    "poly=1,-4,1,1,0 cl2=0 source=trailing zero",
    "poly=1 cl2=0 source=constant",
    "poly=1,x cl2=0 source=bad key",
    "poly=1,-4,1,1 cl2=-1 source=negative",
    "poly=1,-4,1,1 cl2=2 narrow_cl2=1 source=narrow below",
    "poly=1,-4,1,1 cl2=0",
    "cl2=0 source=no key",
    "junk",
])
FUZZ_RANK_LINES = ([
    "m=1 status=exact lo=1 hi=1",
    "m=5 status=bounds lo=0 hi=3",
    "m=1001 status=exact lo=2 hi=3",
    "",
], [
    "m=1 status=exact lo=0 hi=0",
    "m=0 status=exact lo=0 hi=0",
    "m=5 status=maybe lo=0 hi=1",
    "m=7 status=exact lo=3 hi=1",
    "m=x status=exact lo=0 hi=0",
    "m=9 status=exact lo=0 hi=0 extra=1",
])


def _pick(alphabet):
    """A value of a (good, bad) alphabet, good at least half the time."""
    good, bad = alphabet
    return st.sampled_from(good) | st.sampled_from(good + bad)


def _fuzz_file(data, path, header, lines) -> str:
    """`path`, written with a drawn header and drawn lines, or removed."""
    if data.draw(st.integers(0, 3)):
        body = [data.draw(_pick(([header], [header[:-1] + "0"])))]
        body += data.draw(st.lists(_pick(lines), max_size=4))
        path.write_text("\n".join(body) + "\n")
    elif path.exists():
        path.unlink()
    return str(path)


def _fuzz_argv(data, tmp_path) -> list:
    """One argv for a drawn subcommand, its options from small alphabets
    (values as --opt=value, so that negative ones reach the command), with a
    stray token now and then."""
    def draw(alphabet):
        return data.draw(_pick(alphabet))

    def flags(*names):
        return [n for n in names if data.draw(st.booleans())]

    def clgroups():
        if not data.draw(st.booleans()):
            return []
        return ["--clgroups=" + _fuzz_file(
            data, tmp_path / "clg.txt", "clgroup v1", FUZZ_CLGROUP_LINES)]

    command = data.draw(st.sampled_from(["sophie", "lower-bound", "washington",
                                         "scan-rho", "stats", "minpoly"]))
    if command == "washington":
        argv = ["--m=" + draw(FUZZ_RANGES), *clgroups(), *flags("--verbose")]
    elif command == "sophie":
        qs = data.draw(st.lists(_pick(FUZZ_QS), min_size=1, max_size=3))
        argv = ["--q=" + ",".join(qs), *clgroups(),
                *flags("--lower", "--table", "--verbose",
                       "--assume-davis-taussky")]
    elif command == "scan-rho":
        argv = [f"--max-q={data.draw(st.integers(-5, 3000))}",
                "--threads=" + draw((["1"], ["-1", "x"]))]
    elif command == "lower-bound":
        if data.draw(st.booleans()):
            poly = draw(FUZZ_POLYS)
        else:
            coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=1,
                                        max_size=8))
            poly = ",".join(map(str, coeffs[:-1] + [1] if data.draw(
                st.booleans()) else coeffs))
        argv = ["--poly=" + poly, "--y0=" + draw(FUZZ_Y0S), *flags("--verbose")]
    elif command == "stats":
        argv = ["--ranks=" + _fuzz_file(data, tmp_path / "ranks.txt",
                                        "ranks v1", FUZZ_RANK_LINES)]
        if data.draw(st.booleans()):
            argv.append("--intervals=" + draw(FUZZ_RANGES))
    else:
        argv = ["--q=" + draw(FUZZ_QS), *flags("--plain")]
    if data.draw(st.integers(0, 9)) == 0:
        stray = data.draw(st.sampled_from(["--bogus", "x", "--q", "--m", "1,"]))
        argv.insert(data.draw(st.integers(0, len(argv))), stray)
    return [command, *argv]


def _has_error_line(err: str) -> bool:
    """Our `error: ...` line, or argparse's `jacrank ...: error: ...`."""
    return any(line.startswith("error: ")
               or (line.startswith("jacrank") and ": error: " in line)
               for line in err.splitlines())


def test_cli_fuzz_returns_a_documented_exit_code(tmp_path):
    """`cli.main` returns, never raises, an exit code of 0 to 3, and an exit
    code 2 comes with an error line on stderr."""
    @settings(max_examples=250, derandomize=True, deadline=None,
              database=None)
    @given(st.data())
    def check(data):
        argv = _fuzz_argv(data, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert code != 2 or _has_error_line(err.getvalue()), \
            (argv, err.getvalue())

    check()
