"""The three benchmark workloads: their CLI argv, their inputs and the
answers each pass is checked against.

Every expected answer is computed here, independently of the program: the
Sophie Germain pairs from a sieve of this file's own, the Table-4 lower
bounds from frozen values, and the simplest-cubic lines from the class-group
file this module generates. The program's own summary line is checked like
any other line, never taken as proof.

The `scan` and `lower` inputs are fixed (q <= 60000, and q = 11, 23, 47,
59 from the paper); only `washington` draws its input, the class-group
file, from the seed. The seed also picks the pairs of the `scan` oracle.
`scan` stops short of the paper's q <= 92459 (630 pairs), whose one pass
takes 20-30 s, so that a run holds several passes and its median is
steady; the sieve is still checked against the paper's 630.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SCAN_MAX_Q = 60000        # 445 pairs; about three passes in a 30 s run
PAPER_MAX_Q, PAPER_PAIRS = 92459, 630
LOWER_QS = (11, 23, 47, 59)
# Table 4 of the paper: (q, upper, lower); 2 is inert for all four q
TABLE4 = {11: (2, 2), 23: (5, 4), 47: (11, 6), 59: (14, 4)}
WASHINGTON_M = 300        # 186 distinct fields; about eight passes in a 30 s run
ORACLE_MAX_Q = 1100       # the matrix oracle is quadratic in p
ORACLE_SAMPLE = 5


@dataclass
class Expected:
    """What one CLI pass must print and return."""
    stdout: List[str]
    exit_code: int
    stderr: Optional[List[str]] = None   # None: stderr is not checked


@dataclass
class Workload:
    name: str
    argv: List[str]
    expected: Expected
    oracle_pairs: List[Tuple[int, int]] = field(default_factory=list)
    inputs: Dict[str, str] = field(default_factory=dict)


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)

    def merge(self, other: "GateResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[:max(0, 5 - len(self.notes))])


def _primes_upto(n: int) -> List[int]:
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\0\0"
    i = 2
    while i * i <= n:
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, n + 1, i)))
        i += 1
    return [k for k in range(n + 1) if flags[k]]


def sophie_germain_pairs(max_q: int) -> List[Tuple[int, int]]:
    """(p, q) with q = 2p + 1 <= max_q, both prime and p odd."""
    primes = _primes_upto(max_q)
    pset = set(primes)
    return [((q - 1) // 2, q) for q in primes
            if q >= 7 and (q - 1) // 2 in pset]


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def washington_family(max_m: int) -> List[int]:
    """The m in 1..max_m with D = m^2 + 3m + 9 squarefree."""
    return [m for m in range(1, max_m + 1) if _squarefree(m * m + 3 * m + 9)]


def scan(seed: int, max_q: int = SCAN_MAX_Q) -> Workload:
    found = len(sophie_germain_pairs(PAPER_MAX_Q))
    if found != PAPER_PAIRS:
        raise RuntimeError(f"independent sieve found {found} pairs with "
                           f"q <= {PAPER_MAX_Q}, the paper {PAPER_PAIRS}")
    pairs = sophie_germain_pairs(max_q)
    lines = [f"{q} {p} {p - 1} true" for p, q in pairs]
    lines.append(f"pairs={len(pairs)} certified={len(pairs)} failures=0")
    small = [pq for pq in pairs if pq[1] <= ORACLE_MAX_Q]
    sample = sorted(random.Random(seed).sample(small, min(ORACLE_SAMPLE, len(small))))
    return Workload("scan", ["scan-rho", "--max-q", str(max_q), "--threads", "2"],
                    Expected(lines, 0), oracle_pairs=sample)


def lower(qs: Sequence[int] = LOWER_QS) -> Workload:
    lines = []
    for q in qs:
        upper, low = TABLE4[q]
        g = (q - 3) // 4
        lines.append(f"curve=cyclo-q{q} g={g} rho_inf=0 cl2=0 upper={upper} "
                     f"lower={low} hyps=2-inert-in-real-cyclotomic")
    return Workload("lower", ["sophie", "--q", ",".join(map(str, qs)), "--lower"],
                    Expected(lines, 0))


def washington(seed: int, workdir: Path, max_m: int = WASHINGTON_M,
               leave_out: Optional[int] = None) -> Workload:
    """Writes a seeded `clgroup v1` file: one cl2 per m in 1..max_m except
    a few m of the family, whose absence the CLI must report."""
    rng = random.Random(seed)
    family = washington_family(max_m)
    if leave_out is None:
        leave_out = rng.randint(1, 4)
    missing = sorted(rng.sample(family, leave_out))
    cl2 = {m: rng.choices((0, 1, 2, 3), weights=(8, 4, 2, 1))[0]
           for m in range(1, max_m + 1)}
    rows = ["clgroup v1", f"# generated by perfbench, seed {seed}"]
    rows += [f"poly=1,{-(m + 3)},{m},1 cl2={cl2[m]} source=perfbench-seed-{seed}"
             for m in range(1, max_m + 1) if m not in missing]
    path = workdir / "clgroups.txt"
    path.write_text("\n".join(rows) + "\n")
    lines = [f"curve=cubic-m{m} g=1 rho_inf=0 cl2={cl2[m]} upper={1 + cl2[m]} "
             "hyps=none" for m in family if m not in missing]
    stderr = ["missing class-group data for m = "
              + ",".join(map(str, missing))] if missing else []
    return Workload("washington",
                    ["washington", "--m", f"1..{max_m}", "--clgroups", str(path)],
                    Expected(lines, 1 if missing else 0, stderr),
                    inputs={"missing": ",".join(map(str, missing))})


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "scan":
        return scan(seed)
    if name == "lower":
        return lower()
    if name == "washington":
        return washington(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("scan", "lower", "washington")


def check_pass(expected: Expected, done) -> GateResult:
    """One check per expected line, one for the exit code, and one for the
    stderr text when it is pinned; `done` is a finished CLI pass. Missing
    and extra lines each fail."""
    gate = GateResult()
    got = done.stdout.decode(errors="replace").splitlines()
    for i, want in enumerate(expected.stdout):
        have = got[i] if i < len(got) else None
        gate.add(have == want, f"line {i + 1}: want {want!r}, got {have!r}")
    for extra in got[len(expected.stdout):]:
        gate.add(False, f"unexpected line {extra!r}")
    gate.add(done.exit_code == expected.exit_code,
             f"exit code {done.exit_code}, want {expected.exit_code}")
    if expected.stderr is not None:
        have_err = done.stderr.decode(errors="replace").splitlines()
        gate.add(have_err == expected.stderr,
                 f"stderr {have_err!r}, want {expected.stderr!r}")
    return gate


def oracle_expected(pairs: Sequence[Tuple[int, int]]) -> Dict[int, str]:
    """The scan line of each pair by the matrix route of certify_rho_infty,
    the oracle for the gcd route the CLI runs. Computed outside timing."""
    if not pairs:
        return {}
    from jacrank.cyclosig import SophieGermainPair, certify_rho_infty
    out = {}
    for p, q in pairs:
        cert = certify_rho_infty(SophieGermainPair(p, q), method="matrix")
        out[q] = f"{q} {p} {cert.d_infty} {'true' if cert.rho_infty_zero else 'false'}"
    return out


def check_oracle(expected: Dict[int, str], stdout: bytes) -> GateResult:
    """Each oracle line must appear in the CLI's stdout."""
    printed = {}
    for line in stdout.decode(errors="replace").splitlines():
        head = line.split(" ", 1)[0]
        if head.isdigit():
            printed[int(head)] = line
    gate = GateResult()
    for q, want in expected.items():
        gate.add(printed.get(q) == want,
                 f"matrix oracle at q={q}: {want!r}, CLI printed {printed.get(q)!r}")
    return gate
