"""Self-test of the benchmark at toy size: `scan` to q = 300, `washington`
with m <= 30, `lower` with q = 11.

Each correctness gate runs once with the right expectations, where it must
pass, and once per corrupted expected value, where it must fail. Both
modes of `run.measure` must emit exactly the metrics BENCHMARK.json names.

    python3 perfbench/selftest.py      # exit 0 when every check holds
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from typing import Callable, List

import run
import tracer
import workloads

SEED = 7


class Checks:
    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            self.failures.append(what)


def corrupted(expected: workloads.Expected,
              change: Callable[[workloads.Expected], None]) -> workloads.Expected:
    bad = copy.deepcopy(expected)
    change(bad)
    return bad


def bump_last_field(line: str) -> str:
    """`... upper=2 lower=2 hyps=x` -> `... upper=2 lower=3 hyps=x`, and
    `7 3 2 true` -> `7 3 3 true`: one expected number off by one."""
    parts = line.split(" ")
    for i in range(len(parts) - 1, -1, -1):
        key, eq, val = parts[i].rpartition("=")
        if val.isdigit():
            parts[i] = f"{key}{eq}{int(val) + 1}"
            return " ".join(parts)
    raise ValueError(f"no number in {line!r}")


def check_gates(checks: Checks, wl: workloads.Workload, workdir) -> None:
    done = run.run_child([sys.executable, "-m", "jacrank", *wl.argv], workdir)
    good = workloads.check_pass(wl.expected, done)
    checks.expect(good.failed == 0 and good.attempted > 0,
                  f"{wl.name}: gate passes on correct expectations "
                  f"({good.attempted} checks) {good.notes}")
    cases = {
        "first line": lambda e: e.stdout.__setitem__(0, bump_last_field(e.stdout[0])),
        "last line": lambda e: e.stdout.__setitem__(-1, bump_last_field(e.stdout[-1])),
        "exit code": lambda e: setattr(e, "exit_code", e.exit_code + 1),
        "one line dropped": lambda e: e.stdout.pop(),
    }
    if wl.expected.stderr is not None:
        cases["stderr"] = lambda e: setattr(e, "stderr", [
            (e.stderr[0] if e.stderr else "missing class-group data for m = 0")
            + ",99999"])
    for label, change in cases.items():
        bad = workloads.check_pass(corrupted(wl.expected, change), done)
        checks.expect(bad.failed >= 1, f"{wl.name}: gate fires on corrupted {label}")
    if wl.oracle_pairs:
        oracle = workloads.oracle_expected(wl.oracle_pairs)
        ok = workloads.check_oracle(oracle, done.stdout)
        checks.expect(ok.failed == 0 and ok.attempted == len(wl.oracle_pairs),
                      f"{wl.name}: matrix oracle agrees on {sorted(oracle)}")
        q0 = min(oracle)
        oracle[q0] = bump_last_field(oracle[q0])
        bad = workloads.check_oracle(oracle, done.stdout)
        checks.expect(bad.failed == 1, f"{wl.name}: oracle gate fires on corrupted q={q0}")


def check_metrics(checks: Checks, wl: workloads.Workload, workdir, spec) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, details = run.measure(wl, 0.1, trace, workdir)
        want = {m["name"]: m["unit"] for m in spec[key]}
        have = {k: v["unit"] for k, v in result["metrics"].items()}
        checks.expect(have == want, f"{wl.name}: trace={int(trace)} emits the "
                      f"{len(want)} {key} metrics with their units")
        checks.expect(result["correct"] and result["failed"] == 0,
                      f"{wl.name}: trace={int(trace)} run is correct {details['gate_notes']}")


def main() -> int:
    if not (run.SRC / "jacrank" / "cli.py").is_file():
        print(f"selftest: no jacrank sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    checks = Checks()
    checks.expect([m["name"] for m in spec["per_layer"]]
                  == [name for name, _ in tracer.metric_names()],
                  "BENCHMARK.json per_layer lists the tracer's metrics in order")
    checks.expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
                  "BENCHMARK.json lists the three workloads")
    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        toys = [workloads.scan(SEED, max_q=300),
                workloads.lower(qs=(11,)),
                workloads.washington(SEED, workdir, max_m=30)]
        for wl in toys:
            check_gates(checks, wl, workdir)
        (workdir / "complete").mkdir()
        complete = workloads.washington(SEED, workdir / "complete", max_m=30,
                                        leave_out=0)
        checks.expect(complete.expected.exit_code == 0
                      and complete.expected.stderr == [],
                      "washington: no m left out means exit 0 and empty stderr")
        check_gates(checks, complete, workdir)
        for wl in toys:
            check_metrics(checks, wl, workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    print(f"{len(checks.failures)} failed checks")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
