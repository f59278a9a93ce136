"""Benchmark of the jacrank CLI, run end to end as a user runs it.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads (closed loop: one client, one CLI process per pass, the next pass
starting when the previous one has exited):

  scan        jacrank scan-rho --max-q 60000 --threads 2
  lower       jacrank sophie --q 11,23,47,59 --lower
  washington  jacrank washington --m 1..300 --clgroups <seeded file>

With `--trace 0` the benchmark runs passes until `--seconds` have elapsed
(at least one) and reports the medians over passes of `wall_s`, `cpu_s` and
`peak_rss_mb`, plus `setup_s`, the median over fresh interpreters, three
before and three after each pass, of the time until `jacrank.cli` is
imported and the builtin class-group store loaded.

A shared host drifts in speed by tens of percent over minutes, so the times
are reported at a fixed reference speed: a thread of the benchmark times,
in its own CPU time, a short fixed burst of pure-Python work four times a
second throughout the run, and every time is scaled by REF_BURST_S over the
median burst of the run. This removes the drift both cores see; what one
core alone sees remains, and is why a run takes the median of its passes.
CPU time, not wall time, keeps the bursts from counting the time they wait
while the child uses both cores. The raw medians and the burst median are
printed on the `raw` line before the result.

With `--trace 1` it runs one untraced pass and one pass under
`perfbench/tracer.py`, checks that both print the same bytes and exit code,
and reports the per-layer metrics of the traced pass.

Every pass is checked against answers computed in `workloads.py`; the last
line of stdout is the JSON result. `--record FILE` also writes the result
with its environment (nproc, Python, git revision, seed, F2 backend) for
`perfbench/compare.py`. `python3 perfbench/selftest.py` checks the gates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

PROBES_PER_GAP = 3
PASS_TIMEOUT_S = 150
BURST_EVERY_S = 0.25
REF_BURST_S = 0.01        # the burst's median CPU time on a 2-core host, roughly
PROBE = ("import time, jacrank.cli, jacrank.f2, jacrank.stores\n"
         "jacrank.stores.builtin_class_groups()\n"
         "t = time.perf_counter()\n"
         "print(repr(t), jacrank.f2.backend_name())\n")


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


CHASE = list(range(1 << 19))
random.Random(0).shuffle(CHASE)


def burst() -> None:
    """A fixed few milliseconds of the kind of work jacrank does: small-int
    arithmetic, Fractions and dict updates, then a walk through a shuffled
    list too large for the caches, which feels what other tenants do to
    them."""
    s = 0
    for i in range(1, 12000):
        s = (s * 31 + i * i) % 1000003
    f = Fraction(0)
    for i in range(1, 300):
        f += Fraction(1, i)
    d: Dict[int, int] = {}
    for i in range(6000):
        d[i & 255] = d.get(i & 255, 0) + i
    k = 0
    for _ in range(15000):
        k = CHASE[k]


class SpeedSampler:
    """Times `burst` in thread CPU time every BURST_EVERY_S, to follow the
    host's speed while the child runs."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            t = time.thread_time()
            burst()
            self.samples.append(time.thread_time() - t)
            if self._stop.wait(BURST_EVERY_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def burst_s(self) -> float:
        return statistics.median(self.samples)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(cmd: List[str], workdir: Path) -> Pass:
    """One child process, timed from start to exit by `spawn.py`, which
    reads its rusage from wait4: exactly what the child adds to
    getrusage(RUSAGE_CHILDREN). Both run in a session of their own, killed
    whole if anything goes wrong here."""
    out_path, err_path = workdir / "pass.out", workdir / "pass.err"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "spawn.py"), str(PASS_TIMEOUT_S),
         str(out_path), str(err_path), *cmd],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        report, _ = proc.communicate(timeout=PASS_TIMEOUT_S + 30)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py failed with exit code {proc.returncode}")
    done = json.loads(report)
    return Pass(done["wall_s"], done["cpu_s"], done["rss_mb"], done["exit_code"],
                out_path.read_bytes(), err_path.read_bytes())


def probe_setup() -> Tuple[float, str]:
    """Seconds from spawning a fresh interpreter until `jacrank.cli` is
    imported and the builtin store loaded (perf_counter is the system-wide
    monotonic clock), and the F2 backend the child selected."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", PROBE], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S, check=True)
    t_child, backend = done.stdout.split()
    return float(t_child) - t0, backend


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except FileNotFoundError:
        return "none"
    return done.stdout.strip() or "none"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "jacrank").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def measure(wl: workloads.Workload, seconds: float, trace: bool,
            workdir: Path) -> Tuple[dict, dict]:
    """(result, details): the result line and what else is recorded."""
    cli = [sys.executable, "-m", "jacrank", *wl.argv]
    gate = workloads.GateResult()
    oracle = workloads.oracle_expected(wl.oracle_pairs)
    details: dict = {}
    if not trace:
        with SpeedSampler() as sampler:
            probe_setup()  # warm: bytecode cache and page cache
            # set-up probes sit before, between and after the passes, so
            # that their median spans the run rather than one moment of it
            probes = [probe_setup() for _ in range(PROBES_PER_GAP)]
            passes: List[Pass] = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                passes.append(run_child(cli, workdir))
                gate.merge(workloads.check_pass(wl.expected, passes[-1]))
                probes += [probe_setup() for _ in range(PROBES_PER_GAP)]
        details["backend"] = probes[0][1]
        gate.merge(workloads.check_oracle(oracle, passes[0].stdout))
        raw = {"wall_s": statistics.median(p.wall_s for p in passes),
               "cpu_s": statistics.median(p.cpu_s for p in passes),
               "setup_s": statistics.median(s for s, _ in probes)}
        scale = REF_BURST_S / sampler.burst_s()
        metrics = {name: metric(value * scale, "s") for name, value in raw.items()}
        metrics["peak_rss_mb"] = metric(
            statistics.median(p.rss_mb for p in passes), "MB")
        details["raw"] = dict(raw, burst_s=sampler.burst_s(),
                              bursts=len(sampler.samples))
        details["passes"] = [[p.wall_s, p.cpu_s, p.rss_mb, p.exit_code]
                             for p in passes]
    else:
        details["backend"] = probe_setup()[1]
        plain = run_child(cli, workdir)
        spans_path = workdir / "spans.jsonl"
        traced = run_child([sys.executable, str(HERE / "tracer.py"),
                            str(spans_path), *wl.argv], workdir)
        for p in (plain, traced):
            gate.merge(workloads.check_pass(wl.expected, p))
        gate.merge(workloads.check_oracle(oracle, plain.stdout))
        gate.add(traced.stdout == plain.stdout and traced.exit_code == plain.exit_code,
                 "traced stdout or exit code differs from the untraced pass")
        spans = tracer.read_spans(str(spans_path)) if spans_path.exists() else []
        values = tracer.layer_metrics(spans, traced.wall_s - plain.wall_s)
        metrics = {name: metric(values[name], unit)
                   for name, unit in tracer.metric_names()}
        details["top_self_s"] = tracer.top_self(values)
        details["passes"] = [[p.wall_s, p.cpu_s, p.rss_mb, p.exit_code]
                             for p in (plain, traced)]
    details["gate_notes"] = gate.notes
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    return result, details


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="also write the result and its environment as JSON")
    args = ap.parse_args(argv)
    if not (SRC / "jacrank" / "cli.py").is_file():
        print(f"perfbench: no jacrank sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        result, details = measure(wl, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "argv": ["jacrank", *wl.argv], "inputs": wl.inputs,
           "backend": details.pop("backend"), "nproc": os.cpu_count(),
           "python": platform.python_version(), "git_rev": git_revision(),
           "src_sha256": source_digest()}
    print("env " + json.dumps(env))
    print("passes [wall_s, cpu_s, peak_rss_mb, exit] "
          + json.dumps(details["passes"]))
    if "raw" in details:
        print("raw " + json.dumps(details["raw"]))
    frac = result["failed"] / result["attempted"]
    print(f"gate attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={frac}")
    for note in details["gate_notes"]:
        print("gate failure: " + note)
    for name, secs in details.get("top_self_s", []):
        print(f"top self_s {name} {secs:.3f}")
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"env": env, "details": details, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
