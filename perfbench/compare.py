"""Summarise and compare result records written by `run.py --record FILE`.

    python3 perfbench/compare.py new/*.json                 # one set
    python3 perfbench/compare.py new/*.json --base old/*.json

For every workload and end-to-end metric it prints the number of runs, the
median, the quartiles and their distance as a share of the median, next to
the metric's bound from BENCHMARK.json; a spread under a third of the bound
is marked steady. With --base it adds the base median and the change of the
median, marked REGRESSION when it is worse by more than the bound.

Records that differ in F2 backend or run length are refused (exit 2): the
reference numbers are for the pure backend, and runs of different lengths
are not the same measurement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths: List[str]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, from untraced records only."""
    out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record["env"]["trace"] or not record["result"]["correct"]:
            print(f"skipping {path}: traced or incorrect run", file=sys.stderr)
            continue
        for name, m in record["result"]["metrics"].items():
            out[(record["env"]["workload"], name)].append(m["value"])
    return out


def same_setting(paths: List[str]) -> str:
    """'' when every record shares backend and run length, else why not."""
    seen = set()
    for path in paths:
        env = json.loads(Path(path).read_text())["env"]
        seen.add((env["backend"], env["seconds"]))
    return "" if len(seen) <= 1 else f"records mix backend/seconds: {sorted(seen)}"


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("records", nargs="+")
    ap.add_argument("--base", nargs="+", default=[])
    args = ap.parse_args(argv)
    why = same_setting(args.records + args.base)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    new, base = load(args.records), load(args.base)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("workload metric n median q1 q3 spread bound steady"
          + (" base_median change verdict" if base else ""))
    for w in (w["name"] for w in spec["workloads"]):
        for name, bound in bounds.items():
            values = new.get((w, name))
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            row = (f"{w} {name} {len(values)} {med:.4f} {q1:.4f} {q3:.4f} "
                   f"{spread:.3f} {bound} {'yes' if spread < bound / 3 else 'no'}")
            if base.get((w, name)):
                bmed = statistics.median(base[(w, name)])
                change = (med - bmed) / bmed
                row += (f" {bmed:.4f} {change:+.3f} "
                        f"{'REGRESSION' if change > bound else 'ok'}")
            print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
