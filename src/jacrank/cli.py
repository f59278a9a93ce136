"""Command-line interface; the only module with I/O side effects.

Output is machine-readable, one line per curve, and byte-identical across
runs. Exit codes: 0 success, 1 partial (missing data, or stdout closed by its
reader), 2 invalid input, 3 certification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

# used qualified: a lazy module's body runs only when a route reaches it
from . import bounds, cyclosig, polys, stats, stores

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_INVALID = 2
EXIT_CERT_FAILURE = 3


def _parse_range(text: str) -> Tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like A..B, got {text!r}")
    a, b = int(lo), int(hi)
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return a, b


def _parse_intervals(text: str) -> List[Tuple[int, int]]:
    return [_parse_range(part) for part in text.split(",")]


def _load_store(path: Optional[str]):
    if path is None:
        return stores.builtin_class_groups()
    return stores.ingest_class_groups(path)


def _cmd_washington(args: argparse.Namespace) -> int:
    a, b = _parse_range(args.m)
    if a < 0:
        raise ValueError("m must be non-negative")
    store = _load_store(args.clgroups)
    missing: List[int] = []
    for m in range(a, b + 1):
        if bounds.washington_bad_primes(m) is None:  # D not square-free
            continue
        try:
            report = bounds.washington_bound(m, store)
        except LookupError:
            missing.append(m)
            continue
        print(report.describe() if args.verbose else report.line())
    if missing:
        print("missing class-group data for m =",
              ",".join(str(m) for m in missing), file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_sophie(args: argparse.Namespace) -> int:
    qs = [int(part) for part in args.q.split(",")]
    store = _load_store(args.clgroups)
    invalid = partial = False
    rows: List[Tuple[int, int, int, Optional[int]]] = []
    for q in qs:
        try:
            report = bounds.sophie_upper_bound(
                q, store, assume_davis_taussky=args.assume_davis_taussky,
                scan_bound=args.scan_bound)
        except ValueError as exc:
            print(f"error: q={q}: {exc}", file=sys.stderr)
            invalid = True
            continue
        except LookupError as exc:
            print(f"q={q}: {exc}", file=sys.stderr)
            partial = True
            continue
        if args.lower:
            lower, _ = bounds.lower_bound_from_points(
                bounds.curve_min_poly(q),
                factors=polys.min_poly_2cos_split(q))
            report = report._replace(lower_bound=lower)
        rows.append(((q - 1) // 2, q, report.upper_bound, report.lower_bound))
        print(report.describe() if args.verbose else report.line())
    if args.table and rows:
        print("p q upper lower")
        for p, q, upper, lower in rows:
            print(f"{p} {q} {upper} {'-' if lower is None else lower}")
    if invalid and not rows:
        return EXIT_INVALID
    if invalid or partial:
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_scan_rho(args: argparse.Namespace) -> int:
    try:
        certs = cyclosig.scan_sophie_germain(args.max_q, workers=args.threads)
    except MemoryError:  # the prime sieve up to max_q is the first to fail
        raise ValueError(f"--max-q {args.max_q}: not enough memory to sieve "
                         "the primes up to it") from None
    failures = 0
    for cert in certs:
        ok = cert.rho_infty_zero
        failures += 0 if ok else 1
        print(f"{cert.pair.q} {cert.pair.p} {cert.d_infty} "
              f"{'true' if ok else 'false'}")
    print(f"pairs={len(certs)} certified={len(certs) - failures} "
          f"failures={failures}")
    return EXIT_CERT_FAILURE if failures else EXIT_OK


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    coeffs = [int(part) for part in args.poly.split(",")]
    try:
        y0 = int(args.y0)  # an integer y0 builds no Fraction
    except ValueError:
        try:
            y0 = polys.rational(args.y0)
        except ZeroDivisionError:
            raise ValueError(f"--y0 {args.y0}: zero denominator") from None
    lower, classes = bounds.lower_bound_from_points(
        polys.RationalPoly(coeffs), y0)
    print(f"poly={args.poly} y0={y0} "
          f"factors={len(classes.representatives)} lower={lower}")
    if args.verbose:
        for cls in classes.representatives:
            print("class=" + ",".join(str(c) for c in cls.coords))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    store = stores.ingest_rank_data(args.ranks)
    if args.intervals is not None:
        intervals = _parse_intervals(args.intervals)
    else:
        top = max((rec.m for rec in store.records()), default=0)
        intervals = [(k * 1000 + 1, (k + 1) * 1000)
                     for k in range((top + 999) // 1000)]
    tables = stats.sharpness_stats(store, intervals)
    print(stats.format_sharp_table(tables))
    print()
    print(stats.format_cross_table(tables))
    first = stats.format_first_occurrences(tables)
    if first:
        print()
        print(first)
    return EXIT_OK


def _cmd_minpoly(args: argparse.Namespace) -> int:
    p = (args.q - 1) // 2
    negate = False if args.plain else p % 4 == 3
    print(polys.format_poly(polys.min_poly_2cos(args.q, negate)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacrank",
        description="Certified rank bounds for hyperelliptic Jacobians of "
                    "simplest-cubic and real-cyclotomic curve families.")
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("washington",
                       help="upper bounds 1 + cl2 for the simplest cubic family")
    w.add_argument("--m", required=True, metavar="A..B",
                   help="range of m values, e.g. 1..30")
    w.add_argument("--clgroups", metavar="PATH",
                   help="clgroup v1 file (default: bundled data)")
    w.add_argument("--verbose", action="store_true")
    w.set_defaults(func=_cmd_washington)

    s = sub.add_parser("sophie",
                       help="upper bounds g + cl2 for Sophie Germain moduli")
    s.add_argument("--q", required=True, metavar="Q[,Q...]",
                   help="Sophie Germain modulus or comma list, e.g. 11,23")
    s.add_argument("--clgroups", metavar="PATH")
    s.add_argument("--lower", action="store_true",
                   help="also compute the constructive lower bound")
    s.add_argument("--table", action="store_true",
                   help="append a p q upper lower summary table")
    s.add_argument("--assume-davis-taussky", action="store_true",
                   help="assume the Davis-Taussky conjecture (flagged conditional)")
    s.add_argument("--scan-bound", type=int, default=92459, metavar="N",
                   help="largest q for the signature-matrix certificate route")
    s.add_argument("--verbose", action="store_true")
    s.set_defaults(func=_cmd_sophie)

    r = sub.add_parser("scan-rho",
                       help="signature-matrix certificates for all pairs up to max-q")
    r.add_argument("--max-q", type=int, required=True, metavar="N")
    r.add_argument("--threads", type=int, default=0, metavar="T",
                   help="forked child processes certifying pairs in "
                        "parallel: 1 runs serially, 0 (default) one per "
                        "available CPU, larger values are clamped to the "
                        "CPUs and pairs; the output never depends on it")
    r.set_defaults(func=_cmd_scan_rho)

    lb = sub.add_parser("lower-bound",
                        help="independent square classes from a rational point")
    lb.add_argument("--poly", required=True, metavar="C0,C1,...",
                    help="ascending integer coefficients of a monic "
                         "irreducible polynomial of odd degree")
    lb.add_argument("--y0", default="1", metavar="RAT",
                    help="y-coordinate of the rational point (default 1)")
    lb.add_argument("--verbose", action="store_true")
    lb.set_defaults(func=_cmd_lower_bound)

    st = sub.add_parser("stats", help="sharpness statistics over a rank dataset")
    st.add_argument("--ranks", required=True, metavar="PATH",
                    help="ranks v1 file")
    st.add_argument("--intervals", metavar="A..B[,A..B...]",
                    help="disjoint intervals (default: 1000-wide chunks)")
    st.set_defaults(func=_cmd_stats)

    mp = sub.add_parser("minpoly",
                        help="minimal polynomial of the curve generator for modulus q")
    mp.add_argument("--q", type=int, required=True,
                    help="prime modulus q >= 5")
    mp.add_argument("--plain", action="store_true",
                    help="suppress the sign convention that fixes constant term +1")
    mp.set_defaults(func=_cmd_minpoly)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe is met here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader left early, as `| head` does: the output is cut short,
        # not the input invalid; the unflushed rest goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARTIAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
