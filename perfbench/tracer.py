"""Per-layer spans for one jacrank CLI pass, and the metrics made from them.

Run as a script, this is the traced driver: it wraps the layer functions
listed in LAYERS, calls `jacrank.cli.main` with the given argv exactly as
`python -m jacrank` would, and writes every span as one JSON line to the
spans file once the CLI has returned:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.jsonl scan-rho --max-q 300

The wrappers live only in this process; the program itself is not changed.
A wrapper replaces the function in every jacrank module that bound it, since
`from .roots import sign_at` leaves a second reference in
`jacrank.numberfield`. Each thread keeps its own parent stack, so spans of
the `scan` worker threads nest under their own callers.

`layer_metrics` turns the spans into the `<module>.<function>.<stat>`
metrics: `calls`, `s` (inclusive seconds, outermost call of a recursion
only) and `self_s` (`s` minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# (module, attribute) wrapped in the traced run; "NumberField" is the
# constructor, "NumberField.x" a method. `stats` is not wrapped (no workload
# runs it), and neither is anything at the RationalPoly / Fraction level.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("cyclosig", "sophie_germain_pairs"),
    ("cyclosig", "orbit_word"),
    ("cyclosig", "certify_rho_infty"),
    ("f2", "poly_gcd"),
    ("f2", "rank"),
    ("f2", "span_dimension"),
    ("arith", "primes_upto"),
    ("numberfield", "NumberField"),
    ("numberfield", "NumberField.norm"),
    ("numberfield", "NumberField.signature"),
    ("numberfield", "NumberField.is_square"),
    ("numberfield", "independence_rank_mod_squares"),
    ("modpoly", "factor_mod_p"),
    ("modpoly", "is_irreducible_mod_p"),
    ("roots", "isolate_real_roots"),
    ("roots", "sign_at"),
    ("factor", "factor_over_Q"),
    ("polys", "resultant"),
    ("bounds", "washington_local_certificate"),
    ("bounds", "washington_rho_certificate"),
    ("bounds", "sophie_upper_bound"),
    ("bounds", "lower_bound_from_points"),
    ("stores", "ingest_class_groups"),
    ("stores", "builtin_class_groups"),
    ("cli", "main"),
)

ROOT_SPAN = "cli.main"
PER_CURVE = ("bounds.washington_local_certificate",
             "bounds.washington_rho_certificate",
             "bounds.sophie_upper_bound",
             "bounds.lower_bound_from_points")


def span_name(module: str, attr: str) -> str:
    """`numberfield.NumberField.norm` is reported as `numberfield.norm`."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _extra(name: str, args: tuple, result: Any) -> Optional[int]:
    """The exact work count some spans carry beside their time."""
    if name == "f2.poly_gcd":
        return args[0].bit_length() + args[1].bit_length()
    if name == "numberfield.is_square":
        return int(result[0])
    if name == "numberfield.independence_rank_mod_squares":
        return (1 << len(args[0].representatives)) - 1
    return None


class Tracer:
    """Spans of one process: [id, name, parent id, thread, start, seconds,
    nested in a span of the same name, extra]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1][0] if stack else -1
            nested = any(n == name for _, n in stack)
            stack.append((sid, name))
            result, done = None, False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                extra = _extra(name, args, result) if done else None
                self.spans.append([sid, name, parent, threading.get_ident(),
                                   t0, dt, nested, extra])
        return traced

    def install(self) -> None:
        import jacrank  # noqa: F401  (imports every layer module)
        import jacrank.cli  # noqa: F401
        mods = [m for k, m in list(sys.modules.items())
                if k == "jacrank" or k.startswith("jacrank.")]
        for module, attr in LAYERS:
            owner = sys.modules[f"jacrank.{module}"]
            name = span_name(module, attr)
            head, _, meth = attr.partition(".")
            original = getattr(owner, head)
            if isinstance(original, type):  # a method, or the constructor
                meth = meth or "__init__"
                setattr(original, meth, self.wrap(name, getattr(original, meth)))
            else:
                traced = self.wrap(name, original)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> List[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out: List[Tuple[str, str]] = []
    for module, attr in LAYERS:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"),
                (f"{name}.self_s", "s")]
        if name == "f2.poly_gcd":
            out.append(("f2.poly_gcd.in_bits", "bits"))
        elif name == "numberfield.is_square":
            out += [("numberfield.is_square.accepted", "count"),
                    ("numberfield.is_square.accept_ratio", "ratio"),
                    ("numberfield.is_square.screen_pass_ratio", "ratio")]
        elif name == "numberfield.independence_rank_mod_squares":
            out.append((f"{name}.products", "count"))
        elif name == "modpoly.factor_mod_p":
            for parent in ("numberfield", "factor"):
                out += [(f"{name}.{parent}_calls", "count"),
                        (f"{name}.{parent}_s", "s")]
        elif name in PER_CURVE:
            out += [(f"{name}.median_ms", "ms"), (f"{name}.max_ms", "ms")]
        elif name == ROOT_SPAN:
            out.append((f"{name}.trace_overhead_s", "s"))
    return out


def layer_metrics(spans: Sequence[list], trace_overhead_s: float) -> Dict[str, float]:
    """Every metric of `metric_names` for one traced pass; a layer that did
    not run reads 0. Span times are wall times, so on `scan` the spans of
    the two worker threads overlap (and wait for each other on the GIL),
    and a layer's seconds can add up to more than the pass took."""
    by_id = {s[0]: s for s in spans}
    child_s: Dict[int, float] = defaultdict(float)
    for _, _, parent, _, _, dt, _, _ in spans:
        if parent >= 0:
            child_s[parent] += dt
    calls: Dict[str, int] = defaultdict(int)
    incl: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    extra: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[float]] = defaultdict(list)
    split: Dict[str, float] = defaultdict(int)  # factor_mod_p by parent
    for sid, name, parent, _, _, dt, nested, ext in spans:
        calls[name] += 1
        if not nested:
            incl[name] += dt
        self_s[name] += dt - child_s[sid]
        if ext is not None:
            extra[name] += ext
        durations[name].append(dt)
        if name == "modpoly.factor_mod_p" and parent in by_id:
            pmod = by_id[parent][1].split(".")[0]
            split[f"{pmod}_calls"] += 1
            if not nested:
                split[f"{pmod}_s"] += dt

    out: Dict[str, float] = {}
    for metric, _ in metric_names():
        name, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls[name]
        elif stat == "s":
            out[metric] = incl[name]
        elif stat == "self_s":
            out[metric] = self_s[name]
        elif stat in ("in_bits", "products", "accepted"):
            out[metric] = extra[name]
        elif stat == "accept_ratio":
            out[metric] = extra[name] / calls[name] if calls[name] else 0.0
        elif stat == "screen_pass_ratio":
            products = extra["numberfield.independence_rank_mod_squares"]
            out[metric] = calls[name] / products if products else 0.0
        elif stat in ("median_ms", "max_ms"):
            ds = durations[name]
            pick = statistics.median if stat == "median_ms" else max
            out[metric] = 1000 * pick(ds) if ds else 0.0
        elif stat == "trace_overhead_s":
            out[metric] = trace_overhead_s
        else:
            out[metric] = split[stat]
    return out


def top_self(metrics: Dict[str, float], n: int = 3) -> List[Tuple[str, float]]:
    """The n layers with the most self time, the root `cli.main` excluded:
    its self time is the CLI's own work plus, on `scan`, the main thread
    waiting for the worker threads."""
    rows = [(k[:-len(".self_s")], v) for k, v in metrics.items()
            if k.endswith(".self_s") and k != f"{ROOT_SPAN}.self_s"]
    return sorted(rows, key=lambda kv: -kv[1])[:n]


def _main(argv: List[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import jacrank.cli
    try:
        code = jacrank.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
