"""Per-layer spans around the calls into nht's public functions.

Nothing under src/ is edited: `Tracer.install` rebinds each listed
function, in every nht module that holds it, to a wrapper that records
a span (id, parent, op, name, start, end) and a few work counters, and
`Tracer.remove` puts the originals back. Because the package calls its
own functions through module globals, a span's children are the traced
calls it made, and self time is what is left of its span once the
children are taken out.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = {
    "core": ("gram_lag_sums", "orthogonality_report", "forward_transform",
             "inverse_transform", "normalizer"),
    "correlation": ("circular_crosscorr", "resolve_convention", "pair_table"),
    "modmath": ("is_prime", "factorize", "sqrt_mod_prime", "mod_inverse"),
    "search": ("search_seeds", "evaluate_candidate"),
    "seqio": ("load_sequence_file", "write_text_atomic", "emit_correlation_csv"),
    "cli": ("run_command",),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _n(seq) -> int:
    return len(getattr(seq, "values", seq))


# Work done per call, computed from arguments and result: multiplies for
# the O(n^2) kernels (n^2 per correlation, 2n^2 per transform) and bytes
# for file reads and writes.
_WORK = {
    "core.gram_lag_sums": ("mults", lambda a, k, r: _n(_arg(a, k, 0, "g")) ** 2),
    "correlation.circular_crosscorr": ("mults", lambda a, k, r: r.length ** 2),
    "core.forward_transform": ("mults", lambda a, k, r: 2 * _arg(a, k, 0, "s").n ** 2),
    "core.inverse_transform": ("mults", lambda a, k, r: 2 * _arg(a, k, 0, "s").n ** 2),
    "seqio.load_sequence_file": ("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    "seqio.write_text_atomic": ("bytes", lambda a, k, r: len(_arg(a, k, 1, "text").encode())),
}


class Span(NamedTuple):
    sid: int
    parent: int | None
    op: object
    name: str
    start: float
    end: float


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, lo, hi = 0.0, None, None
        for a, b in sorted(children[s.sid]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                covered += 0.0 if hi is None else hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += 0.0 if hi is None else hi - lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    specs = []
    for layer, names in LAYERS.items():
        for fname in names:
            key = f"{layer}.{fname}"
            specs += [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
            if key in _WORK:
                kind = _WORK[key][0]
                specs.append((f"{key}.{kind}", "count" if kind == "mults" else kind))
    specs += [("search.valid_ratio", "ratio"), ("search.rejected_seeds", "count")]
    specs += [(f"cli.exit_{c}", "count") for c in (0, 1, 2)] + [("cli.raised", "count")]
    specs.append(("trace_overhead_ratio", "ratio"))
    return specs


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: object = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "nht" or name.startswith("nht.")]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"nht.{layer}")
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        setattr(m, attr, wrapped)
                        self._patched.append((m, attr, orig))

    def remove(self) -> None:
        while self._patched:
            m, attr, orig = self._patched.pop()
            setattr(m, attr, orig)

    def _wrap(self, name, fn):
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids
        work = _WORK.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "cli.run_command":
                    counts["cli.raised"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, parent, self.op, name, start, end))
            if work:
                counts[f"{name}.{work[0]}"] += work[1](args, kwargs, result)
            if name == "search.evaluate_candidate":
                counts["search.evaluated"] += 1
                counts["search.valid"] += result.valid
            elif name == "search.search_seeds":
                counts["search.rejected_seeds"] += len(result.rejected)
            elif name == "cli.run_command":
                counts[f"cli.exit_{result.exit_status}"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self, overhead_ratio: float) -> dict[str, dict]:
        calls, self_s = Counter(), defaultdict(float)
        own = self_times(self.spans)
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += own[s.sid]
        values = {}
        for layer, names in LAYERS.items():
            for fname in names:
                key = f"{layer}.{fname}"
                values[f"{key}.calls"] = calls[key]
                values[f"{key}.self_s"] = self_s[key]
        values.update({k: v for k, v in self.counts.items()
                       if k not in ("search.evaluated", "search.valid")})
        evaluated = self.counts["search.evaluated"]
        values["search.valid_ratio"] = self.counts["search.valid"] / evaluated if evaluated else 0.0
        values["trace_overhead_ratio"] = overhead_ratio
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in metric_specs()}
