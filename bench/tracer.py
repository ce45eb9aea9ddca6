"""Outside-in tracing: wrap the library's public functions from the benchmark.

The modules of the package import each other's functions by name (lrs does
`from .bound_polys import best_bound`), so a function is patched under every
module attribute that refers to it, not only in the module that defines it.
Spans (name, start, end, parent, operation id) are kept in memory and written
out at the end; self time is computed from them afterwards.  Counters that
need a call's arguments or result (pairs evaluated, windows computed, matrix
sizes) are taken in the same wrapper.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that get a span.  The span name is "module.function".
TARGETS = (
    ("gegenbauer", "to_gegenbauer"),
    ("bound_polys", "build_candidate"),
    ("bound_polys", "best_bound"),
    ("bound_polys", "candidate_values"),
    ("bound_polys", "delsarte_check"),
    ("lrs", "q_bound"),
    ("lrs", "k_slice"),
    ("lrs", "omega_hat"),
    ("lrs", "table"),
    ("lrs", "profile"),
    ("constructions", "lambda_set"),
    ("constructions", "verify_two_distance"),
    ("constructions", "gram_check"),
    ("constructions", "independence_rank"),
    ("cli", "main"),
)
# A window maximum this close to an integer is decided by floating-point noise.
KNIFE_EDGE_TOL = 1e-9
FLOAT_BYTES = 8


def _count_pairs(counts, args, kwargs, result):
    counts["bound_polys.candidate_values.pairs"] += len(result[0])


def _count_in_domain(counts, args, kwargs, result):
    counts["bound_polys.build_candidate.in_domain"] += bool(result.in_domain)


def _count_gram(counts, args, kwargs, result):
    m = len(args[0])
    counts["constructions.gram_check.matrix_bytes"] += FLOAT_BYTES * m * m


def _count_independence(counts, args, kwargs, result):
    m, n = len(args[0]), args[0].n
    counts["constructions.independence_rank.matrix_bytes"] += FLOAT_BYTES * (m + n) * (m + n + 20)


def _count_window(counts, result):
    if not result.conclusive:
        counts["lrs.windows.inconclusive"] += 1
    elif abs(result.phi - round(result.phi)) <= KNIFE_EDGE_TOL:
        counts["lrs.windows.knife_edge"] += 1


COUNTERS = {
    "bound_polys.candidate_values": _count_pairs,
    "bound_polys.build_candidate": _count_in_domain,
    "constructions.gram_check": _count_gram,
    "constructions.independence_rank": _count_independence,
}


class Tracer:
    """Patches TARGETS in the loaded twodist modules; records spans while active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        tracer = self
        on_result = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_k_slice(self, fn):
        """k_slice is lru-cached: keep cache_clear reachable and count only cache misses."""
        inner = self._wrap(fn, "lrs.k_slice")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses
            result = inner(*args, **kwargs)
            if tracer.active and fn.cache_info().misses > misses:
                _count_window(tracer.counts, result)
            return result

        wrapper.cache_clear = fn.cache_clear
        wrapper.cache_info = fn.cache_info
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "twodist"]
        for mod_name, attr in TARGETS:
            orig = getattr(sys.modules[f"twodist.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            wrapper = self._wrap_k_slice(orig) if name == "lrs.k_slice" else self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), inner in zip(self.spans, child):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        return out

    def write(self, path: str, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            **extra,
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "span_names": names,
            "spans": [[index[n], s - t0, e - t0, p, op] for n, s, e, p, op in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
