"""Seeded operation streams for the benchmark workloads, and the check of each operation.

The seed only shapes the inputs; the library sees nothing but the argv of
each CLI call.  Each stream is an endless sequence of blocks (lists of
operations).  A run's operations are the first PASS_BLOCKS blocks of its
workload's stream: the same seed always gives the same operations, however
fast the machine is.  The runner cycles through them until the run's time is
up, ends on a block boundary and runs each at least once.

Parameter draws are stratified (cycled through seeded shuffles) rather than
independent, so that two seeds give the same mix of cheap and expensive
operations and the per-run medians stay steady.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

import checks

FORMATS = ("csv", "json", "pretty")
CLI_DEFAULT_GRID = 20001
# Of every ten single-row table queries, this many pass an explicit --grid.
GRID_DRAWS_PER_10 = 3
# One block of the query mix: per 40 queries, this many of each kind.  In
# cost order the kinds are delsarte-check < bound < profile < row, so the
# bound queries take the 22nd to 68th percentile of the ranking and hold the
# median, away from the jumps between kinds; and the 90th percentile falls
# among the three-window rows (n >= 25, the dearest 47% of rows), not on the
# step below them.
QUERY_BLOCK = {"bound": 18, "profile": 2, "delsarte": 9, "row": 11}
CONSTRUCTION_COMMANDS = {"verify": "verify-lambda", "independence": "independence"}
# Blocks of distinct operations in one run.  `attempted` and `failed` count
# these, so two runs with the same seed give the same counts even when one of
# them runs more passes.  Fifteen query blocks (600 queries, with about five
# n = 22 rows) and one construction block (every n in 7..60) each take about
# 25 s on a 2-vCPU machine.
PASS_BLOCKS = {"table": 1, "queries": 15, "constructions": 1}


@dataclass
class Op:
    kind: str
    argv: list[str]
    fmt: str = "csv"
    n: int = 0
    params: dict = field(default_factory=dict)

    @property
    def grid(self) -> int:
        return self.params.get("grid", CLI_DEFAULT_GRID)


@dataclass
class CliResult:
    rc: int | None
    out: str
    err: str
    exc: str | None = None


def cycled(rng: random.Random, values):
    """Endless stream of values, one seeded shuffle of the whole list at a time."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def stratified(rng: random.Random, lo: int, hi: int, strata: int):
    """Endless stream of integers in lo..hi: per cycle one draw from each of
    `strata` equal bins, in seeded order."""
    width = (hi - lo + 1) / strata
    for s in cycled(rng, range(strata)):
        start = lo + int(s * width)
        yield rng.randint(start, lo + int((s + 1) * width) - 1)


def k_max(n: int) -> int:
    """Largest ratio index of the sweep, as lrs.k_max; inputs are made without the library."""
    return max(math.floor((1.0 + math.sqrt(2.0 * n)) / 2.0), 2)


def table_stream(seed: int):
    """The `table` workload: the cold 7..40 table, the same input every time."""
    while True:
        yield [Op("table", [], n=40)]


class QueryStream:
    """The `queries` workload: blocks of short CLI commands, QUERY_BLOCK per block."""

    def __init__(self, seed: int, pool: list[dict]):
        self.rng = rng = random.Random(seed)
        self.pool = pool
        self.fmts = {kind: cycled(rng, FORMATS) for kind in QUERY_BLOCK}
        self.row_n = cycled(rng, range(7, 41))
        self.profile_n = cycled(rng, range(7, 41))
        self.samples = stratified(rng, 101, 5001, 10)
        self.grid_drawn = cycled(rng, [True] * GRID_DRAWS_PER_10 + [False] * (10 - GRID_DRAWS_PER_10))
        self.grids = stratified(rng, 5001, 100003, 10)
        self.verdicts = cycled(rng, ["accept", "accept", "negative", "outside"])

    def __iter__(self):
        kinds = [k for k, count in QUERY_BLOCK.items() for _ in range(count)]
        while True:
            self.rng.shuffle(kinds)
            yield [self.op(kind) for kind in kinds]

    def op(self, kind: str) -> Op:
        fmt = next(self.fmts[kind])
        n, argv, params = getattr(self, kind)()
        return Op(kind, argv + ["--format", fmt], fmt, n, params)

    def row(self):
        n = next(self.row_n)
        argv = ["table", "--n-min", str(n), "--n-max", str(n)]
        params = {}
        if next(self.grid_drawn):
            params["grid"] = next(self.grids)
            argv += ["--grid", str(params["grid"])]
        return n, argv, params

    def bound(self):
        n = self.rng.randint(7, 60)
        a = round(self.rng.uniform(-0.9, 0.9), 6)
        b = a
        while b >= a:
            b = round(self.rng.uniform(-1.0, a), 6)
        return n, ["bound", "--n", str(n), f"--a={a!r}", f"--b={b!r}"], {"a": a, "b": b}

    def profile(self):
        n = next(self.profile_n)
        k = self.rng.randint(2, k_max(n))
        s = next(self.samples)
        picks = sorted(self.rng.sample(range(s), 3))
        argv = ["profile", "--n", str(n), "--k", str(k), "--samples", str(s)]
        return n, argv, {"k": k, "samples": s, "picks": picks}

    def delsarte(self):
        entry = self.rng.choice(self.pool)
        verdict = next(self.verdicts)
        coeffs = list(entry["coeffs"])
        t_values = [entry["a"], entry["b"]]
        if verdict == "negative":
            j = self.rng.randrange(1, len(coeffs))
            coeffs[j] = -(abs(coeffs[j]) + 0.01 * coeffs[0])
        elif verdict == "outside":
            t_values.append(1.0)  # f(1) = sum of the coefficients > 0
        argv = [
            "delsarte-check", "--n", str(entry["n"]),
            # "=" form: argparse would read a leading "-0.2,..." as an option.
            "--coeffs=" + ",".join(map(repr, coeffs)),
            "--t-values=" + ",".join(map(repr, t_values)),
        ]
        return entry["n"], argv, {"accept": verdict == "accept", "bound": entry["bound"]}


def construction_stream(seed: int):
    """The `constructions` workload: verify-lambda and independence.

    A block runs both commands once for every n in 7..60, in seeded order
    with seeded formats.  Cost grows like n^6, so a block that covers the
    whole range keeps the mix of cheap and expensive calls the same from run
    to run.
    """
    rng = random.Random(seed)
    fmts = cycled(rng, FORMATS)
    while True:
        ops = [(kind, n) for n in range(7, 61) for kind in CONSTRUCTION_COMMANDS]
        rng.shuffle(ops)
        yield [Op(kind, [CONSTRUCTION_COMMANDS[kind], "--n", str(n), "--format", fmt], fmt, n)
               for (kind, n), fmt in zip(ops, fmts)]


def stream(workload: str, seed: int, ref: dict):
    """The endless block stream of a workload."""
    if workload == "queries":
        return iter(QueryStream(seed, ref["certificate_pool"]))
    return {"table": table_stream, "constructions": construction_stream}[workload](seed)


def operations(workload: str, seed: int, ref: dict) -> list[list[Op]]:
    """The distinct operations of one run, in blocks."""
    return list(islice(stream(workload, seed, ref), PASS_BLOCKS[workload]))


def expected_rc(op: Op) -> int:
    return 2 if op.kind == "delsarte" and not op.params["accept"] else 0


def check_op(op: Op, res: CliResult, ref: dict) -> list[str]:
    """Problems with one CLI operation's output; empty when it is right."""
    if res.exc is not None:
        return [f"raised {res.exc}"]
    if res.rc != expected_rc(op):
        return [f"exit code {res.rc}, want {expected_rc(op)}: {res.err.strip()}"]
    try:
        return _check_output(op, res.out, ref)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable output: {exc!r}"]


def _check_output(op: Op, out: str, ref: dict) -> list[str]:
    from twodist import bound_polys, lrs

    if op.kind == "row":
        return checks.check_table_text(out, op.fmt, op.n, op.n, ref["table_rows"])
    if op.kind == "bound":
        got = checks.parse_bound(out, op.fmt)
        want = float(bound_polys.candidate_values(op.n, [op.params["a"]], [op.params["b"]]).min())
        return [] if checks.close(got, want) else [f"best={got}, candidate_values min={want}"]
    if op.kind == "profile":
        k, s = op.params["k"], op.params["samples"]
        samples = checks.parse_profile(out, op.fmt)
        if len(samples) != s:
            return [f"{len(samples)} samples, want {s}"]
        xs = np.linspace(*lrs.interval(k), s)
        problems = []
        for j in op.params["picks"]:
            a, q = samples[j]
            want = lrs.q_bound(op.n, k, float(xs[j]))
            if not (checks.close(a, float(xs[j])) and checks.close(q, want)):
                problems.append(f"sample {j}: (a, q) = ({a}, {q}), q_bound = {want}")
        return problems
    if op.kind == "delsarte":
        got = checks.parse_delsarte(out, op.fmt)
        want = (True, op.params["bound"]) if op.params["accept"] else (False, None)
        return [] if got == want else [f"verdict {got}, want {want}"]
    got = checks.parse_construction(out, op.fmt, op.argv[0])
    m = op.n * (op.n + 1) // 2
    want_rank = op.n if op.kind == "verify" else m + op.n
    if got != {"size": m, "rank": want_rank, "pass": True}:
        return [f"{got}, want size {m}, rank {want_rank}, pass"]
    return []
