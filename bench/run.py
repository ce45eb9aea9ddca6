"""The twodist benchmark: one workload, one seed, one closed-loop run.

Run from the repository root:

    python3 bench/run.py --workload table|queries|constructions --seed N --seconds S --trace 0|1

One caller runs the seed's operations back to back (a closed loop) in this
process, cycling through them for S seconds and running each at least once;
each output is checked right after its operation, outside the timing.
`attempted` counts the distinct operations and `failed` those that gave a
wrong output at least once, so both depend on the seed only.  Operation
times are divided by a reference kernel timed on the same core during the
run (kernels.py).  With --trace 0 the last line of stdout is
the end-to-end result; with --trace 1 the same operations run once untraced
and once traced, and the last line holds the per-layer numbers.
The lines before it describe the machine, the checks and any failure.
Spans and the full result go to .bench_out/ in the working directory.
See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

# One BLAS thread unless the caller sets it: on a small shared machine two BLAS
# threads contend with other tenants for the cores, and the constructions
# workload's throughput then spreads ten times wider from run to run.  Set in
# main() before numpy is imported here or in the set-up children.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 15
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter
MMAP_THRESHOLD = 128 * 1024  # glibc's initial value
IMPORTTIME_REPEATS = 5
# The paper's bound table, timed by the `table` workload.
TABLE_RANGE = (7, 40)


def fix_mmap_threshold() -> int | None:
    """Pin glibc's mmap threshold, so that every large array is returned to the
    system when freed.  By default glibc raises the threshold after each large
    free and keeps later blocks on the heap, so the peak RSS of a run depended
    on the seeded order of operations (154-174 MB on `constructions`)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # not glibc
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return MMAP_THRESHOLD if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 else None


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("table", "queries", "constructions"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def central_mean(values: list[float]) -> float:
    """The median, estimated as the mean of the middle fifth of the sorted values
    (from the 40th to the 60th percentile).  Neighbouring operations on
    `constructions` differ in cost by 10-20%, so a single middle value jumps
    with its own noise; the mean of the middle fifth does not."""
    xs = sorted(values)
    n = len(xs)
    return statistics.fmean(xs[2 * n // 5: -(-3 * n // 5)])


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --- set-up: a fresh interpreter importing the CLI --------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports twodist.cli.

    No `timeout=`: with one, subprocess polls for the child's exit in sleeps
    of up to 50 ms, which rounds the measurement to that step.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import twodist.cli"], env=_child_env(), check=True)
    return perf_counter() - t0


def import_seconds() -> dict[str, float]:
    """Median cumulative import time of numpy and of twodist without numpy (-X importtime)."""
    numpy_s, twodist_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import twodist.cli"],
                              env=_child_env(), check=True, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
        numpy_s.append(cumulative["numpy"])
        total = cumulative["twodist"] + cumulative.get("twodist.cli", 0.0)
        twodist_s.append(total - cumulative["numpy"])
    return {"setup.import_numpy_s": statistics.median(numpy_s),
            "setup.import_twodist_s": statistics.median(twodist_s)}


# --- the machine and the code under test --------------------------------------


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None when there is none."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(seed: int, mmap_threshold: int | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "malloc_mmap_threshold": mmap_threshold,
        "commit": commit,
        "seed": seed,
    }


def table_csv_sha256() -> str:
    """SHA-256 of `twodist table --n-min 7 --n-max 40 --format csv`."""
    import twodist.cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        twodist.cli.main(["table", "--n-min", str(TABLE_RANGE[0]), "--n-max", str(TABLE_RANGE[1]),
                          "--format", "csv"])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# --- operations ------------------------------------------------------------


@dataclass
class Record:
    key: int  # which of the run's distinct operations this is
    op: object
    segments: list[tuple[float, float]]  # the op's clock, calibration pauses left out
    problems: list[str]
    known_defect: bool
    ref: float = 0.0  # time in reference-kernel units, set once the run is calibrated

    @property
    def seconds(self) -> float:
        return sum(end - start for start, end in self.segments)


def execute(op, tracer, ref: dict, calibration):
    """Run one operation cold (empty k_slice cache); returns (outcome, segments)."""
    import twodist.cli
    import twodist.lrs as lrs
    from workloads import CliResult

    lrs.k_slice.cache_clear()
    if op.kind == "table":
        calibration.start_op()
        rows = lrs.table(*TABLE_RANGE)
        segments = calibration.end_op()
        active, tracer.active = tracer.active, False
        phis = {(q["n"], q["k"]): lrs.k_slice(q["n"], q["k"]).phi for q in ref["quoted_phi"]}
        tracer.active = active
        return ([vars(r) for r in rows], phis), segments
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with redirect_stdout(out), redirect_stderr(err):
        calibration.start_op()
        try:
            rc = twodist.cli.main(op.argv)
        except Exception:  # counted as a failed operation, with its traceback
            rc, exc = None, traceback.format_exc()
        segments = calibration.end_op()
    text = out.getvalue()
    if tracer.active:
        tracer.counts["cli.output_bytes"] += len(text.encode())
    return CliResult(rc, text, err.getvalue(), exc), segments


def install_checkpoints(calibration):
    """Give long operations calibration points: before each window of the sweep
    (a k_slice call) the operation's clock may pause for the kernel.  Returns
    the function that takes the hook out again."""
    import twodist.lrs as lrs

    orig = lrs.k_slice

    def k_slice(*args, **kwargs):
        calibration.checkpoint()
        return orig(*args, **kwargs)

    k_slice.cache_clear = orig.cache_clear
    k_slice.cache_info = orig.cache_info
    lrs.k_slice = k_slice
    return lambda: setattr(lrs, "k_slice", orig)


def check(op, outcome, ref: dict) -> tuple[list[str], bool]:
    """(problems, whether they are the known n = 22 defect) for one operation."""
    import checks
    from workloads import check_op

    if op.kind != "table":
        problems = check_op(op, outcome, ref)
        return problems, bool(problems) and checks.is_known_defect(op, outcome.out, ref["table_rows"])
    rows, phis = outcome
    problems = checks.check_table_rows(rows, *TABLE_RANGE, ref["table_rows"])
    for q in ref["quoted_phi"]:
        got = phis[(q["n"], q["k"])]
        if not abs(got - q["target"]) <= q["tol"]:
            problems.append(f"phi({q['n']},{q['k']}) = {got}, want {q['target']} +/- {q['tol']}")
    return problems, False


def run_loop(blocks, seconds: float, tracer, ref: dict, calibration,
             setup_samples: list[float] | None = None) -> list[Record]:
    """Closed loop, one caller: cycle through the blocks of (key, op) pairs
    until every block has run once and `seconds` have passed, ending on a
    block boundary.

    Each output is checked right after its operation, outside the timing and
    with tracing paused, and then dropped.  Between operations the reference
    kernel is timed when due and, when `setup_samples` is given,
    SETUP_REPEATS fresh-interpreter imports are spread over the run, so that
    both sample the whole run rather than one moment of it.
    """
    records = []
    start = perf_counter()
    for i, block in enumerate(itertools.cycle(blocks)):
        if i >= len(blocks) and perf_counter() - start >= seconds:
            break
        for key, op in block:
            if calibration.due():
                calibration.measure()
            if setup_samples is not None:
                next_sample_at = len(setup_samples) * seconds / SETUP_REPEATS
                if perf_counter() - start >= next_sample_at:
                    setup_samples.append(setup_seconds())
            tracer.op = len(records)
            outcome, segments = execute(op, tracer, ref, calibration)
            active, tracer.active = tracer.active, False
            problems, known = check(op, outcome, ref)
            tracer.active = active
            records.append(Record(key, op, segments, problems, known))
    calibration.measure()
    for r in records:
        r.ref = calibration.cost(r.segments)
    while setup_samples is not None and len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(setup_seconds())
    return records


def failures(records: list[Record]) -> tuple[int, int, list[str]]:
    """Over the distinct operations: (failed at least once, failed other than by
    the known defect, one message per failed execution)."""
    messages = []
    failed, unexplained = set(), set()
    for r in records:
        if r.problems:
            label = "known defect (n=22 grid misses a=1/6)" if r.known_defect else "FAIL"
            messages.append(f"{label}: op {r.key} {r.op.kind} {' '.join(r.op.argv)}: {'; '.join(r.problems)}")
            failed.add(r.key)
            if not r.known_defect:
                unexplained.add(r.key)
    return len(failed), len(unexplained), messages


def kind_latencies(records: list[Record]) -> dict[str, tuple[float, float]]:
    """Per kind of operation: (median ms, median ref)."""
    by_kind: dict[str, list[Record]] = {}
    for r in records:
        by_kind.setdefault(r.op.kind, []).append(r)
    return {kind: (statistics.median(r.seconds * 1e3 for r in rs), statistics.median(r.ref for r in rs))
            for kind, rs in sorted(by_kind.items())}


def raw_times(records: list[Record]) -> dict:
    """Wall-clock figures, printed and saved beside the bounded metrics."""
    ms = [r.seconds * 1e3 for r in records]
    return {"op_ms_p50": (statistics.median(ms), "ms"), "op_ms_p90": (percentile(ms, 90), "ms"),
            "op_ms_p99": (percentile(ms, 99), "ms"),
            "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s")}


# --- metrics -------------------------------------------------------------------


def end_to_end(records: list[Record], attempted: int, failed: int, setup_s: float) -> dict:
    rel = [r.ref for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "op_ref_p50": (central_mean(rel), "ref"),
        "op_ref_p90": (percentile(rel, 90), "ref"),
        "ops_per_kref": (1e3 * len(rel) / sum(rel), "1/kref"),
        "ok_rate": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYER_TIMES = (
    "cli.main", "lrs.k_slice", "lrs.q_bound", "bound_polys.best_bound",
    "bound_polys.build_candidate", "bound_polys.candidate_values", "bound_polys.delsarte_check",
    "gegenbauer.to_gegenbauer", "constructions.lambda_set", "constructions.verify_two_distance",
    "constructions.gram_check", "constructions.independence_rank",
)
KINDS = ("table", "row", "bound", "profile", "delsarte", "verify", "independence")


def per_layer(tracer, untraced: list[Record], traced: list[Record], imports: dict,
              calibration) -> dict:
    """Per-layer numbers, each per operation of the traced pass unless it is a ratio."""
    n_ops = len(traced)
    spans = tracer.summary()
    counts = tracer.counts
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    m: dict[str, tuple[float, str]] = {}
    for name in LAYER_TIMES:
        agg = spans.get(name, zero)
        label = "cli" if name == "cli.main" else name
        m[f"{name}.calls"] = (agg["calls"] / n_ops, "calls/op")
        m[f"{label}.self_s"] = (agg["self_s"] / n_ops, "s/op")
    for name in ("lrs.k_slice", "lrs.q_bound"):
        m[f"{name}.total_s"] = (spans.get(name, zero)["total_s"] / n_ops, "s/op")
    windows = spans.get("lrs.k_slice", zero)["calls"]
    m["lrs.q_bound.per_window"] = (spans.get("lrs.q_bound", zero)["calls"] / windows if windows else 0.0,
                                   "calls/window")
    built = spans.get("bound_polys.build_candidate", zero)["calls"]
    m["bound_polys.build_candidate.in_domain_ratio"] = (
        counts["bound_polys.build_candidate.in_domain"] / built if built else 0.0, "ratio")
    m["bound_polys.candidate_values.pairs"] = (counts["bound_polys.candidate_values.pairs"] / n_ops,
                                               "pairs/op")
    m["lrs.windows.inconclusive"] = (counts["lrs.windows.inconclusive"] / n_ops, "windows/op")
    m["lrs.windows.knife_edge"] = (counts["lrs.windows.knife_edge"] / n_ops, "windows/op")
    m["cli.output_bytes"] = (counts["cli.output_bytes"] / n_ops, "bytes/op")
    for name in ("constructions.gram_check", "constructions.independence_rank"):
        m[f"{name}.matrix_bytes"] = (counts[f"{name}.matrix_bytes"] / n_ops, "computed_B/op")
    for name, value in imports.items():
        m[name] = (value, "s")
    kinds = kind_latencies(untraced)
    for kind in KINDS:
        ms, rel = kinds.get(kind, (0.0, 0.0))
        m[f"ops.{kind}_ms_p50"] = (ms, "ms")
        m[f"ops.{kind}_ref_p50"] = (rel, "ref")
    m["ref.kernel_ms"] = (statistics.median(calibration.values) * 1e3, "ms")
    m["trace.ops"] = (n_ops, "count")
    m["trace.overhead_s"] = (sum(r.seconds for r in traced) - sum(r.seconds for r in untraced), "s")
    m["trace.overhead_ratio"] = (sum(r.seconds for r in traced) / sum(r.seconds for r in untraced) - 1.0,
                                 "ratio")
    return m


# --- main --------------------------------------------------------------------


def main() -> int:
    args = parse_args()
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    mmap_threshold = fix_mmap_threshold()
    if not os.path.isfile(os.path.join(SRC, "twodist", "cli.py")):
        fail(f"no twodist sources under {SRC}; run from the root of a twodist checkout")
    sys.path.insert(0, SRC)
    import checks
    import selftest

    bad = selftest.run_all()
    if bad:
        fail("checker self-tests failed: " + "; ".join(bad))
    ref = checks.load_reference()

    import twodist
    import twodist.cli  # noqa: F401  (the operations call it)

    if not os.path.abspath(twodist.__file__).startswith(SRC + os.sep):
        fail(f"imported twodist from {twodist.__file__}, not from {SRC}")
    from kernels import KERNELS, Calibration
    from tracer import Tracer
    from workloads import operations

    # Each distinct operation keeps its key through every pass, for failures().
    keys = itertools.count()
    blocks = [[(next(keys), op) for op in block] for block in operations(args.workload, args.seed, ref)]
    attempted = sum(map(len, blocks))
    tracer = Tracer()
    calibration = Calibration(KERNELS[args.workload])
    remove_checkpoints = install_checkpoints(calibration)
    if args.trace:
        imports = import_seconds()
        records = run_loop(blocks, args.seconds / 2, tracer, ref, calibration)
        remove_checkpoints()  # the traced pass calibrates between operations only
        tracer.install()
        tracer.active = True
        try:
            traced = run_loop([[(r.key, r.op) for r in records]], 0.0, tracer, ref, calibration)
        finally:
            tracer.active = False
            tracer.uninstall()
        metrics = per_layer(tracer, records, traced, imports, calibration)
        records += traced
    else:
        setup_samples: list[float] = []
        records = run_loop(blocks, args.seconds, tracer, ref, calibration, setup_samples)
        remove_checkpoints()
    failed, unexplained, messages = failures(records)
    raw = raw_times(records)
    if not args.trace:
        metrics = end_to_end(records, attempted, failed, statistics.median(setup_samples))
    env = environment(args.seed, mmap_threshold)
    env["table_csv_sha256"] = table_csv_sha256()
    with open(checks.GOLDEN_CSV, "rb") as fh:
        env["table_csv_matches_reference"] = env["table_csv_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    if not env["table_csv_matches_reference"]:
        unexplained += 1
        messages.append("FAIL: the table 7..40 CSV differs from bench/table_7_40.csv")

    result = {
        "correct": unexplained == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    kinds = kind_latencies(records)
    full = {"workload": args.workload, "env": env, "raw": raw, "p50_ms_ref_by_kind": kinds,
            "messages": messages, "result": result}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    if args.trace:
        tracer.write(stem + ".spans.json", {"workload": args.workload, "seed": args.seed})

    print("env " + json.dumps(env, sort_keys=True))
    print("p50_ms_ref_by_kind " + json.dumps(kinds))
    for name, (value, unit) in raw.items():
        print(f"raw {name} = {value:.6g} {unit}")
    for line in messages:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
