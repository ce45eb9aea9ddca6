"""Byte-for-byte stdout of every subcommand in every output format.

The expected files in tests/golden/ were recorded from the grid-sampling
window sweep that the closed-form sweep replaced; the table and profile
outputs must not move by a byte.  The profile is printed with 17
significant digits, so it pins candidate_values bit for bit.  To re-record
after a deliberate output change, run this file as a script:

    PYTHONPATH=src python tests/test_golden_cli.py
"""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import struct

import numpy as np
import pytest

from twodist import __version__, cli
from twodist.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FORMATS = ("csv", "json", "pretty")
ARGV = {
    "table": ["table", "--n-min", "20", "--n-max", "23"],
    "profile": ["profile", "--n", "25", "--k", "3", "--samples", "41", "--precision", "17"],
    "bound": ["bound", "--n", "23", "--a", "0.2", "--b", "-0.2"],
    "verify-lambda": ["verify-lambda", "--n", "9"],
    "independence": ["independence", "--n", "8"],
    "delsarte-check": [
        "delsarte-check", "--n", "7", "--coeffs=0.031746,0,0.857143",
        "--t-values=0.3333333,-0.3333333",
    ],
}
CASES = [(cmd, fmt) for cmd in ARGV for fmt in FORMATS]
# Paths the cases above do not reach, with the exit code each must keep:
# inf cells under --strict, no candidate in domain, a rejected certificate
# and the degenerate midpoint set.
EDGE = {
    "table-strict": (["table", "--n-min", "44", "--n-max", "44", "--strict"], 3),
    "bound-no-candidate": (["bound", "--n", "7", "--a", "0.9", "--b", "-0.95", "--strict"], 3),
    "delsarte-check-rejected": (
        ["delsarte-check", "--n", "7", "--coeffs", "1,-1", "--t-values", "0"], 2,
    ),
    "verify-lambda-degenerate": (["verify-lambda", "--n", "2"], 0),
}
EDGE_CASES = [(name, fmt) for name in EDGE for fmt in FORMATS]


def _path(cmd: str, fmt: str) -> str:
    return os.path.join(GOLDEN, f"{cmd}.{fmt}.txt")


def _run(cmd: str, fmt: str, argv=None) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main((argv or ARGV[cmd]) + ["--format", fmt])
    return code, out.getvalue()


@pytest.mark.parametrize("cmd,fmt", CASES)
def test_cli_output_is_byte_identical(cmd, fmt):
    code, text = _run(cmd, fmt)
    assert code == 0
    with open(_path(cmd, fmt), encoding="utf-8", newline="") as fh:
        assert text == fh.read()


@pytest.mark.parametrize("name,fmt", EDGE_CASES)
def test_cli_edge_output_is_byte_identical(name, fmt):
    argv, expected_code = EDGE[name]
    code, text = _run(name, fmt, argv)
    assert code == expected_code
    with open(_path(name, fmt), encoding="utf-8", newline="") as fh:
        assert text == fh.read()


def test_table_7_40_csv_is_the_benchmark_reference():
    # bench/run.py hashes exactly this stdout, the "#" line included, and
    # marks a run incorrect when it differs from bench/table_7_40.csv.  The
    # "#" line holds grid=20001 tol=1e-09 seed=42, so table keeps those options.
    code, text = _run("table", "csv", ["table", "--n-min", "7", "--n-max", "40"])
    assert code == 0
    reference = os.path.join(GOLDEN, os.pardir, os.pardir, "bench", "table_7_40.csv")
    with open(reference, encoding="utf-8", newline="") as fh:
        assert text == fh.read()


# SHA-256 of the stdout of profiles larger than the golden one, recorded
# from the per-sample route that the array route replaced.
LARGE_PROFILES = {
    ("40-3", "csv"): "274b4bc4dadca7314542324fec8b8ff43c90b5e95f648d85eec20dcb68403ea4",
    ("40-3", "json"): "fc3c00360d9b5e87788a4587e13150cff3b74aeed416a11d6ab15f1e22064b33",
    ("40-3", "pretty"): "714df79b584d90c12f075648b3112044051ce6352262ce6c6058339de9c05cda",
    ("7-2", "csv"): "2f82eb0bc85dfcb252dd9ba27eb6bff14385c0132384cdcc976becb68bc0582c",
    ("7-2", "json"): "41cb3f2ede37dc24242d1cab87238e3ef674c397d4549d68a3c235f8f150f9ab",
    ("7-2", "pretty"): "3cfb55a584dd28b62efd14666c8a56edfa186b709b3d3a45b2ec60b198973b94",
}
LARGE_ARGV = {
    "40-3": ["profile", "--n", "40", "--k", "3", "--samples", "5001"],
    "7-2": ["profile", "--n", "7", "--k", "2", "--samples", "20001", "--precision", "17", "--tol", "0"],
}


@pytest.mark.parametrize("name,fmt", LARGE_PROFILES)
def test_large_profile_output_hashes_as_recorded(name, fmt):
    code, text = _run(name, fmt, LARGE_ARGV[name])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_PROFILES[name, fmt]


# SHA-256 per format of the exit codes and stdout of the bound corpus below,
# recorded from the route that built a GegenbauerExpansion and a
# CandidateBound per candidate and rendered every value one by one.
BOUND_CORPUS = {
    "csv": "39c4b4ad8cf39c41defc10305fbed2be1d380bdc19ad5cd24eccb71ba8c1cabc",
    "json": "e57d2f3aca8e7dc810ee123740da3c82e41febd9f5055b530d7b962e59d76a99",
    "pretty": "5d08b335588ceb656436b020d4a2ae46f6998f51e39043bf1c7d60236a99e7e7",
}
# Options the corpus cycles through, one set per random pair.
BOUND_OPTIONS = [
    [], ["--precision", "0"], ["--precision", "17"], ["--tol", "0"], ["--tol", "1e-6"], ["--strict"],
    ["--precision", "3", "--tol", "0", "--strict"],
]
# a + b = 0 (no i=2 multiplier), det4 = 0 with and without a + b = 0, no
# candidate in domain (best=inf), a three-way crossing, b = -1 and f_0 = 0 of i=1.
BOUND_EDGES = [
    ("23", "0.2", "-0.2"), ("10", "0.5", "0.0"), ("10", "0.5", "-0.5"), ("7", "0.9", "-0.95"),
    ("22", repr(1 / 6), "-0.25"), ("9", "0.0", "-1.0"), ("2", "0.5", "-1.0"),
]


def _bound_corpus() -> list[list[str]]:
    """240 bound queries drawn as the benchmark's query stream draws them
    (n in 7..60, a and b rounded to 6 digits), each with the next option set
    of BOUND_OPTIONS, then the edge pairs under every option set."""
    rng = random.Random(37)
    queries = []
    for j in range(240):
        n = rng.randint(7, 60)
        a = round(rng.uniform(-0.9, 0.9), 6)
        b = a
        while b >= a:
            b = round(rng.uniform(-1.0, a), 6)
        queries.append(["bound", "--n", str(n), f"--a={a!r}", f"--b={b!r}", *BOUND_OPTIONS[j % len(BOUND_OPTIONS)]])
    for n, a, b in BOUND_EDGES:
        queries += [["bound", "--n", n, f"--a={a}", f"--b={b}", *extra] for extra in BOUND_OPTIONS]
    return queries


@pytest.mark.parametrize("fmt", FORMATS)
def test_bound_corpus_hashes_as_recorded(fmt):
    digest = hashlib.sha256()
    for argv in _bound_corpus():
        code, text = _run("bound", fmt, argv)
        digest.update(f"{code}\n{text}".encode())
    assert digest.hexdigest() == BOUND_CORPUS[fmt]


# SHA-256 per format of the exit codes and stdout of verify-lambda for
# n = 2..60 and independence for n = 7..60 at the default precision, recorded
# from the certificates that computed X X^T a whole row block at a time
# (x[start:stop] @ x.T for independence) and copied the pairs row by row.  The
# last digits at --precision 17 are those of means of BLAS dot products, which
# depend on the kernels OpenBLAS picks for the CPU, so they are not pinned.
CONSTRUCTION_OUTPUTS = {
    "csv": "f0215c234edbf674f2f553bf768f995880ec809fdd7182f3e2dd4df573a177c6",
    "json": "3c8731581cf95dda2711882b34e491004905f0c2f8b0dc1d02ed54f94c97f46f",
    "pretty": "76af69bd0facd7117834b7f0e857f7e82bbf29752220536ad191756b34a02b03",
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_construction_outputs_hash_as_recorded(fmt):
    digest = hashlib.sha256()
    for cmd, n_min in (("verify-lambda", 2), ("independence", 7)):
        for n in range(n_min, 61):
            code, text = _run(cmd, fmt, [cmd, "--n", str(n)])
            digest.update(f"{code}\n{text}".encode())
    assert digest.hexdigest() == CONSTRUCTION_OUTPUTS[fmt]


def _rounded(x, p: int):
    """The JSON payload's value of x: reals rounded as _fmt rounds them, inf as "inf"."""
    if isinstance(x, float):
        if x.is_integer() and abs(x) < 1e15:
            return int(x)
        return "inf" if math.isinf(x) else float(f"{x:.{p}g}")
    if isinstance(x, list):
        return [_rounded(v, p) for v in x]
    return x


def _payload_text(args, report) -> str:
    """json.dumps(payload, indent=2) of the report, its records built one dict each."""
    columns = report.columns()
    p = args.precision
    records = [{k: _rounded(v, p) for k, v in zip(columns, values)} for values in zip(*columns.values())]
    options = {k: v for k, v in vars(args).items() if k not in ("command", "format", "out")}
    payload = {
        "meta": {"tool": "twodist", "version": __version__, "command": args.command, "options": options},
        report.key: records[0] if report.key == "result" else records,
    }
    if report.best is not None:
        payload["best"] = {k: _rounded(v, p) for k, v in report.best.items()}
    return json.dumps(payload, indent=2) + "\n"


def _json_args(argv):
    args = cli._parser().parse_args(argv + ["--format", "json"])
    return args, cli._COMMANDS[args.command][0](args)


@pytest.mark.parametrize("argv", [*ARGV.values(), *(argv for argv, _ in EDGE.values())])
def test_json_writer_equals_json_dumps_of_the_payload(argv):
    args, report = _json_args(argv)
    assert cli._render(args, report) == _payload_text(args, report)


# Columns that no command prints: every kind of value the JSON writer and
# the CSV texts take, in columns of one type (the one-pass routes) and mixed.
ODD_COLUMNS = {
    'quo"te {key} 100%': [
        'a "quoted" \\ back\\slash', "na\u00efve \u2603 \U0001f600", "tab\tnew\nline\x00\x1f\x7f", "",
    ],
    "lists": [[], [[1.5, []], [2.0, -0.0]], [None, True, False, "x"], [math.inf, -math.inf, math.nan, 1e15]],
    "mixed": [None, True, 2**53 + 1, -0.0],
    "ints": [2**53 + 1, -(2**64), None, 0],
    "bools": [True, False, True, False],
    "reals": [-0.0, math.inf, -math.inf, math.nan],
    "whole": [1e15 - 1.0, 1e15, -1e15 + 1.0, -1e15],
    "rounding": [1.7976931348623157e308, 2.5e-320, 0.1, 123456.789],
    "nones": [None, None, None, None],
}


@pytest.mark.parametrize("precision", [0, 1, 3, 12, 17])
@pytest.mark.parametrize("key", ["rows", "result"])
def test_json_writer_on_adversarial_records(key, precision):
    args = argparse.Namespace(command="odd", n=7, tol=0.0, format="json", precision=precision, out=None)
    columns = ODD_COLUMNS if key == "rows" else {k: v[2:3] for k, v in ODD_COLUMNS.items()}
    best = {"value": -math.inf, "winning": [1, 2**60], "empty": [], "nested": [[0.5], []]}
    report = cli._Report(key, lambda: dict(columns), lambda: [], best=best)
    assert cli._render(args, report) == _payload_text(args, report)


@pytest.mark.parametrize("precision", [0, 1, 3, 12, 17])
def test_column_texts_equal_fmt_of_each_value(precision):
    for name, values in ODD_COLUMNS.items():
        assert cli._texts(values, precision) == [cli._fmt(v, precision) for v in values], name


# Reals at the edges of the one-pass route for float arrays: signed zeros
# and infinities, small values that %g writes with an exponent, one that
# rounds up to a new decade at p = 4, one that is whole once rounded to 12
# digits, values on both sides of the 1e15 limit for bare whole reals and
# of repr's switch to exponents at 1e16, the largest double, subnormals.
EDGE_REALS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 1e-5, 9.99995e-05, 274.99999999999997, 1.5e12,
    123456789012345.0, 1e16, 1.7976931348623157e308, 2.5e-320, 5e-324, 0.1, -123456.789,
]


def _near_reals(count: int) -> list[float]:
    """Seeded reals that rounding to few digits makes whole or carries into
    a new decade, and random doubles of every exponent."""
    rng = random.Random(7)
    values = []
    for _ in range(count):
        scale = 10.0 ** rng.randint(-8, 18)
        values.append(rng.randint(1, 999) * scale * (1 + rng.choice((-1, 1)) * 10.0 ** -rng.randint(3, 17)))
        values.append(struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0])
    return values


def _csv_reference(x: float, p: int) -> str:
    """A real as CSV text by the rule alone: whole below 1e15 bare, +-inf as inf, else format's p digits."""
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return "inf" if math.isinf(x) else format(x, f".{p}g")


@pytest.mark.parametrize("precision", [0, 1, 3, 4, 12, 15, 16, 17, 30])
def test_array_texts_equal_the_scalar_rules_value_by_value(precision):
    for name, values in {"edges": EDGE_REALS, "near": _near_reals(500), **ODD_COLUMNS}.items():
        if not all(isinstance(v, float) for v in values):
            continue
        csv = cli._texts(np.array(values), precision)
        json_texts = cli._texts(np.array(values), precision, 6)
        for v, text, json_text in zip(values, csv, json_texts):
            assert text == cli._fmt(v, precision), (name, v)
            assert json_text == cli._json_text(v, precision, 6), (name, v)
            # The scalar rules against json.dumps of the rounded payload value.
            assert text == _csv_reference(v, precision), (name, v)
            assert json_text == json.dumps(_rounded(v, precision)), (name, v)
        # The value-by-value route of a short list column writes the same texts.
        assert cli._texts(values, precision) == csv, name
        assert cli._texts(values, precision, 6) == json_texts, name


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for cmd, fmt in CASES:
        code, text = _run(cmd, fmt)
        assert code == 0, (cmd, fmt)
        with open(_path(cmd, fmt), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    for name, fmt in EDGE_CASES:
        argv, expected_code = EDGE[name]
        code, text = _run(name, fmt, argv)
        assert code == expected_code, (name, fmt)
        with open(_path(name, fmt), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
