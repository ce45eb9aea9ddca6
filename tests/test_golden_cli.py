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
