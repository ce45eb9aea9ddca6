"""Byte-for-byte stdout of every subcommand in every output format.

The expected files in tests/golden/ were recorded from the grid-sampling
window sweep that the closed-form sweep replaced; the table and profile
outputs must not move by a byte.  The profile is printed with 17
significant digits, so it pins candidate_values bit for bit.  To re-record
after a deliberate output change, run this file as a script:

    PYTHONPATH=src python tests/test_golden_cli.py
"""
import contextlib
import io
import os

import pytest

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
