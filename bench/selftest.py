"""Self-tests for the benchmark's output checker.

They need no library code and run at the start of every benchmark run; run
them alone with `python3 bench/selftest.py` from the repository root.
"""
from __future__ import annotations

import sys

import checks


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str = "") -> None:
    # Not `assert`: the self-tests must still run under python -O.
    if not ok:
        raise CheckFailed(message)


def _golden() -> str:
    with open(checks.GOLDEN_CSV, encoding="utf-8") as fh:
        return fh.read()


def _set_row(csv_text: str, n: int, value: int) -> str:
    lines = csv_text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(f"{n},"):
            f = line.rstrip("\n").split(",")
            f[1] = f[4] = str(value)
            lines[i] = ",".join(f) + "\n"
    return "".join(lines)


def test_accepts_default_grid_table(ref):
    problems = checks.check_table_text(_golden(), "csv", 7, 40, ref["table_rows"])
    expect(problems == [], problems)


def test_rejects_n22_floored_to_274(ref):
    problems = checks.check_table_text(_set_row(_golden(), 22, 274), "csv", 7, 40, ref["table_rows"])
    expect(len(problems) == 1 and problems[0].startswith("n=22:"), problems)


def test_rejects_missing_row(ref):
    text = "".join(ln for ln in _golden().splitlines(keepends=True) if not ln.startswith("31,"))
    expect(checks.check_table_text(text, "csv", 7, 40, ref["table_rows"]) != [])


def test_known_defect_is_narrow(ref):
    class Row:
        kind, n, fmt = "row", 22, "pretty"

    header = "   n  omega_hat    rho   k  g_upper  conclusive\n"
    floored = header + "  22        274    253   3      274  true\n"
    wrong = header + "  22        273    253   3      273  true\n"
    on_grid, off_grid = Row(), Row()
    on_grid.grid, off_grid.grid = 20001, 20002
    expected = ref["table_rows"]
    expect(checks.is_known_defect(off_grid, floored, expected), "274 off the 1/6 grid")
    expect(not checks.is_known_defect(on_grid, floored, expected), "274 on the 1/6 grid")
    expect(not checks.is_known_defect(off_grid, wrong, expected), "273 off the 1/6 grid")


def test_parsers_read_every_format(ref):
    expect(checks.parse_bound("# p\nh\n1,true\n# best=12.5 winning=1/3\n", "csv") == 12.5)
    expect(checks.parse_bound('{"best": {"value": "inf", "winning": []}}', "json") == float("inf"))
    expect(checks.parse_bound("x\nbest bound: 7 attained by i=2\n", "pretty") == 7.0)
    expect(checks.parse_delsarte("# p\nbound,ok,violation\n,false,f(1) = 2\n", "csv") == (False, None))
    expect(checks.parse_delsarte("certificate accepted: cardinality bound 28\n", "pretty") == (True, 28))


TESTS = [
    test_accepts_default_grid_table,
    test_rejects_n22_floored_to_274,
    test_rejects_missing_row,
    test_known_defect_is_narrow,
    test_parsers_read_every_format,
]


def run_all() -> list[str]:
    """Names and messages of the failing self-tests; empty when all pass."""
    ref = checks.load_reference()
    failures = []
    for test in TESTS:
        try:
            test(ref)
        except CheckFailed as exc:
            failures.append(f"{test.__name__}: {exc}")
    return failures


if __name__ == "__main__":
    failed = run_all()
    for line in failed:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if failed else "ok")
    sys.exit(1 if failed else 0)
