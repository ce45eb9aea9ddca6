"""Output parsers and correctness checks for the benchmark.

Every operation's captured stdout is parsed back into numbers, whatever its
format (csv, json or pretty), and compared against the reference data in
reference.json / table_7_40.csv or, for `bound` and `profile`, against a
second route through the library (candidate_values against best_bound),
computed outside the timed and traced region.

A check returns a list of problems; an empty list means the output is right.
"""
from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_CSV = os.path.join(HERE, "table_7_40.csv")

# Printed reals carry 12 significant digits (the CLI default precision), so
# two routes that agree to 1e-12 still read equal at this tolerance.
REL_TOL = 1e-9
# Grids of the form 16 j + 1 land exactly on a = 1/6 in the k = 3 window,
# where the n = 22 maximum sits; every other grid floors that row to 274.
DEFECT_N = 22
DEFECT_VALUE = 274


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["table_rows"] = {int(n): tuple(v) for n, v in ref["table_rows"].items()}
    return ref


def _real(token) -> float:
    return math.inf if token == "inf" else float(token)


def close(got: float, want: float) -> bool:
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


# --- parsers: stdout text -> plain values ------------------------------------


def parse_table(text: str, fmt: str) -> list[dict]:
    """Rows of a `table` output as dicts of n, omega_hat, rho, k_star, g_upper, conclusive."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return [{**r, "omega_hat": _real(r["omega_hat"]), "g_upper": _real(r["g_upper"])} for r in rows]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    out = []
    for ln in lines[1:]:  # the first line is the header in both csv and pretty
        f = ln.split(",") if fmt == "csv" else ln.split()
        out.append({
            "n": int(f[0]), "omega_hat": _real(f[1]), "rho": int(f[2]),
            "k_star": int(f[3]), "g_upper": _real(f[4]), "conclusive": f[5] == "true",
        })
    return out


def parse_profile(text: str, fmt: str) -> list[tuple[float, float]]:
    """(a, q) samples of a `profile` output."""
    if fmt == "json":
        return [(_real(s["a"]), _real(s["q"])) for s in json.loads(text)["samples"]]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    out = []
    for ln in lines[1:]:
        f = ln.split(",") if fmt == "csv" else ln.split()
        out.append((_real(f[0]), _real(f[1])))
    return out


def parse_bound(text: str, fmt: str) -> float:
    """The best candidate value printed by `bound`."""
    if fmt == "json":
        return _real(json.loads(text)["best"]["value"])
    last = text.rstrip("\n").splitlines()[-1]
    if fmt == "csv":  # "# best=<value> winning=<i/j>"
        return _real(last.split()[1].removeprefix("best="))
    return _real(last.split()[2])  # "best bound: <value> ..."


def parse_delsarte(text: str, fmt: str) -> tuple[bool, int | None]:
    """(accepted, bound) printed by `delsarte-check`."""
    if fmt == "json":
        res = json.loads(text)["result"]
        return res["ok"], res["bound"]
    if fmt == "csv":
        bound, ok, _ = text.splitlines()[-1].split(",", 2)
        return ok == "true", (int(bound) if bound else None)
    line = text.strip()
    if line.startswith("certificate accepted"):
        return True, int(line.rsplit(" ", 1)[1])
    return False, None


def parse_construction(text: str, fmt: str, command: str) -> dict:
    """points/rank/pass for `verify-lambda`, m/rank/pass for `independence`."""
    if fmt == "json":
        res = json.loads(text)["result"]
        key = "points" if command == "verify-lambda" else "m"
        rank = res["gram_rank"] if command == "verify-lambda" else res["rank"]
        return {"size": res[key], "rank": rank, "pass": res["pass"]}
    if fmt == "csv":
        f = text.splitlines()[-1].split(",")
        if command == "verify-lambda":
            return {"size": int(f[1]), "rank": int(f[8]), "pass": f[9] == "true"}
        return {"size": int(f[1]), "rank": int(f[2]), "pass": f[4] == "true"}
    lines = text.splitlines()
    if command == "verify-lambda":
        size = int(lines[0].split(": ")[1].split()[0])
        rank = int(lines[4].rsplit("rank=", 1)[1])
    else:
        size = int(lines[1].split("m = ")[1].split()[0])
        rank = int(lines[2].split("measured rank ")[1].split(",")[0])
    return {"size": size, "rank": rank, "pass": lines[-1] == "PASS"}


# --- checks -----------------------------------------------------------------


def check_table_rows(rows: list[dict], n_min: int, n_max: int, expected: dict) -> list[str]:
    """Rows n_min..n_max against the reference (omega_hat, k_star), rho and g_upper."""
    problems = []
    if [r["n"] for r in rows] != list(range(n_min, n_max + 1)):
        return [f"rows cover n={[r['n'] for r in rows]}, want {n_min}..{n_max}"]
    for r in rows:
        n = r["n"]
        rho = n * (n + 1) // 2
        want = expected[n]
        got = (r["omega_hat"], r["k_star"])
        if got != want:
            problems.append(f"n={n}: (omega_hat, k_star) = {got}, want {want}")
        if r["rho"] != rho or r["g_upper"] != max(r["omega_hat"], rho) or not r["conclusive"]:
            problems.append(f"n={n}: rho/g_upper/conclusive = {r['rho']}/{r['g_upper']}/{r['conclusive']}")
    return problems


def check_table_text(text: str, fmt: str, n_min: int, n_max: int, expected: dict) -> list[str]:
    try:
        rows = parse_table(text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable table output: {exc!r}"]
    return check_table_rows(rows, n_min, n_max, expected)


def is_known_defect(op, text: str, expected: dict) -> bool:
    """True for the one documented defect: a single-row n = 22 table whose grid
    misses a = 1/6 and which floors that row to 274, with everything else right."""
    if op.kind != "row" or op.n != DEFECT_N or (op.grid - 1) % 16 == 0:
        return False
    try:
        rows = parse_table(text, op.fmt)
    except (ValueError, KeyError, IndexError):
        return False
    if len(rows) != 1 or rows[0]["omega_hat"] != DEFECT_VALUE:
        return False
    want = expected[DEFECT_N][0]
    patched = [{**rows[0], "omega_hat": want, "g_upper": max(want, rows[0]["rho"])}]
    return not check_table_rows(patched, DEFECT_N, DEFECT_N, expected)
