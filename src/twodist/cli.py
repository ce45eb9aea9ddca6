"""Command-line front end.

Subcommands: table, profile, bound, verify-lambda, independence,
delsarte-check.  Output formats: csv (comment-row provenance, exact headers),
json (meta object + rows/samples), pretty.  Exit codes: 0 success, 1 usage
error, 2 verification failure, 3 inconclusive bound under --strict.
All output is deterministic for fixed flags.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import __version__
from .bound_polys import (
    CANDIDATE_INDICES,
    DEFAULT_TOL,
    InnerProductPair,
    best_bound,
    build_candidate,
    delsarte_check,
)
from .gegenbauer import GegenbauerExpansion
from .constructions import (
    DEFAULT_SEED,
    gram_check,
    independence_rank,
    lambda_params,
    lambda_set,
    verify_two_distance,
)
from .lrs import k_max, profile, table

TABLE_HEADER = "n,omega_hat,rho,k_star,g_upper,conclusive"
PROFILE_HEADER = "a,q,winning_i"
MAX_TABLE_N = 60
# The window sweep needs no grid, so --grid changes no result; it is accepted
# and echoed in provenance so that existing command lines keep working.
DEFAULT_GRID = 20001


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _fmt_real(x: float, precision: int) -> str:
    if math.isinf(x):
        return "inf"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.{precision}g}"


def _json_real(x: float, precision: int):
    if math.isinf(x):
        return "inf"
    if x == int(x) and abs(x) < 1e15:
        return int(x)
    return float(f"{x:.{precision}g}")


def _provenance(args: argparse.Namespace, fields: list[str]) -> str:
    parts = [f"twodist {__version__}", f"command={args.command}"]
    for name in fields:
        parts.append(f"{name}={getattr(args, name)}")
    parts += [
        f"grid={args.grid}",
        f"tol={args.tol}",
        f"seed={args.seed}",
        f"precision={args.precision}",
        f"strict={str(args.strict).lower()}",
    ]
    return " ".join(parts)


def _meta(args: argparse.Namespace, fields: list[str]) -> dict:
    opts = {name: getattr(args, name) for name in fields}
    opts.update(
        grid=args.grid, tol=args.tol, seed=args.seed,
        precision=args.precision, strict=args.strict,
    )
    return {"tool": "twodist", "version": __version__, "command": args.command, "options": opts}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", out)


def cmd_table(args: argparse.Namespace) -> int:
    if not 7 <= args.n_min <= args.n_max <= MAX_TABLE_N:
        raise UsageError(
            f"need 7 <= n-min <= n-max <= {MAX_TABLE_N}, got {args.n_min}..{args.n_max}"
        )
    rows = table(args.n_min, args.n_max, tol=args.tol)
    p = args.precision
    if args.format == "csv":
        lines = [f"# {_provenance(args, ['n_min', 'n_max'])}", TABLE_HEADER]
        for r in rows:
            lines.append(
                f"{r.n},{_fmt_real(r.omega_hat, p)},{r.rho},{r.k_star},"
                f"{_fmt_real(r.g_upper, p)},{str(r.conclusive).lower()}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "json":
        payload = {
            "meta": _meta(args, ["n_min", "n_max"]),
            "rows": [
                {
                    "n": r.n,
                    "omega_hat": _json_real(r.omega_hat, p),
                    "rho": r.rho,
                    "k_star": r.k_star,
                    "g_upper": _json_real(r.g_upper, p),
                    "conclusive": r.conclusive,
                }
                for r in rows
            ],
        }
        _emit_json(payload, args.out)
    else:
        lines = [f"{'n':>4} {'omega_hat':>10} {'rho':>6} {'k':>3} {'g_upper':>8}  conclusive"]
        for r in rows:
            lines.append(
                f"{r.n:>4} {_fmt_real(r.omega_hat, p):>10} {r.rho:>6} {r.k_star:>3} "
                f"{_fmt_real(r.g_upper, p):>8}  {str(r.conclusive).lower()}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    if args.strict and any(not r.conclusive for r in rows):
        return 3
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.n < 4:
        raise UsageError(f"profile requires n >= 4, got {args.n}")
    top = k_max(args.n)
    if not 2 <= args.k <= top:
        raise UsageError(f"k={args.k} outside the sweep range: K~({args.n}) = {top}")
    if args.samples < 2:
        raise UsageError(f"need at least 2 samples, got {args.samples}")
    samples = profile(args.n, args.k, args.samples, tol=args.tol)
    p = args.precision
    if args.format == "csv":
        lines = [f"# {_provenance(args, ['n', 'k', 'samples'])}", PROFILE_HEADER]
        for s in samples:
            win = str(s.winning[0]) if s.winning else ""
            lines.append(f"{_fmt_real(s.a, p)},{_fmt_real(s.q, p)},{win}")
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "json":
        payload = {
            "meta": _meta(args, ["n", "k", "samples"]),
            "samples": [
                {
                    "a": _json_real(s.a, p),
                    "q": _json_real(s.q, p),
                    "winning_i": (s.winning[0] if s.winning else None),
                }
                for s in samples
            ],
        }
        _emit_json(payload, args.out)
    else:
        lines = [f"{'a':>22} {'q':>18} winner"]
        for s in samples:
            win = str(s.winning[0]) if s.winning else "-"
            lines.append(f"{_fmt_real(s.a, p):>22} {_fmt_real(s.q, p):>18} {win}")
        _emit("\n".join(lines) + "\n", args.out)
    if args.strict and any(math.isinf(s.q) for s in samples):
        return 3
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    try:
        pair = InnerProductPair(args.n, args.a, args.b)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cands = [build_candidate(i, pair, tol=args.tol) for i in CANDIDATE_INDICES]
    value, winning = best_bound(pair, tol=args.tol)
    p = args.precision

    def fopt(x):
        return _fmt_real(x, p) if x is not None else ""

    if args.format == "csv":
        lines = [f"# {_provenance(args, ['n', 'a', 'b'])}", "i,in_domain,c,d,value,f0,f1,f2,f3,f4"]
        for cand in cands:
            f = list(cand.expansion.coeffs) if cand.expansion is not None else []
            f += [None] * (5 - len(f))
            lines.append(
                f"{cand.index},{str(cand.in_domain).lower()},{fopt(cand.c)},{fopt(cand.d)},"
                f"{_fmt_real(cand.value, p)},{','.join(fopt(x) for x in f)}"
            )
        lines.append(f"# best={_fmt_real(value, p)} winning={'/'.join(map(str, winning))}")
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "json":
        payload = {
            "meta": _meta(args, ["n", "a", "b"]),
            "rows": [
                {
                    "i": cand.index,
                    "in_domain": cand.in_domain,
                    "c": (_json_real(cand.c, p) if cand.c is not None else None),
                    "d": (_json_real(cand.d, p) if cand.d is not None else None),
                    "f": (
                        [_json_real(x, p) for x in cand.expansion.coeffs]
                        if cand.expansion is not None
                        else None
                    ),
                    "value": _json_real(cand.value, p),
                }
                for cand in cands
            ],
            "best": {"value": _json_real(value, p), "winning": list(winning)},
        }
        _emit_json(payload, args.out)
    else:
        lines = [f"candidate bounds for n={args.n}, a={_fmt_real(args.a, p)}, b={_fmt_real(args.b, p)}"]
        for cand in cands:
            if cand.expansion is None:
                lines.append(f"  i={cand.index}: construction undefined")
                continue
            extra = ""
            if cand.c is not None:
                extra += f" c={_fmt_real(cand.c, p)}"
            if cand.d is not None:
                extra += f" d={_fmt_real(cand.d, p)}"
            fstr = ", ".join(_fmt_real(x, p) for x in cand.expansion.coeffs)
            lines.append(
                f"  i={cand.index}: in_domain={str(cand.in_domain).lower()}{extra} "
                f"f=[{fstr}] value={_fmt_real(cand.value, p)}"
            )
        if winning:
            lines.append(f"best bound: {_fmt_real(value, p)} attained by i={'/'.join(map(str, winning))}")
        else:
            lines.append("best bound: inf (no candidate in domain)")
        _emit("\n".join(lines) + "\n", args.out)
    if args.strict and math.isinf(value):
        return 3
    return 0


def cmd_verify_lambda(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise UsageError(f"verify-lambda requires n >= 2, got {args.n}")
    n = args.n
    s = lambda_set(n)
    cert = verify_two_distance(s)
    psd, rank = gram_check(s)
    a_exp, b_exp = lambda_params(n)
    m_expected = n * (n + 1) // 2
    if n == 2:
        # Degenerate case: the three midpoints form an equilateral triangle.
        ok = (
            len(s) == 3
            and not cert.valid
            and cert.diagnostic is not None
            and cert.diagnostic.startswith("one-distance")
            and abs(cert.a - a_exp) < 1e-9
            and psd
        )
        passed = ok
    else:
        passed = (
            len(s) == m_expected
            and cert.valid
            and abs(cert.a - a_exp) < 1e-9
            and abs(cert.b - b_exp) < 1e-9
            and psd
            and rank == n
        )
    p = args.precision
    report = {
        "n": n,
        "points": len(s),
        "expected_points": m_expected,
        "a": cert.a,
        "b": cert.b,
        "expected_a": a_exp,
        "expected_b": b_exp,
        "pair_counts": list(cert.pair_counts),
        "two_distance": cert.valid,
        "diagnostic": cert.diagnostic,
        "gram_psd": psd,
        "gram_rank": rank,
        "pass": passed,
    }
    if args.format == "csv":
        header = "n,points,a,b,count_a,count_b,two_distance,gram_psd,gram_rank,pass"
        row = (
            f"{n},{len(s)},{_fmt_real(cert.a, p)},{_fmt_real(cert.b, p)},"
            f"{cert.pair_counts[0]},{cert.pair_counts[1]},{str(cert.valid).lower()},"
            f"{str(psd).lower()},{rank},{str(passed).lower()}"
        )
        _emit("\n".join([f"# {_provenance(args, ['n'])}", header, row]) + "\n", args.out)
    elif args.format == "json":
        for key in ("a", "b", "expected_a", "expected_b"):
            report[key] = _json_real(report[key], p)
        _emit_json({"meta": _meta(args, ["n"]), "result": report}, args.out)
    else:
        lines = [
            f"midpoint set in R^{n}: {len(s)} points (expected {m_expected})",
            f"  inner products: a={_fmt_real(cert.a, p)} (x{cert.pair_counts[0]}), "
            f"b={_fmt_real(cert.b, p)} (x{cert.pair_counts[1]})",
            f"  expected:       a={_fmt_real(a_exp, p)}, b={_fmt_real(b_exp, p)}",
            f"  two-distance: {str(cert.valid).lower()}"
            + (f" ({cert.diagnostic})" if cert.diagnostic else ""),
            f"  gram: psd={str(psd).lower()} rank={rank}",
            ("PASS" if passed else ("INFO: degenerate one-distance case" if n == 2 else "FAIL")),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    if n == 2:
        return 0
    return 0 if passed else 2


def cmd_independence(args: argparse.Namespace) -> int:
    if args.n < 7:
        raise UsageError(
            f"independence requires n >= 7 (a + b >= 0 for the midpoint set), got {args.n}"
        )
    n = args.n
    s = lambda_set(n)
    a, b = lambda_params(n)
    rank = independence_rank(s, a, b, seed=args.seed)
    m = len(s)
    expected = m + n
    passed = rank == expected
    if args.format == "csv":
        header = "n,m,rank,expected,pass"
        row = f"{n},{m},{rank},{expected},{str(passed).lower()}"
        _emit("\n".join([f"# {_provenance(args, ['n'])}", header, row]) + "\n", args.out)
    elif args.format == "json":
        payload = {
            "meta": _meta(args, ["n"]),
            "result": {"n": n, "m": m, "rank": rank, "expected": expected, "pass": passed},
        }
        _emit_json(payload, args.out)
    else:
        lines = [
            f"independence check for the midpoint set in R^{n}",
            f"  m = {m} quadratic functions + {n} coordinate functionals",
            f"  measured rank {rank}, expected {expected}",
            "PASS" if passed else "FAIL",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed else 2


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"could not parse {what} as comma-separated reals: {text!r}") from exc
    if not all(math.isfinite(x) for x in values):
        raise UsageError(f"{what} must be finite reals, got {text!r}")
    return values


def cmd_delsarte_check(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise UsageError(f"delsarte-check requires n >= 2, got {args.n}")
    coeffs = _parse_floats(args.coeffs, "--coeffs")
    t_values = _parse_floats(args.t_values, "--t-values")
    if not coeffs:
        raise UsageError("--coeffs must contain at least one coefficient")
    expansion = GegenbauerExpansion(args.n, coeffs)
    result = delsarte_check(expansion, t_values, tol=args.tol)
    p = args.precision
    if args.format == "csv":
        header = "bound,ok,violation"
        row = (
            f"{result.bound if result.bound is not None else ''},"
            f"{str(result.ok).lower()},{result.violation or ''}"
        )
        _emit("\n".join([f"# {_provenance(args, ['n'])}", header, row]) + "\n", args.out)
    elif args.format == "json":
        payload = {
            "meta": _meta(args, ["n"]),
            "result": {"bound": result.bound, "ok": result.ok, "violation": result.violation},
        }
        _emit_json(payload, args.out)
    else:
        if result.ok:
            _emit(f"certificate accepted: cardinality bound {result.bound}\n", args.out)
        else:
            _emit(f"certificate rejected: {result.violation}\n", args.out)
    return 0 if result.ok else 2


_COMMANDS = {
    "table": cmd_table,
    "profile": cmd_profile,
    "bound": cmd_bound,
    "verify-lambda": cmd_verify_lambda,
    "independence": cmd_independence,
    "delsarte-check": cmd_delsarte_check,
}


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="sign-check tolerance")
    common.add_argument(
        "--grid", type=int, default=DEFAULT_GRID,
        help="accepted for compatibility and echoed in provenance; no longer changes results",
    )
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed for random unit vectors")
    common.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty")
    common.add_argument("--precision", type=int, default=12, help="significant digits for reals")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--strict", action="store_true", help="exit 3 on any inconclusive bound")

    parser = _Parser(prog="twodist", description="Two-distance set bounds and constructions")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    t = sub.add_parser("table", parents=[common], help="bound table over a dimension range")
    t.add_argument("--n-min", type=int, required=True, dest="n_min")
    t.add_argument("--n-max", type=int, required=True, dest="n_max")

    pr = sub.add_parser("profile", parents=[common], help="bound curve samples over one (n, k) window")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--samples", type=int, default=1001)

    b = sub.add_parser("bound", parents=[common], help="candidate bounds for one pair (a, b)")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--a", type=float, required=True)
    b.add_argument("--b", type=float, required=True)

    v = sub.add_parser("verify-lambda", parents=[common], help="certify the midpoint construction")
    v.add_argument("--n", type=int, required=True)

    ind = sub.add_parser("independence", parents=[common], help="harmonic-independence rank check")
    ind.add_argument("--n", type=int, required=True)

    dc = sub.add_parser("delsarte-check", parents=[common], help="check an explicit expansion")
    dc.add_argument("--n", type=int, required=True)
    dc.add_argument("--coeffs", required=True, help="comma-separated Gegenbauer coefficients f_0,f_1,...")
    dc.add_argument("--t-values", required=True, dest="t_values", help="comma-separated inner products")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes "-0.25,0.1" or "-1e-3" for an option name, not a value:
    # attach such a value to the option before it, as "--t-values=-0.25,0.1".
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and "=" not in argv[i - 1] and re.match(r"-\.?\d", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
        if not math.isfinite(args.tol):
            raise UsageError(f"--tol must be a finite real, got {args.tol}")
        if args.precision < 0:
            raise UsageError(f"--precision must be >= 0, got {args.precision}")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())
