"""Command-line front end.

Subcommands: table, profile, bound, verify-lambda, independence,
delsarte-check.  Each takes only the options it reads (listed in _COMMANDS);
any other option is a usage error.  table's --grid, --tol and --seed change
no result and are kept so that existing command lines keep working;
independence takes no --seed, as its test points come from one fixed seed
(constructions.TEST_POINT_SEED).

Output formats: csv (comment-row provenance, exact headers), json (meta
object + rows, samples or result, and best for bound), pretty.  The
provenance row and meta.options echo every option the command took, as
parsed, except --format and --out.  Exit codes: 0 success, 1 usage error
(including an input too large for memory and an --out path that cannot be
written), 2 verification failure, 3 inconclusive bound under --strict.  All
output is deterministic for fixed flags.

main parses argv in one argparse pass: argv that starts with a command name
goes straight to that command's subparser, with the name already in the
namespace, which is all the top-level parser would add.  Anything else (no
command, an unknown one, options before it) goes through the top-level
parser, so namespaces, usage errors and help read as they would there.

Each command computes its result once and returns a _Report that holds its
records as columns; _render turns it into the one format asked for, column
by column.  A column of reals long enough to matter (profile's a and q) is a
float array, written in one %-format pass; numpy picks out the few values
whose text that pass would get wrong (whole, non-finite and, in JSON, those
whose repr differs from their rounded text), and only those go value by
value (_texts).  Each CSV row is then one join of its texts, and each
pretty line and JSON object one template filled with them.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import re
import shlex
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from . import __version__
from .bound_polys import (
    _WINNERS, DEFAULT_TOL, MAX_TOL, InnerProductPair, best_of, candidates, check_tol, delsarte_check,
)
from .gegenbauer import GegenbauerExpansion
from .constructions import gram_check, independence_rank, lambda_params, lambda_set, verify_two_distance

MAX_TABLE_N = 60
# The window sweep needs no grid and draws nothing at random, so table's
# --grid and --seed change no result; they are accepted and echoed in
# provenance so that existing command lines keep working, and so that the
# "#" line of bench/table_7_40.csv stays what table prints.
DEFAULT_GRID = 20001
DEFAULT_SEED = 42
_INERT_HELP = "accepted for compatibility and echoed in provenance; no longer changes results"
# verify-lambda's cluster centers are means of computed Gram entries and lie
# within 3e-16 of the exact (a, b) for n = 3..60; a and b move by at least
# 2.8e-4 from one n to the next, so this admits rounding and nothing else.
CENTER_TOL = 1e-9
# Namespace entries left out of provenance: the subcommand's name, and the
# options that only direct the output.
_NOT_ECHOED = ("command", "format", "out")
# Kinds of list column that _texts converts in one pass: ints with None and,
# in JSON, lists with None.  A column of reals comes as a float array.
_NONE = type(None)
_INTS = frozenset((int, _NONE))
_LISTS = frozenset((list, _NONE))
# The smallest normal double: below it a double holds fewer than 15 digits,
# so a text of p <= 15 digits need not be the repr of the double it reads as.
_SMALLEST_NORMAL = sys.float_info.min


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


@dataclass
class _Report:
    """One command's result; columns and pretty lines are built on demand."""

    key: str  # JSON key of the records: rows, samples or result (one record)
    columns: Callable[[], dict[str, Sequence]]  # the records as one column of raw values per field
    pretty: Callable[[], list[str]]
    code: int = 0
    csv: Callable[[], dict[str, Sequence]] | None = None  # CSV columns, where they differ
    best: dict | None = None  # JSON "best" and the CSV "# best=" trailer


def _columns(records: list[dict]) -> dict[str, tuple]:
    """Records that share their keys, as one tuple of values per key."""
    return dict(zip(records[0], zip(*map(dict.values, records))))


def _fmt(x, p: int) -> str:
    """A scalar as CSV or pretty text; reals to p significant digits, whole reals bare."""
    if isinstance(x, float):
        if x.is_integer() and abs(x) < 1e15:
            return str(int(x))
        return "inf" if math.isinf(x) else f"{x:.{p}g}"
    if isinstance(x, bool):
        return str(x).lower()
    if x is None:
        return ""
    if isinstance(x, (list, tuple)):
        return "/".join(_fmt(v, p) for v in x)
    return str(x)


def _json_text(x, p: int, indent: int) -> str:
    """x as json.dumps(payload, indent=2) writes it at the given indent (in
    spaces), once its reals are rounded as _fmt rounds them: whole reals
    below 1e15 as integers, others to p significant digits, +-inf as "inf"."""
    if isinstance(x, float):
        if x.is_integer() and abs(x) < 1e15:
            return str(int(x))
        return '"inf"' if math.isinf(x) else _json_scalar(float(f"{x:.{p}g}"))
    if isinstance(x, list):
        return _json_lists([x], p, indent)[0]
    return _json_scalar(x)


def _json_scalar(x) -> str:
    """x, a str, int, bool, real or None, as json.dumps writes it."""
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)  # a string, or a real written as NaN, Infinity or -Infinity


def _texts(values: Sequence, p: int, indent: int | None = None) -> list[str]:
    """Each value of a column as _fmt prints it or, given a JSON indent, as
    _json_text writes it.

    A float array (profile's a and q) takes _real_texts' one %-format
    pass.  A column of one value (every column of a one-record command)
    goes straight to _fmt or _json_text, with no type scan and no list
    built.  A column of ints is converted by str in one pass, and one of
    ints and None once per distinct value.  In JSON, the items of a column
    of lists (and None) go through one call for all the lists.  Any other
    column goes value by value: the ones that reach here are short (bound's
    five candidates, table's rows), where a value costs less than numpy's
    fixed cost per array."""
    if isinstance(values, np.ndarray):
        return _real_texts(values, p, indent)
    if len(values) == 1:
        return [_fmt(values[0], p) if indent is None else _json_text(values[0], p, indent)]
    kinds = set(map(type, values))
    if kinds <= _INTS:
        if _NONE not in kinds:
            return list(map(str, values))
        text = {v: _fmt(v, p) if indent is None else _json_scalar(v) for v in set(values)}
        return list(map(text.__getitem__, values))
    if indent is None:
        return [_fmt(v, p) for v in values]
    if kinds <= _LISTS:
        return _json_lists(values, p, indent)
    return [_json_text(v, p, indent) for v in values]


def _real_texts(values: np.ndarray, p: int, indent: int | None) -> list[str]:
    """_texts of a float array, from one %.{p}g pass over all values.

    That text is what _fmt prints for a finite real that is not whole.  In
    JSON at p <= 15 it is also what _json_text writes, repr(float(text)),
    for a normal double whose text holds a "." or an "e" and no "e+": a
    decimal of at most 15 digits reads back from the double nearest it,
    and repr switches to exponents at 1e16, where %g does at 10^p.  numpy
    finds the values for which that fails, and only those go value by
    value, through _fmt or _json_text:
    - whole reals (-0.0 among them), printed bare, and non-finite ones
      (-inf prints as "inf");
    - in JSON, every value at a precision above 15, and subnormal values;
    - in JSON, values whose text has no "." and no "e" (a real that rounds
      to a whole number, where repr adds ".0") or has "e+".  Those texts
      are read only for values near enough to a whole number for rounding
      to p digits to make them one; numpy picks those out."""
    floats = values.tolist()
    if indent is not None and p > 15:
        return [_json_text(v, p, indent) for v in floats]
    texts = list(map(f"%.{p}g".__mod__, floats))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and 10 * 1.7e308 at p = 0
        odd = (values == np.trunc(values)) | ~np.isfinite(values)
        if indent is not None:
            size = np.abs(values)
            odd |= size < _SMALLEST_NORMAL
            # Rounding v to p digits moves it by at most 0.5 * 10^(1 - p) * |v|.
            near = np.abs(values - np.rint(values)) <= 10.0 ** (1 - p) * size
            for i in np.flatnonzero(near & ~odd).tolist():
                t = texts[i]
                odd[i] = "e+" in t or "." not in t and "e" not in t
    for i in np.flatnonzero(odd).tolist():
        texts[i] = _fmt(floats[i], p) if indent is None else _json_text(floats[i], p, indent)
    return texts


def _json_lists(values: Sequence, p: int, indent: int) -> list[str]:
    """Each value of a column of lists and None as json.dumps(payload,
    indent=2) writes it at the given indent; the items of all the lists go
    through one _texts call."""
    items = iter(_texts([*chain.from_iterable(filter(None, values))], p, indent + 2))
    pad = "\n" + " " * (indent + 2)
    return [
        "null" if v is None else "[]" if not v
        else "[" + pad + ("," + pad).join(islice(items, len(v))) + "\n" + " " * indent + "]"
        for v in values
    ]


@functools.lru_cache(maxsize=64)
def _object_template(keys: tuple[str, ...], indent: int) -> tuple[str, ...]:
    """A JSON object with these keys as json.dumps(payload, indent=2) writes
    it, its closing brace at the given indent, as the len(keys) + 1 pieces
    of text around its values.  The keys are fixed by the code, so each
    command's templates are built once."""
    pad = "\n" + " " * (indent + 2)
    heads = ["{" + pad, *repeat("," + pad, len(keys) - 1)]
    return (*(h + json.dumps(k) + ": " for h, k in zip(heads, keys)), "\n" + " " * indent + "}")


def _json_object(fields: dict[str, str], indent: int) -> str:
    """An object of encoded values as json.dumps(payload, indent=2) writes
    it, its closing brace at the given indent."""
    pieces = _object_template(tuple(fields), indent)
    return "".join([*chain.from_iterable(zip(pieces, fields.values())), pieces[-1]])


def _json_objects(columns: dict[str, Sequence], p: int, indent: int) -> list[str]:
    """Each record of the columns as json.dumps(payload, indent=2) writes an
    object whose closing brace sits at the given indent; every value is
    encoded once, column by column, and each record is its template's
    pieces joined with its values."""
    *heads, tail = map(repeat, _object_template(tuple(columns), indent))
    texts = [_texts(v, p, indent + 2) for v in columns.values()]
    return list(map("".join, zip(*chain.from_iterable(zip(heads, texts)), tail)))


def _render(args: argparse.Namespace, report: _Report) -> str:
    """The report in the asked format.  JSON is byte for byte
    json.dumps(payload, indent=2) of the payload {meta, records, best},
    with reals rounded as _json_text says; it is written without the
    json encoder, from templates of its objects and values encoded column
    by column.  Each column is converted once by _texts (one pass for a
    float array, with only its odd values going value by value; a column
    of one value straight through _fmt or _json_text), and each record is
    one CSV join or one JSON object template filled with its texts."""
    p = args.precision
    # The namespace holds exactly the options the subcommand declares, in
    # declaration order.
    options = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    if args.format == "json":
        meta = {"tool": "twodist", "version": __version__, "command": args.command}
        meta = {k: _json_scalar(v) for k, v in meta.items()}
        meta["options"] = _json_object({k: _json_scalar(v) for k, v in options.items()}, 4)
        payload = {"meta": _json_object(meta, 2)}
        if report.key == "result":
            record = {k: _json_text(v[0], p, 4) for k, v in report.columns().items()}
            payload["result"] = _json_object(record, 2)
        else:
            payload[report.key] = "[\n    " + ",\n    ".join(_json_objects(report.columns(), p, 4)) + "\n  ]"
        if report.best is not None:
            payload["best"] = _json_object({k: _json_text(v, p, 4) for k, v in report.best.items()}, 2)
        return _json_object(payload, 0) + "\n"
    if args.format == "csv":
        columns = (report.csv or report.columns)()
        # Quoted as a shell would need, so that "--coeffs '1, 0, 1'" stays one field.
        echo = " ".join(
            f"{k}={shlex.quote(str(v).lower() if isinstance(v, bool) else str(v))}" for k, v in options.items()
        )
        lines = [f"# twodist {__version__} command={args.command} {echo}", ",".join(columns)]
        lines += map(",".join, zip(*(_texts(v, p) for v in columns.values())))
        if report.best is not None:
            best = report.best
            lines.append(f"# best={_fmt(best['value'], p)} winning={_fmt(best['winning'], p)}")
    else:
        lines = report.pretty()
    return "\n".join(lines) + "\n"


def cmd_table(args: argparse.Namespace) -> _Report:
    from .lrs import table

    if not 7 <= args.n_min <= args.n_max <= MAX_TABLE_N:
        raise UsageError(
            f"need 7 <= n-min <= n-max <= {MAX_TABLE_N}, got {args.n_min}..{args.n_max}"
        )
    rows = table(args.n_min, args.n_max)
    p = args.precision

    def pretty():
        lines = [f"{'n':>4} {'omega_hat':>10} {'rho':>6} {'k':>3} {'g_upper':>8}  conclusive"]
        for r in rows:
            lines.append(
                f"{r.n:>4} {_fmt(r.omega_hat, p):>10} {r.rho:>6} {r.k_star:>3} "
                f"{_fmt(r.g_upper, p):>8}  {_fmt(r.conclusive, p)}"
            )
        return lines

    code = 3 if args.strict and any(not r.conclusive for r in rows) else 0
    return _Report("rows", lambda: _columns(list(map(vars, rows))), pretty, code)


def cmd_profile(args: argparse.Namespace) -> _Report:
    from .lrs import _profile_columns

    a, q, masks = _profile_columns(args.n, args.k, args.samples, args.tol)
    p = args.precision
    # The first winner of each winner mask, None (pretty "-") where none wins.
    first = [w[0] if w else None for w in _WINNERS]

    def columns():
        return {"a": a, "q": q, "winning_i": np.array(first, dtype=object)[masks].tolist()}

    def pretty():
        win = np.array(["-" if w is None else str(w) for w in first], dtype=object)[masks].tolist()
        rows = map("%22s %18s %s".__mod__, zip(_texts(a, p), _texts(q, p), win))
        return [f"{'a':>22} {'q':>18} winner", *rows]

    code = 3 if args.strict and np.isinf(q).any() else 0
    return _Report("samples", columns, pretty, code)


def cmd_bound(args: argparse.Namespace) -> _Report:
    pair = InnerProductPair(args.n, args.a, args.b)
    cands = candidates(pair, tol=args.tol)
    i, in_domain, c, d, values = zip(*map(operator.attrgetter("index", "in_domain", "c", "d", "value"), cands))
    f = [None if cand.expansion is None else cand.expansion.coeffs.tolist() for cand in cands]
    value, winning = best_of(values)
    p = args.precision

    def columns():
        return {"i": i, "in_domain": in_domain, "c": c, "d": d, "f": f, "value": values}

    def csv():
        # One column per expansion slot, empty past a candidate's degree.
        rows = [x or [] for x in f]
        slots = dict(zip(("f0", "f1", "f2", "f3", "f4"), zip(*[x + [None] * (5 - len(x)) for x in rows])))
        return {"i": i, "in_domain": in_domain, "c": c, "d": d, "value": values, **slots}

    def pretty():
        lines = [f"candidate bounds for n={args.n}, a={_fmt(args.a, p)}, b={_fmt(args.b, p)}"]
        for cand in cands:
            if cand.expansion is None:
                lines.append(f"  i={cand.index}: construction undefined")
                continue
            extra = "".join(f" {k}={_fmt(x, p)}" for k, x in zip("cd", (cand.c, cand.d)) if x is not None)
            fstr = ", ".join(_fmt(x, p) for x in cand.expansion.coeffs)
            lines.append(
                f"  i={cand.index}: in_domain={_fmt(cand.in_domain, p)}{extra} "
                f"f=[{fstr}] value={_fmt(cand.value, p)}"
            )
        if winning:
            lines.append(f"best bound: {_fmt(value, p)} attained by i={_fmt(winning, p)}")
        else:
            lines.append("best bound: inf (no candidate in domain)")
        return lines

    code = 3 if args.strict and math.isinf(value) else 0
    best = {"value": value, "winning": list(winning)}
    return _Report("rows", columns, pretty, code, csv=csv, best=best)


def cmd_verify_lambda(args: argparse.Namespace) -> _Report:
    n = args.n
    s = lambda_set(n)
    cert = verify_two_distance(s)
    psd, rank = gram_check(s)
    a_exp, b_exp = lambda_params(n)
    m_expected = n * (n + 1) // 2
    if n == 2:  # degenerate: the three midpoints form an equilateral triangle
        shape = not cert.valid and (cert.diagnostic or "").startswith("one-distance")
    else:
        shape = cert.valid and abs(cert.b - b_exp) < CENTER_TOL and rank == n
    passed = len(s) == m_expected and abs(cert.a - a_exp) < CENTER_TOL and psd and shape
    result = {
        "n": n, "points": len(s), "expected_points": m_expected, "a": cert.a, "b": cert.b,
        "expected_a": a_exp, "expected_b": b_exp, "pair_counts": list(cert.pair_counts),
        "two_distance": cert.valid, "diagnostic": cert.diagnostic, "gram_psd": psd,
        "gram_rank": rank, "pass": passed,
    }
    count_a, count_b = cert.pair_counts
    row = {
        "n": n, "points": len(s), "a": cert.a, "b": cert.b, "count_a": count_a, "count_b": count_b,
        "two_distance": cert.valid, "gram_psd": psd, "gram_rank": rank, "pass": passed,
    }
    p = args.precision

    def pretty():
        return [
            f"midpoint set in R^{n}: {len(s)} points (expected {m_expected})",
            f"  inner products: a={_fmt(cert.a, p)} (x{count_a}), "
            f"b={_fmt(cert.b, p)} (x{count_b})",
            f"  expected:       a={_fmt(a_exp, p)}, b={_fmt(b_exp, p)}",
            f"  two-distance: {_fmt(cert.valid, p)}"
            + (f" ({cert.diagnostic})" if cert.diagnostic else ""),
            f"  gram: psd={_fmt(psd, p)} rank={rank}",
            ("PASS" if passed else ("INFO: degenerate one-distance case" if n == 2 else "FAIL")),
        ]

    code = 0 if passed or n == 2 else 2
    return _Report("result", lambda: _columns([result]), pretty, code, csv=lambda: _columns([row]))


def cmd_independence(args: argparse.Namespace) -> _Report:
    if args.n < 7:
        raise UsageError(f"independence requires n >= 7 (a + b >= 0 for the midpoint set), got {args.n}")
    n = args.n
    s = lambda_set(n)
    rank = independence_rank(s, *lambda_params(n))
    m = len(s)
    result = {"n": n, "m": m, "rank": rank, "expected": m + n, "pass": rank == m + n}

    def pretty():
        return [
            f"independence check for the midpoint set in R^{n}",
            f"  m = {m} quadratic functions + {n} coordinate functionals",
            f"  measured rank {rank}, expected {m + n}",
            "PASS" if result["pass"] else "FAIL",
        ]

    return _Report("result", lambda: _columns([result]), pretty, 0 if result["pass"] else 2)


def _parse_floats(text: str, what: str) -> list[float]:
    """Comma-separated reals.  Empty fields at the end (a trailing comma) are
    ignored; an empty field with a value after it is an error, as 1,,2 would
    otherwise read as 1,2 and not as the 1,0,2 it looks like."""
    fields = text.split(",")
    while fields and not fields[-1].strip():
        fields.pop()
    try:
        values = [float(tok) for tok in fields]
    except ValueError as exc:
        raise UsageError(f"could not parse {what} as comma-separated reals: {text!r}") from exc
    if not all(math.isfinite(x) for x in values):
        raise UsageError(f"{what} must be finite reals, got {text!r}")
    return values


def cmd_delsarte_check(args: argparse.Namespace) -> _Report:
    coeffs = _parse_floats(args.coeffs, "--coeffs")
    t_values = _parse_floats(args.t_values, "--t-values")
    if not coeffs:
        raise UsageError("--coeffs must contain at least one coefficient")
    res = delsarte_check(GegenbauerExpansion(args.n, coeffs), t_values, tol=args.tol)
    result = {"bound": res.bound, "ok": res.ok, "violation": res.violation}
    verdict = f"accepted: cardinality bound {res.bound}" if res.ok else f"rejected: {res.violation}"
    code = 0 if res.ok else 2
    return _Report("result", lambda: _columns([result]), lambda: [f"certificate {verdict}"], code)


def _tolerance(text: str) -> float:
    """--tol: a real in the range check_tol accepts."""
    try:
        x = float(text)
        check_tol(x)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return x


def _precision(text: str) -> int:
    """--precision: a digit count that _fmt's f"{x:.{p}g}" accepts (0 to 2**31 - 1 in CPython)."""
    try:
        p = int(text)
        format(0.5, f".{p}g")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a count of significant digits that float formatting accepts, got {text!r}"
        ) from None
    return p


# add_argument keywords of every option; build_parser adds to each
# subcommand the ones it takes.
_OPTIONS = {
    "--n": dict(type=int, required=True),
    "--n-min": dict(type=int, required=True),
    "--n-max": dict(type=int, required=True),
    "--grid": dict(type=int, default=DEFAULT_GRID, help=_INERT_HELP),
    "--k": dict(type=int, required=True),
    "--samples": dict(type=int, default=1001),
    "--a": dict(type=float, required=True),
    "--b": dict(type=float, required=True),
    "--coeffs": dict(required=True, help="comma-separated Gegenbauer coefficients f_0,f_1,..."),
    "--t-values": dict(required=True, help="comma-separated inner products"),
    "--tol": dict(type=_tolerance, default=DEFAULT_TOL, help=f"sign-check tolerance, 0 to {MAX_TOL:g}"),
    "--seed": dict(type=int, default=DEFAULT_SEED, help=_INERT_HELP),
    "--format": dict(choices=("csv", "json", "pretty"), default="pretty"),
    "--precision": dict(type=_precision, default=12, help="significant digits for reals"),
    "--out": dict(default=None, help="output path (default stdout)"),
    "--strict": dict(action="store_true", help="exit 3 on any inconclusive bound"),
}
_OUTPUT = "--format --precision --out"

# name: (command, help, the options it takes in the order provenance echoes them)
_COMMANDS = {
    "table": (
        cmd_table, "bound table over a dimension range",
        f"--n-min --n-max --grid --tol --seed {_OUTPUT} --strict",
    ),
    "profile": (
        cmd_profile, "bound curve samples over one (n, k) window",
        f"--n --k --samples --tol {_OUTPUT} --strict",
    ),
    "bound": (cmd_bound, "candidate bounds for one pair (a, b)", f"--n --a --b --tol {_OUTPUT} --strict"),
    "verify-lambda": (cmd_verify_lambda, "certify the midpoint construction", f"--n {_OUTPUT}"),
    "independence": (cmd_independence, "harmonic-independence rank check", f"--n {_OUTPUT}"),
    "delsarte-check": (
        cmd_delsarte_check, "check an explicit expansion", f"--n --coeffs --t-values --tol {_OUTPUT}",
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="twodist", description="Two-distance set bounds and constructions")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            command.add_argument(flag, **_OPTIONS[flag])
    parser.commands = sub.choices  # name -> that command's subparser, read by _parse
    return parser


@functools.cache
def _parser() -> _Parser:
    """build_parser(), built on the first main() call and reused by later
    ones: parsing keeps no state in the parser, and building it is half
    the time of a short in-process query.  Not built at import, so that
    importing the package costs no more."""
    return build_parser()


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), in one argparse pass where argv starts with a
    command name: the top-level parser would only set "command" and hand the
    rest to that command's subparser, which fills the namespace with the
    command's options in declaration order either way."""
    if argv and argv[0] in _COMMANDS:
        return parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes "-0.25,0.1", "-1e-3" or "-inf" for an option name, not a
    # value: attach such a value to the option before it, as
    # "--t-values=-0.25,0.1", so that the value's own check reports it.  A
    # value is negative if it starts with a minus and a number as float()
    # spells it: digits, or inf, infinity or nan in any case.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and "=" not in argv[i - 1] and re.match(
            r"(?i)-(\.?\d|(inf|infinity|nan)\b)", argv[i]
        ):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = _parse(parser, argv)
        report = _COMMANDS[args.command][0](args)
    # ValueError: the library's own input checks; OverflowError: an int option
    # too large for a float; MemoryError: an input too large to allocate
    except (UsageError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _render(args, report)
    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:  # an --out path that cannot be opened or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return report.code


def console_entry() -> None:
    sys.exit(main())
