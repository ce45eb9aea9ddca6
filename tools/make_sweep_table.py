"""Write src/twodist/_sweep_table.py: the sweep's exact polynomials of a
window as integer polynomials in n and k.

    python tools/make_sweep_table.py

The table is made by the same code that lists a window's polynomials in the
tests' exact reference (ratfns._exact_polys, the closed forms of
bound_polys._forms on _RatFns), run once with n and k symbolic: SymbolicFns
below is a _RatFns whose coefficients are rational functions of n and k,
each cancelled to lowest terms as it is made, so the operators and the
same-denominator shortcuts are those of the reference.  Each polynomial row
is then put over one denominator D(n, k) in lowest terms.

This script alone imports sympy; the library and the tests read the written
table only.  Run from anywhere; the output is the same byte for byte on
every run.
"""
import math
import operator
import os
import sys
from fractions import Fraction
from itertools import zip_longest

from sympy import ZZ
from sympy.polys.fields import field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from ratfns import _RatFns, _exact_polys  # noqa: E402

OUT = os.path.join(ROOT, "src", "twodist", "_sweep_table.py")
FIELD, N, K = field("n,k", ZZ)


def trimmed(coeffs) -> tuple:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


class SymbolicFns(_RatFns):
    """num(a) / den(a) with coefficients in Q(n, k), one tuple per polynomial."""

    __slots__ = ()

    @staticmethod
    def _scalar(x):
        if isinstance(x, Fraction):
            return FIELD(x.numerator) / x.denominator
        return FIELD(x)

    @staticmethod
    def _mul(p, q) -> tuple:
        out = [FIELD.zero] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return trimmed(out)

    @staticmethod
    def _add(p, q, sign: int = 1) -> tuple:
        return trimmed(x + sign * y for x, y in zip_longest(p, q, fillvalue=FIELD.zero))

    @staticmethod
    def _scale(p, f) -> tuple:
        return trimmed(x * f for x in p)

    @staticmethod
    def _der(p) -> tuple:
        return trimmed([i * x for i, x in enumerate(p)][1:] or [FIELD.zero])

    @staticmethod
    def _neg(p) -> tuple:
        return tuple(-x for x in p)

    _same = staticmethod(operator.eq)
    _reduced = staticmethod(lambda p: p)


def over_one_denominator(poly) -> tuple:
    """(D, [N_0, ...]): the coefficients N_m / D of poly over one integer
    polynomial D in lowest terms, D positive at (n, k) = (4, 2)."""
    den = FIELD.ring.one
    for c in poly:
        den = den.lcm(c.denom)
    nums = [c.numer * den.exquo(c.denom) for c in poly]
    content = math.gcd(*(int(p.content()) for p in [den, *nums]))
    sign = 1 if den(4, 2) > 0 else -1
    return den.quo_ground(sign * content), [p.quo_ground(sign * content) for p in nums]


def positive_on_windows(den) -> bool:
    """Whether den(n, k) > 0 for every real n >= 4 and k >= 2: den(4 + u,
    2 + v) has a positive constant and no negative coefficient."""
    n, k = FIELD.ring.gens
    shifted = den.compose([(n, n + 4), (k, k + 2)])
    return shifted.coeff(1) > 0 and all(c > 0 for c in shifted.coeffs())


def terms(p) -> list:
    """[(i, j, c), ...], the terms c n^i k^j of p, sorted by (i, j)."""
    return sorted((i, j, int(c)) for (i, j), c in p.terms())


def main():
    domain, extrema = _exact_polys(SymbolicFns._of((FIELD.zero, FIELD.one), (FIELD.one,)), N, K)
    rows = [over_one_denominator(p) for p in domain + extrema]
    for r, (den, nums) in enumerate(rows):
        if not (positive_on_windows(den) and nums[-1]):
            raise SystemExit(f"row {r}: D not positive on every window, or a zero top coefficient")
    dens = [(r, *t) for r, (den, _) in enumerate(rows) for t in terms(den)]
    nums = [(r, m, *t) for r, (_, ns) in enumerate(rows) for m, p in enumerate(ns) for t in terms(p)]
    flat = [t[-3:] for t in dens + nums]
    degrees = max(i for i, _, _ in flat), max(j for _, j, _ in flat)
    widest = max(abs(c) for _, _, c in flat)

    def text(lines):
        return "".join(" ".join(map(str, line)) + "\n" for line in lines)

    with open(OUT, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f'''"""The sweep table: the exact polynomials of every (n, k) window, with
coefficients that are rational functions of n and k.

Written by tools/make_sweep_table.py; do not edit.  The script runs the
tests' exact reference (tests/ratfns.py: the closed forms of
bound_polys._forms on _RatFns) once with n and k symbolic, in sympy, and
puts each coefficient of each polynomial in lowest terms.  Only the identity
test (tests/test_lrs.py, test_sweep_table_equals_the_reference_polys) ties
this table to _forms: it compares every row with the reference pass on
hundreds of windows.

A row is one polynomial of a window in a, in the order of _exact_polys:
the numerator and denominator of each domain condition (DOMAIN_ROWS of
them), then the critical-point polynomial of each candidate and the
crossing polynomial of each pair.  The coefficient of a^m in row r is
N_m(n, k) / D(n, k), the gcd of D and all N_m of the row is 1, and the
top coefficient of a row is never zero.  D is positive for all n >= 4 and
k >= 2: the script checks that D(4 + u, 2 + v) has only positive
coefficients.

DENOMINATORS has one line "r i j c" for each term c n^i k^j of D in row r,
NUMERATORS one line "r m i j c" for each term c n^i k^j of N_m in row r; a
zero N_m has no line.  Both are plain text, so that a fresh interpreter
reads them with one numpy call each and compiles no large literal.  The
table holds {len(flat)} terms, no power above n^{degrees[0]} k^{degrees[1]} and no |c| above {widest}.
"""

DOMAIN_ROWS = {len(domain)}
DENOMINATORS = """\\
{text(dens)}"""
NUMERATORS = """\\
{text(nums)}"""
''')


if __name__ == "__main__":
    main()
