"""Write src/twodist/_sweep_table.py: the distinct irreducible factors of
the sweep's exact polynomials of a window, as polynomials in a, n and k.

    python tools/make_sweep_table.py

The polynomials are listed by the same code that lists a window's
polynomials in the tests' exact reference (ratfns._exact_polys, the closed
forms of bound_polys._forms on _RatFns), run once with n and k symbolic:
SymbolicFns below is a _RatFns whose coefficients are rational functions of
n and k, each cancelled to lowest terms as it is made, so the operators and
the same-denominator shortcuts are those of the reference.  Each polynomial
row is put over one denominator D(n, k) in lowest terms, and its numerator,
a polynomial in Z[a, n, k], is factored by sympy's factor_list.  The factors
of positive degree in a, over all rows, are the table's factors; the rest
of each row is its a-free content C(n, k) / D(n, k).

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
from sympy.polys.rings import ring

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from ratfns import _RatFns, _exact_polys  # noqa: E402

OUT = os.path.join(ROOT, "src", "twodist", "_sweep_table.py")
FIELD, N, K = field("n,k", ZZ)
# Z[a, n, k], lex in that order: a polynomial's LC is its leading coefficient in a.
RING, A, _, _ = ring("a,n,k", ZZ)


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
    """(D, num): poly as num(a, n, k) / D(n, k) with integer polynomials in
    lowest terms, D positive at (n, k) = (4, 2)."""
    den = FIELD.ring.one
    for c in poly:
        den = den.lcm(c.denom)
    nums = [c.numer * den.exquo(c.denom) for c in poly]
    content = math.gcd(*(int(p.content()) for p in [den, *nums]))
    sign = 1 if den(4, 2) > 0 else -1
    num = RING.zero
    for m, p in enumerate(nums):
        num += A**m * RING.from_dict({(0, i, j): c for (i, j), c in p.terms()})
    return den.quo_ground(sign * content), num.quo_ground(sign * content)


def one_sign_on_windows(p) -> bool:
    """Whether p(n, k) keeps the sign it has at (4, 2) for every real n >= 4
    and k >= 2: that sign times p(4 + u, 2 + v) has a positive constant and
    no negative coefficient."""
    n, k = FIELD.ring.gens
    shifted = p.compose([(n, n + 4), (k, k + 2)]) * (1 if p(4, 2) > 0 else -1)
    return shifted.coeff(1) > 0 and all(c > 0 for c in shifted.coeffs())


def in_n_k(p):
    """An a-free polynomial of RING as a polynomial in n and k."""
    return FIELD.ring.from_dict({(i, j): c for (_, i, j), c in p.terms()})


def leading(f):
    """The leading coefficient of f in a, a polynomial in n and k."""
    deg = f.degree(0)
    return FIELD.ring.from_dict({(i, j): c for (m, i, j), c in f.terms() if m == deg})


def factored(num) -> list:
    """[(f, e), ...]: the factors of positive degree in a of num and their
    multiplicities, each factor's leading coefficient in a positive at
    (n, k) = (4, 2)."""
    _, pairs = num.factor_list()
    return [(f if leading(f)(4, 2) > 0 else -f, e) for f, e in pairs if f.degree(0) > 0]


def terms(p) -> list:
    """The terms of p, sorted: [(i, j, c), ...] for c n^i k^j, or
    [(m, i, j, c), ...] for c a^m n^i k^j."""
    return sorted((*monomial, int(c)) for monomial, c in p.terms())


def main():
    domain, extrema = _exact_polys(SymbolicFns._of((FIELD.zero, FIELD.one), (FIELD.one,)), N, K)
    rows = [over_one_denominator(p) for p in domain + extrema]
    row_factors = [factored(num) for _, num in rows]
    flip = {f for pairs in row_factors[: len(domain)] for f, _ in pairs}
    distinct = {f for pairs in row_factors for f, _ in pairs}
    # The flip factors first; then by degree in a and by terms.
    factors = sorted(distinct, key=lambda f: (f not in flip, f.degree(0), terms(f)))
    contents = []
    for r, ((den, num), pairs) in enumerate(zip(rows, row_factors)):
        product = RING.one
        for f, e in pairs:
            product *= f**e
        content = in_n_k(num.exquo(product))
        if not (one_sign_on_windows(den) and den(4, 2) > 0 and one_sign_on_windows(content)):
            raise SystemExit(f"row {r}: its a-free content may vanish on a window")
        contents.append((content, den))
    for f in factors:
        if not (one_sign_on_windows(leading(f)) and leading(f)(4, 2) > 0):
            raise SystemExit(f"factor {f}: its leading coefficient may vanish on a window")
    index = {f: i for i, f in enumerate(factors)}
    factor_lines = [(i, *t) for i, f in enumerate(factors) for t in terms(f)]
    content_lines = [(r, s, *t) for r, parts in enumerate(contents) for s, p in enumerate(parts) for t in terms(p)]
    multiplicities = sorted((r, index[f], e) for r, pairs in enumerate(row_factors) for f, e in pairs)
    degrees = [max(line[c] for line in factor_lines) for c in (1, 2, 3)]
    widest = max(abs(line[-1]) for line in factor_lines)

    def text(lines):
        return "".join(" ".join(map(str, line)) + "\n" for line in lines)

    with open(OUT, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f'''"""The sweep table: the distinct irreducible factors of the exact
polynomials of every (n, k) window, as integer polynomials in a, n and k.

Written by tools/make_sweep_table.py; do not edit.  The script runs the
tests' exact reference (tests/ratfns.py: the closed forms of
bound_polys._forms on _RatFns) once with n and k symbolic, in sympy, puts
each of its {len(rows)} polynomials of a window (the numerator and denominator of
each domain condition, DOMAIN_ROWS of them, then the critical-point
polynomial of each candidate and the crossing polynomial of each pair) over
one integer denominator D(n, k), and factors the numerator over Z[a, n, k].
Only the identity test (tests/test_lrs.py,
test_sweep_table_factors_the_reference_polys) ties this table to _forms:
it multiplies the factors back together and compares every row with the
reference pass on hundreds of windows.

The table holds the {len(factors)} distinct factors of positive degree in a, of
total degree {sum(f.degree(0) for f in factors)} in a.  The first FLIP_FACTORS of them divide some domain
condition; the others divide only extremum polynomials.  Each factor is
irreducible, no two are proportional, and each one's leading coefficient in
a is positive for all real n >= 4 and k >= 2.  Row r of the reference is
C_r(n, k) / D_r(n, k) times the product of its factors to their
multiplicities, and its a-free parts C_r and D_r keep one sign (D_r a
positive one) for all n >= 4 and k >= 2.  The script proves each of these
signs: the polynomial, times its sign at (4, 2), has only positive
coefficients at (4 + u, 2 + v).

FACTORS has one line "f m i j c" for each term c a^m n^i k^j of factor f;
CONTENTS one line "r s i j c" for each term c n^i k^j of C_r (s = 0) and of
D_r (s = 1); MULTIPLICITIES one line "r f e" for each factor f of row r,
with its multiplicity e.  They are plain text, so that a fresh interpreter
reads them with one numpy call each and compiles no large literal.  The
factors hold {len(factor_lines)} terms, no power above a^{degrees[0]} n^{degrees[1]} k^{degrees[2]} and no |c| above {widest}.
"""

DOMAIN_ROWS = {len(domain)}
FLIP_FACTORS = {len(flip)}
FACTORS = """\\
{text(factor_lines)}"""
CONTENTS = """\\
{text(content_lines)}"""
MULTIPLICITIES = """\\
{text(multiplicities)}"""
''')


if __name__ == "__main__":
    main()
