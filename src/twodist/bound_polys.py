"""Candidate certificate polynomials for two-distance linear-programming bounds.

Given admissible inner products a > b, each candidate is a low-degree
polynomial P vanishing at a and b whose Gegenbauer expansion is checked for
nonnegativity.  When all expansion coefficients f_k are nonnegative and
f_0 > 0, the quantity P(1) / f_0 upper-bounds the cardinality of any
spherical set in R^n whose pairwise inner products lie in {a, b}.

The five shapes:

    i=1  (t - a)(t - b)
    i=2  (t - a)(t - b)(t + c)   with c chosen so that f_1 = 0
    i=3  (t - a)(t - b)(t + a + b)    which forces f_2 = 0
    i=4  (t - a)(t - b)(t^2 + c t + d)  with (c, d) solving f_1 = f_2 = 0
    i=5  (t - a)(t - b)(t^2 + c t + d)  with (c, d) solving f_2 = f_3 = 0

Each multiplier, each domain verdict, each value and the nonzero entries
of each expansion (f_0, the one free f_j and the top coefficient) have a
closed form in n, a and b, one builder per candidate (_forms), and every
route evaluates those forms: candidates and best_bound on one pair's
Python floats, candidate_values on arrays of pairs, and the window sweep
in lrs on arrays.  The sweep's exact polynomials are these forms on rational
functions of a with n and k symbolic, factored and written once into a
table (twodist._sweep_table, by tools/make_sweep_table.py).  A candidate holds
its certificate only as that expansion, read from the forms (P is never
multiplied out), so the f_0 and f_j it shows are the numbers the domain
verdict tests.  The i=2 multiplier is undefined when a + b = 0 and the
i=4 one when its 2x2 system is singular; such candidates, like every
other one outside its domain, carry the value +inf so that minima over
candidates are always well defined.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gegenbauer import GegenbauerExpansion, _gegenbauer_coeffs

DEFAULT_TOL = 1e-9
# Largest sign-check tolerance accepted.  The tolerance only absorbs rounding
# in the computed f_k, and the default 1e-9 sits far below this limit; a
# larger one (or a negative one, which lets f_0 > tol pass f_0 <= 0) would
# accept certificates that do not bound anything.
MAX_TOL = 1e-6
# A closed form's divisor (a + b for i=2, the 2x2 determinant for i=4)
# counts as singular below this times max(1, its scale): the multiplier is
# then undefined and the candidate out of domain.
SINGULAR_REL_TOL = 1e-12
# Candidates whose values agree to this relative precision all count as
# attaining the minimum: crossings computed in floating point differ by a
# few ulps, and 1e-9 stays far below any real gap between certificates.
WINNER_REL_TOL = 1e-9
# floor_nudged adds this before flooring: far above the few ulps by which an
# integer-valued bound misses its integer, far below any real fractional part.
FLOOR_NUDGE = 1e-9

CANDIDATE_INDICES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class InnerProductPair:
    """An admissible inner-product pair: -1 <= b < a < 1 on the sphere in R^n."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must satisfy n >= 2, got {self.n}")
        if not (-1.0 <= self.b < self.a < 1.0):
            raise ValueError(
                f"inner products must satisfy -1 <= b < a < 1, got a={self.a}, b={self.b}"
            )


@dataclass(frozen=True)
class CandidateBound:
    """One candidate certificate and its outcome.

    The certificate is P = (t - a)(t - b) times 1, t + c or t^2 + c t + d,
    held as its Gegenbauer expansion f (None when the construction is
    undefined); gegenbauer.from_gegenbauer(expansion) gives P's monomial
    coefficients.  f is read from the closed forms: f_0, the free f_j and
    the top coefficient, with exact zeros in the entries that the
    construction zeroes.  c and d are the extra-factor coefficients when
    the shape has them (None when absent or when the construction is
    undefined).  value is P(1) / f_0 when in_domain, +inf otherwise.
    """

    index: int
    c: float | None
    d: float | None
    expansion: GegenbauerExpansion | None
    in_domain: bool
    value: float


def check_tol(tol: float) -> None:
    """Raise ValueError unless 0 <= tol <= MAX_TOL; NaN fails too."""
    if not 0 <= tol <= MAX_TOL:
        raise ValueError(f"tolerance must satisfy 0 <= tol <= {MAX_TOL:g}, got {tol}")


def _undefined(index: int) -> CandidateBound:
    return CandidateBound(index, None, None, None, False, math.inf)


class _Form(NamedTuple):
    """One candidate in closed form.  P is (t - a)(t - b) times 1, t + c or
    t^2 + c t + d (c and d are None where the shape lacks them), at_one is
    P(1) and fj is the one expansion coefficient besides f_0 and the top
    one that the construction leaves free.  _in_domain holds the domain
    rule; scale is deferred because it takes absolute values, which only
    the float routes evaluate."""

    at_one: object
    f0: object
    fj: object
    divisor: object = None
    scale: object = None
    c: object = None
    d: object = None

    @property
    def value(self):
        """P(1) / f_0, divided where it is read: f_0 may vanish out of domain."""
        return self.at_one / self.f0


def _form1(n, a, b, s, p, at_one) -> _Form:
    return _Form(at_one, p + 1 / n, -s)


def _form2(n, a, b, s, p, at_one) -> _Form:
    # c zeroes f_1; undefined at s = 0
    c2 = ((n + 2) * p + 3) / ((n + 2) * s)
    f0 = p * c2 + (c2 - s) / n
    return _Form(at_one * (1 + c2), f0, (c2 - s) * (n - 1) / n, s, lambda: abs(a) + abs(b), c=c2)


def _form3(n, a, b, s, p, at_one) -> _Form:
    # extra root at -(a+b) forces f_2 = 0
    return _Form(at_one * (1 + s), p * s, p - s * s + 3 / (n + 2), c=s)


def _form4(n, a, b, s, p, at_one) -> _Form:
    # quartic with f_1 = f_2 = 0; undefined where det = 0
    alpha = p + 3 / (n + 2)
    det = alpha - s * s
    beta = 3 * s / (n + 2)
    gamma = -p - 6 / (n + 4)
    c4 = (beta + s * gamma) / det
    d4 = (alpha * gamma + s * beta) / det
    f0 = p * d4 + (d4 - s * c4 + p) / n + 3 / (n * (n + 2))
    return _Form(at_one * (1 + c4 + d4), f0, (c4 - s) * (n - 1) / (n + 2),
                 det, lambda: np.maximum(abs(alpha), s * s), c=c4, d=d4)


def _form5(n, a, b, s, p, at_one) -> _Form:
    # quartic with f_2 = f_3 = 0, solved by c = s directly
    d5 = s * s - p - 6 / (n + 4)
    f0 = p * d5 + (d5 - s * s + p) / n + 3 / (n * (n + 2))
    return _Form(at_one * (1 + s + d5), f0, s * (p - d5), c=s, d=d5)


def _forms(n, a, b) -> tuple[_Form | None, ...]:
    """The five candidates in closed form, written with + - * / only: one
    builder each, on the shared s, p and at_one.  Evaluated on float arrays
    by _float_forms (for candidate_values and the window sweep in lrs, which
    passes n as an array), on Python floats by candidates, on Fractions by
    the sweep's exact witness (lrs._witness), and on exact rational
    functions of a by tools/make_sweep_table.py, which writes the factors of
    the sweep's polynomials into twodist._sweep_table, and by the tests'
    exact reference; all routes rely on the operations and their order here
    being the only definition.  A builder that divides
    by an exact zero (i=2 at s = 0, i=4 at det = 0, on Python floats or
    exact operands) gives None for its own candidate only."""
    s = a + b
    p = a * b
    at_one = (1 - a) * (1 - b)  # quadratic factor evaluated at t = 1
    out = []
    for build in (_form1, _form2, _form3, _form4, _form5):
        try:
            out.append(build(n, a, b, s, p, at_one))
        except ZeroDivisionError:
            out.append(None)
    return tuple(out)


# Degree of candidate i's polynomial and the expansion slot of its free
# coefficient fj; every other slot below the top is zero by construction.
_SHAPES = {1: (2, 1), 2: (3, 2), 3: (3, 1), 4: (4, 3), 5: (4, 1)}


def _regular(form: _Form):
    """False where the form divides by a singular divisor: one below
    SINGULAR_REL_TOL * max(1, scale()).  A NaN scale leaves the divisor
    singular, as np.maximum passes NaN on."""
    if form.divisor is None:
        return True
    return np.abs(form.divisor) >= SINGULAR_REL_TOL * np.maximum(1.0, form.scale())


def _in_domain(form: _Form, tol: float):
    """The domain rule: f_0 > tol, fj >= -tol and a regular divisor."""
    return (form.fj >= -tol) & (form.f0 > tol) & _regular(form)


def candidates(pair: InnerProductPair, tol: float = DEFAULT_TOL) -> tuple[CandidateBound, ...]:
    """The five candidates for the pair, in index order, from one evaluation
    of _forms on the pair's n, a and b as a Python int and floats.  A form
    that is None or not _regular is undefined, _in_domain decides the rest,
    and the value is read only in domain: the rules and operations of
    candidate_values, so each value is bit for bit its entry.  The expansion
    is read from the form: f_0 and the free f_j are the numbers the domain
    verdict tests, the top coefficient is 1 over the leading coefficient of
    G_deg (P is monic), and the entries the construction zeroes are 0.
    """
    check_tol(tol)
    n = operator.index(pair.n)
    out = []
    for i, form in zip(CANDIDATE_INDICES, _forms(n, float(pair.a), float(pair.b))):
        if form is None or not _regular(form):
            out.append(_undefined(i))
            continue
        in_domain = bool(_in_domain(form, tol))
        deg, slot = _SHAPES[i]
        f = [0.0] * (deg + 1)
        f[0], f[slot], f[deg] = form.f0, form.fj, 1.0 / _gegenbauer_coeffs(n, deg)[deg]
        value = form.value if in_domain else math.inf
        out.append(CandidateBound(i, form.c, form.d, GegenbauerExpansion(n, f), in_domain, value))
    return tuple(out)


def build_candidate(i: int, pair: InnerProductPair, tol: float = DEFAULT_TOL) -> CandidateBound:
    """Candidate i for the pair: entry i - 1 of candidates(pair, tol), whose
    expansion is read from the closed forms."""
    if i not in CANDIDATE_INDICES:
        raise ValueError(f"candidate index must be one of {CANDIDATE_INDICES}, got {i}")
    return candidates(pair, tol)[i - 1]


def candidate_values(n: int, a, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vectorized candidate values over arrays of pairs.

    Returns an array of shape (5, len(a)); entry [i-1, j] is the value of
    candidate i at (a[j], b[j]), +inf when out of domain.  Every value
    comes from the closed forms of _forms, as do those of candidates (the
    route for one pair), so the two agree bit for bit.  n is taken as a
    Python int (operator.index), as in candidates: a float raises TypeError.
    a and b are scalars or 1-D arrays of one length, else ValueError; tol
    must satisfy 0 <= tol <= MAX_TOL.
    """
    n = operator.index(n)
    if n < 2:
        raise ValueError(f"dimension must satisfy n >= 2, got {n}")
    check_tol(tol)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"a and b must be 1-D arrays of one length, got shapes {a.shape} and {b.shape}")
    values, in_domain = _float_forms(n, a, b, tol)
    return np.where(in_domain, values, np.inf)


def _float_forms(n, a: np.ndarray, b: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(values, in_domain): the five closed-form values and domain verdicts
    as (5, len(a)) arrays, from one evaluation of _forms on the float
    arrays a and b.  The values are not masked; they may be inf or NaN
    where a form breaks down.  n is a scalar or a float array of a's shape:
    the window sweep evaluates the pairs of many dimensions in one pass, and
    small integers n are exact either way, so each value is the same double."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        forms = _forms(n, a, b)
        return np.array([f.value for f in forms]), np.array([_in_domain(f, tol) for f in forms])


def best_bound(pair: InnerProductPair, tol: float = DEFAULT_TOL) -> tuple[float, tuple[int, ...]]:
    """Minimum candidate value for the pair and the indices attaining it,
    read from candidates.

    Returns (+inf, ()) when no candidate is in domain.
    """
    return best_of([cand.value for cand in candidates(pair, tol)])


def best_of(values) -> tuple[float, tuple[int, ...]]:
    """Minimum of the five candidate values, in index order, and the indices
    whose values lie within WINNER_REL_TOL of it; (+inf, ()) when none is finite.

    The rule for one pair; best_of_samples applies it to every column of a
    (5, S) array at once."""
    best = min(values)
    if math.isinf(best):
        return math.inf, ()
    slack = WINNER_REL_TOL * max(1.0, abs(best))
    return best, tuple(i for i, v in zip(CANDIDATE_INDICES, values) if v - best <= slack)


# The winners of each 5-bit mask whose bit i - 1 is set when candidate i wins.
_WINNERS = np.empty(1 << len(CANDIDATE_INDICES), dtype=object)
_WINNERS[:] = [tuple(i for i in CANDIDATE_INDICES if m >> (i - 1) & 1) for m in range(len(_WINNERS))]


def best_of_samples(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """best_of of every column of the (5, S) array values, in array
    operations: the minima, and the winners of each column as a mask whose
    bit i - 1 is set when candidate i wins (_WINNERS[mask] is best_of's
    tuple).

    The minimum is taken in the order of Python's min, one row after the
    other, so that a NaN acts as it does in best_of: in row 0 it is the
    minimum and wins nothing, in a later row it is passed over.  Slack and
    winners are computed as in best_of; the two rules agree bit for bit."""
    best = values[0]
    for row in values[1:]:
        best = np.where(row < best, row, best)
    finite = ~np.isinf(best)
    slack = WINNER_REL_TOL * np.maximum(1.0, np.abs(best))
    with np.errstate(invalid="ignore"):  # inf - inf where a column holds no finite value
        wins = (values - best <= slack) & finite
    return np.where(finite, best, np.inf), (1 << np.arange(len(values))) @ wins


@dataclass(frozen=True)
class DelsarteCheck:
    """Outcome of the positive-semidefinite certificate check."""

    bound: int | None
    violation: str | None

    @property
    def ok(self) -> bool:
        return self.violation is None


def delsarte_check(expansion: GegenbauerExpansion, t_values, tol: float = DEFAULT_TOL) -> DelsarteCheck:
    """Certificate check: all f_k >= 0, f_0 > 0, and f <= 0 on the given t set.

    On success the integer floor(f(1) / f_0) bounds the size of any spherical
    set in R^n whose pairwise inner products all lie in t_values.  tol
    must satisfy 0 <= tol <= MAX_TOL.
    """
    check_tol(tol)
    f = expansion.coeffs.tolist()
    k = next((k for k, x in enumerate(f) if not math.isfinite(x)), None)
    if k is not None:
        return DelsarteCheck(None, f"non-finite Gegenbauer coefficient f_{k} = {f[k]}")
    low = min(f)
    if low < -tol:
        k = f.index(low)  # the first smallest, as np.argmin picks
        return DelsarteCheck(None, f"negative Gegenbauer coefficient f_{k} = {f[k]:.6g}")
    if not f[0] > tol:
        return DelsarteCheck(None, f"nonpositive constant coefficient f_0 = {f[0]:.6g}")
    for t in t_values:
        val = expansion(t)
        if not val <= tol:  # a NaN value rejects the certificate
            return DelsarteCheck(None, f"positive value f({t:.6g}) = {val:.6g} on the inner-product set")
    with np.errstate(over="ignore"):
        ratio = float(expansion.coeffs.sum()) / f[0]
    if not math.isfinite(ratio):  # f(1) overflows
        return DelsarteCheck(None, f"non-finite bound f(1)/f_0 = {ratio}")
    return DelsarteCheck(floor_nudged(ratio), None)


def floor_nudged(x: float) -> int:
    """Floor with a one-sided FLOOR_NUDGE so that values a hair under an integer round up.

    Window maxima that sit exactly on an integer (three certificates
    crossing at 275 for n = 22) come out of floating point a few ulps on
    either side of it; the nudge keeps them from flooring one too low.  The
    window sweep evaluates a rational maximum exactly (lrs._witness), but
    the nudge stays on the safe side for the rest: an irrational maximum
    and the user's floats of delsarte_check.
    """
    return math.floor(x + FLOOR_NUDGE)
