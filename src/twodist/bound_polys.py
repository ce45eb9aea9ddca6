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

For i=2 the multiplier is undefined when a + b = 0; for i=4/i=5 a singular
linear system likewise puts the candidate out of domain.  Out-of-domain
candidates carry the value +inf so that minima over candidates are always
well defined.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .gegenbauer import GegenbauerExpansion, as_monomial, to_gegenbauer

DEFAULT_TOL = 1e-9
# Largest sign-check tolerance accepted.  The tolerance only absorbs rounding
# in the computed f_k, and the default 1e-9 sits far below this limit; a
# larger one (or a negative one, which lets f_0 > tol pass f_0 <= 0) would
# accept certificates that do not bound anything.
MAX_TOL = 1e-6
# Relative determinant threshold below which a 2x2 multiplier solve
# (and the i=2 division by a+b) counts as singular.
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

    value is P(1) / f_0 when in_domain, +inf otherwise.  c and d are the
    extra-factor coefficients when the shape has them (None when absent or
    when the construction is undefined).
    """

    index: int
    c: float | None
    d: float | None
    poly: np.ndarray | None
    expansion: GegenbauerExpansion | None
    in_domain: bool
    value: float


def check_tol(tol: float) -> None:
    """Raise ValueError unless 0 <= tol <= MAX_TOL; NaN fails too."""
    if not 0 <= tol <= MAX_TOL:
        raise ValueError(f"tolerance must satisfy 0 <= tol <= {MAX_TOL:g}, got {tol}")


def _undefined(index: int) -> CandidateBound:
    return CandidateBound(index, None, None, None, None, False, math.inf)


def _solve_multiplier(n: int, quad: np.ndarray, rows: tuple[int, int]):
    """Solve for (c, d) in (t-a)(t-b)(t^2 + c t + d) zeroing two expansion rows.

    The expansion is affine in (c, d):  E(c, d) = E0 + c * Ec + d * Ed, where
    the three terms come from t^2 * quad, t * quad and quad.
    """
    e0 = to_gegenbauer(n, npoly.polymul(quad, [0.0, 0.0, 1.0])).coeffs
    ec = np.zeros(5)
    ed = np.zeros(5)
    ec[:4] = to_gegenbauer(n, npoly.polymul(quad, [0.0, 1.0])).coeffs
    ed[:3] = to_gegenbauer(n, quad).coeffs
    r0, r1 = rows
    m00, m01 = ec[r0], ed[r0]
    m10, m11 = ec[r1], ed[r1]
    det = m00 * m11 - m01 * m10
    scale = max(1.0, abs(m00 * m11), abs(m01 * m10))
    if abs(det) < SINGULAR_REL_TOL * scale:
        return None
    rhs0, rhs1 = -e0[r0], -e0[r1]
    c = (rhs0 * m11 - m01 * rhs1) / det
    d = (m00 * rhs1 - rhs0 * m10) / det
    return c, d


def build_candidate(i: int, pair: InnerProductPair, tol: float = DEFAULT_TOL) -> CandidateBound:
    """Construct candidate i for the pair and run its domain check."""
    if i not in CANDIDATE_INDICES:
        raise ValueError(f"candidate index must be one of {CANDIDATE_INDICES}, got {i}")
    n, a, b = pair.n, pair.a, pair.b
    quad = npoly.polyfromroots([a, b])
    c: float | None = None
    d: float | None = None
    if i == 1:
        poly = quad
    elif i == 2:
        s = a + b
        if abs(s) < SINGULAR_REL_TOL * max(1.0, abs(a) + abs(b)):
            return _undefined(i)
        c = ((n + 2) * a * b + 3.0) / ((n + 2) * s)
        poly = npoly.polymul(quad, [c, 1.0])
    elif i == 3:
        c = a + b
        poly = npoly.polymul(quad, [c, 1.0])
    else:
        rows = (1, 2) if i == 4 else (2, 3)
        solved = _solve_multiplier(n, quad, rows)
        if solved is None:
            return _undefined(i)
        c, d = solved
        poly = npoly.polymul(quad, [d, c, 1.0])
    poly = as_monomial(poly)
    expansion = to_gegenbauer(n, poly)
    f = expansion.coeffs
    in_domain = bool(f[0] > tol and np.all(f >= -tol))
    value = float(npoly.polyval(1.0, poly) / f[0]) if in_domain else math.inf
    return CandidateBound(i, c, d, poly, expansion, in_domain, value)


class _Form(NamedTuple):
    """One candidate in closed form: value = P(1) / f_0, in domain when the
    free coefficient fj >= -tol, f_0 > tol and the divisor, if any, is at
    least SINGULAR_REL_TOL * max(1, scale()).  scale is deferred because it
    takes absolute values, which only the float route evaluates."""

    value: object
    f0: object
    fj: object
    divisor: object = None
    scale: object = None


def _forms(n, a, b) -> tuple[_Form, ...]:
    """The five candidates in closed form, written with + - * / only.

    Evaluated on float arrays by candidate_values and the window sweep in
    lrs (which passes n as an array), and on exact rational functions of a
    by the sweep; all routes rely on the operations and their order here
    being the only definition.
    """
    s = a + b
    p = a * b
    at_one = (1 - a) * (1 - b)  # quadratic factor evaluated at t = 1
    # i = 2: c zeroes f_1; undefined at s = 0
    c2 = ((n + 2) * p + 3) / ((n + 2) * s)
    f0_2 = p * c2 + (c2 - s) / n
    # i = 4: quartic with f_1 = f_2 = 0
    alpha = p + 3 / (n + 2)
    det = alpha - s * s
    beta = 3 * s / (n + 2)
    gamma = -p - 6 / (n + 4)
    c4 = (beta + s * gamma) / det
    d4 = (alpha * gamma + s * beta) / det
    f0_4 = p * d4 + (d4 - s * c4 + p) / n + 3 / (n * (n + 2))
    # i = 5: quartic with f_2 = f_3 = 0, solved by c = s directly
    d5 = s * s - p - 6 / (n + 4)
    f0_5 = p * d5 + (d5 - s * s + p) / n + 3 / (n * (n + 2))
    return (
        _Form(at_one / (p + 1 / n), p + 1 / n, -s),
        _Form(at_one * (1 + c2) / f0_2, f0_2, (c2 - s) * (n - 1) / n, s, lambda: abs(a) + abs(b)),
        # i = 3: extra root at -(a+b) forces f_2 = 0
        _Form(at_one * (1 + s) / (p * s), p * s, p - s * s + 3 / (n + 2)),
        _Form(
            at_one * (1 + c4 + d4) / f0_4, f0_4, (c4 - s) * (n - 1) / (n + 2),
            det, lambda: np.maximum(abs(alpha), s * s),
        ),
        _Form(at_one * (1 + s + d5) / f0_5, f0_5, s * (p - d5)),
    )


def candidate_values(n: int, a, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vectorized candidate values over arrays of pairs.

    Returns an array of shape (5, len(a)); entry [i-1, j] is the value of
    candidate i at (a[j], b[j]), +inf when out of domain.  The closed forms
    of _forms are used throughout; build_candidate is the reference
    implementation and the two routes are pinned to each other by tests.
    """
    if n < 2:
        raise ValueError(f"dimension must satisfy n >= 2, got {n}")
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return _in_domain_values(n, a, b, tol)


def _in_domain_values(n, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """The (5, len(a)) candidate values of candidate_values, +inf where a
    candidate is out of domain, for float arrays a and b.  n is a scalar or
    a float array of a's shape: the window sweep evaluates the pairs of many
    dimensions in one pass, and small integers n are exact either way, so
    each value is the same double."""
    out = np.full((5,) + a.shape, np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for row, form in zip(out, _forms(n, a, b)):
            dom = (form.fj >= -tol) & (form.f0 > tol)
            if form.divisor is not None:
                dom &= np.abs(form.divisor) >= SINGULAR_REL_TOL * np.maximum(1.0, form.scale())
            row[dom] = form.value[dom]
    return out


def best_bound(pair: InnerProductPair, tol: float = DEFAULT_TOL) -> tuple[float, tuple[int, ...]]:
    """Minimum candidate value for the pair and the indices attaining it.

    Returns (+inf, ()) when no candidate is in domain.
    """
    return best_of([build_candidate(i, pair, tol).value for i in CANDIDATE_INDICES])


def best_of(values) -> tuple[float, tuple[int, ...]]:
    """Minimum of the five candidate values, in index order, and the indices
    whose values lie within WINNER_REL_TOL of it; (+inf, ()) when none is finite."""
    best = min(values)
    if math.isinf(best):
        return math.inf, ()
    slack = WINNER_REL_TOL * max(1.0, abs(best))
    return best, tuple(i for i, v in zip(CANDIDATE_INDICES, values) if v - best <= slack)


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
    f = expansion.coeffs
    if not np.all(np.isfinite(f)):
        k = int(np.argmin(np.isfinite(f)))
        return DelsarteCheck(None, f"non-finite Gegenbauer coefficient f_{k} = {f[k]}")
    if np.any(f < -tol):
        k = int(np.argmin(f))
        return DelsarteCheck(None, f"negative Gegenbauer coefficient f_{k} = {f[k]:.6g}")
    if not f[0] > tol:
        return DelsarteCheck(None, f"nonpositive constant coefficient f_0 = {f[0]:.6g}")
    for t in t_values:
        val = expansion(t)
        if not val <= tol:  # a NaN value rejects the certificate
            return DelsarteCheck(None, f"positive value f({t:.6g}) = {val:.6g} on the inner-product set")
    with np.errstate(over="ignore"):
        ratio = float(f.sum()) / float(f[0])
    if not math.isfinite(ratio):  # f(1) overflows
        return DelsarteCheck(None, f"non-finite bound f(1)/f_0 = {ratio}")
    return DelsarteCheck(floor_nudged(ratio), None)


def floor_nudged(x: float) -> int:
    """Floor with a one-sided FLOOR_NUDGE so that values a hair under an integer round up.

    Window maxima that sit exactly on an integer (three certificates
    crossing at 275 for n = 22) come out of floating point a few ulps on
    either side of it; the nudge keeps them from flooring one too low.  It
    stays until such points are evaluated in exact rational arithmetic.
    """
    return math.floor(x + FLOOR_NUDGE)
