"""Sweep of certificate bounds over the ratio windows of large two-distance sets.

For a two-distance set in R^n with inner products a > b and a + b < 0
that is large enough (more than 2n + 3 points), the smaller inner product
is pinned to b = (k a - 1)/(k - 1) for some integer 2 <= k <= K(n) with
K(n) = floor((1 + sqrt(2n)) / 2), and a is confined to the window

    I_k = [(2 - k)/k, 1/(2k - 1)).

Maximizing the pointwise-best candidate bound over each window and
flooring gives a cardinality bound for the whole a + b < 0 regime once it
is combined with the 2n + 3 fallback; sets with a + b >= 0 are covered
separately by the harmonic-independence argument, giving n(n+1)/2.

Because b is affine in a, every candidate value and every domain condition
is a rational function of a on a window.  The maximum is therefore found
without sampling: it sits at a window end, a domain flip, a critical point
of one candidate or a crossing of two, and those points are the real roots
of polynomials built exactly from the closed forms in bound_polys.  The
domain is Delsarte's, f0 > 0 and fj >= 0 with a regular divisor, tested at
tol 0: its flips are the roots of the unshifted conditions.

Windows are swept in batches by one engine, _sweep: k_slice sweeps one
window, omega_hat the windows of one n and table every window of its
range.  Every batch, one window included, builds the exact polynomials of
all its windows in one pass of the closed forms on _RatFns, in Python ints
only (object arrays, one column per window; n and k are _Rationals).  Each
polynomial becomes a row of floats by one correctly rounded int true
division per coefficient, with no gcd, so an unreduced c/d gives the double
of the reduced one.  The roots of all rows, equal rows included, come from
one stacked eigvals call per degree, and the edges, points and maxima of
every window from sorts, cumulative sums and reductions over the whole
batch, with the closed forms evaluated in one float pass; a window's result
does not depend on its batch.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, repeat
from typing import NamedTuple

import numpy as np

from .bound_polys import (
    DEFAULT_TOL,
    InnerProductPair,
    _float_forms,
    _forms,
    best_bound,
    best_of_samples,
    candidate_values,
    floor_nudged,
)

# A window end such as 1/(2k - 1) is not exact in floating point, so a
# caller's a may sit an ulp or so outside it.
WINDOW_SLACK = 1e-12
# A double real root (a tangency, or an extremum of one candidate) can come
# back from the companion matrix as a complex pair with an imaginary part
# near sqrt(machine epsilon).  Keeping every root this close to the real
# axis is safe: each kept point only adds a true value of the bound.
ROOT_IMAG_TOL = 1e-6


def b_k(k: int, a: float) -> float:
    """Forced smaller inner product (k*a - 1)/(k - 1); k is taken as a
    Python int (operator.index), as in _sweep."""
    k = operator.index(k)
    if k < 2:
        raise ValueError(f"ratio index must satisfy k >= 2, got {k}")
    return (k * a - 1.0) / (k - 1.0)


def k_max(n: int) -> int:
    """Largest ratio index to sweep: the largest k with (2k - 1)^2 <= 2n, at least 2."""
    if n < 2:
        raise ValueError(f"dimension must satisfy n >= 2, got {n}")
    return max((math.isqrt(2 * n) + 1) // 2, 2)


def interval(k: int) -> tuple[float, float]:
    """Closure [lo, hi] of the admissible window for a at ratio index k;
    k is taken as a Python int (operator.index), as in _sweep."""
    k = operator.index(k)
    if k < 2:
        raise ValueError(f"ratio index must satisfy k >= 2, got {k}")
    return (2.0 - k) / k, 1.0 / (2.0 * k - 1.0)


def q_bound(n: int, k: int, a: float, tol: float = DEFAULT_TOL) -> float:
    """Best candidate value at (a, b_k(a)); +inf when no candidate applies.
    n and k are taken as Python ints (operator.index), as in _sweep."""
    n, k = operator.index(n), operator.index(k)
    lo, hi = interval(k)
    if not (lo - WINDOW_SLACK <= a <= hi + WINDOW_SLACK):
        raise ValueError(f"a={a} outside the closed window [{lo}, {hi}] for k={k}")
    return best_bound(InnerProductPair(n, a, max(b_k(k, a), -1.0)), tol)[0]


def _check_window(n: int, k: int) -> None:
    if n < 4:
        raise ValueError(f"window sweep requires n >= 4, got {n}")
    if not 2 <= k <= k_max(n):
        raise ValueError(f"ratio index must satisfy 2 <= k <= K~({n}) = {k_max(n)}, got {k}")


def _b_line(k: int, a: np.ndarray) -> np.ndarray:
    """b_k(a) for an array of a, clipped at -1 against rounding at the left end."""
    return np.maximum((k * a - 1.0) / (k - 1.0), -1.0)


class _Rationals:
    """One rational number per window of a batch, for the scalars of _forms
    on _RatFns (n, k and what is built from them): numerator and
    denominator are (W,) object arrays of Python ints, each denominator
    positive and left unreduced, so that an operation is a few object-array
    operations instead of one Fraction operation per window.  It combines
    with ints, Fractions and itself in either order.  With any other
    operand, a _RatFns in particular, it returns NotImplemented, so that
    _RatFns takes it as a scalar operand."""

    __slots__ = ("numerator", "denominator")
    __array_ufunc__ = None

    def __init__(self, numerator, denominator):
        self.numerator, self.denominator = numerator, denominator

    @classmethod
    def of(cls, values) -> "_Rationals":
        """The rationals of a sequence of ints or Fractions, one per window."""
        fr = [Fraction(v) for v in values]
        return cls(
            np.array([f.numerator for f in fr], dtype=object),
            np.array([f.denominator for f in fr], dtype=object),
        )

    @staticmethod
    def _quotient(num, den) -> "_Rationals":
        """num / den, the sign of each denominator moved to its numerator."""
        if (den == 0).any():
            raise ZeroDivisionError("_Rationals division by zero")
        negative = den < 0
        return _Rationals(np.where(negative, -num, num), np.where(negative, -den, den))

    def __add__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        p, q, r, s = self.numerator, self.denominator, other.numerator, other.denominator
        return _Rationals(p * s + r * q, q * s)

    def __sub__(self, other):
        return self + -other if isinstance(other, _RATIONAL) else NotImplemented

    def __rsub__(self, other):
        return -self + other if isinstance(other, _RATIONAL) else NotImplemented

    def __mul__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return _Rationals(self.numerator * other.numerator, self.denominator * other.denominator)

    def __truediv__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return self._quotient(self.numerator * other.denominator, self.denominator * other.numerator)

    def __rtruediv__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return self._quotient(other.numerator * self.denominator, other.denominator * self.numerator)

    def __neg__(self):
        return _Rationals(-self.numerator, self.denominator)

    __radd__, __rmul__ = __add__, __mul__


# The operands _Rationals combines with; ints and Fractions have numerator
# and denominator too.
_RATIONAL = (int, Fraction, _Rationals)


class _RatFns:
    """num(a) / den(a) in every window of a batch, exact: just the
    arithmetic _forms needs, so that _forms runs once for the whole batch.

    A polynomial is an (L, W) object array of Python ints, row i holding
    the coefficient of a^i in each of the W windows, over a (W,) array of
    positive integer denominators.  Operations reduce nothing, so column w
    of a final polynomial is window w's rational polynomial up to a common
    factor and trailing zeros, which change no rational coefficient; only
    _exact_polys reduces the value polynomials (_reduced) before it
    multiplies them.  A scalar operand is an int, a Fraction or a
    _Rationals, one rational per window (n and k in _forms); it touches the
    numerator only (_scale), without a product by a constant polynomial.
    Otherwise the quartic's value would grow from degree 6/6 to 14/14 and
    its roots would lose accuracy.  Terms over the same denominator are
    added and divided without multiplying it in; the shortcut is taken only
    when the denominators agree in every window or in none (_same).

    The operators are the only definition of the polynomial operations each
    rational operation makes, same-denominator shortcuts included.  The
    polynomial operations themselves are the class attributes _mul, _add,
    _scale, _der, _neg, _same and _reduced, with _scalar to read a scalar
    operand: a subclass that replaces them makes the same rational
    operations on another representation."""

    __slots__ = ("_num", "_den")

    @classmethod
    def _of(cls, num, den) -> "_RatFns":
        out = object.__new__(cls)
        out._num, out._den = num, den
        return out

    @classmethod
    def variable(cls, count: int) -> "_RatFns":
        """The identity a / 1 in each of count windows."""
        ones = np.ones(count, dtype=object)
        return cls._of((np.array([[0] * count, [1] * count], dtype=object), ones), (ones[None], ones))

    @classmethod
    def _cross(cls, p, q, r, s):
        """p q - r s for exact polynomials."""
        return cls._add(cls._mul(p, q), cls._mul(r, s), -1)

    def __add__(self, other):
        if not isinstance(other, _RatFns):
            return self._of(self._add(self._num, self._scale(self._den, self._scalar(other))), self._den)
        if self._same(self._den, other._den):
            return self._of(self._add(self._num, other._num), self._den)
        num = self._add(self._mul(self._num, other._den), self._mul(other._num, self._den))
        return self._of(num, self._mul(self._den, other._den))

    def __mul__(self, other):
        if not isinstance(other, _RatFns):
            return self._of(self._scale(self._num, self._scalar(other)), self._den)
        return self._of(self._mul(self._num, other._num), self._mul(self._den, other._den))

    def __truediv__(self, other):
        if not isinstance(other, _RatFns):
            return self * (1 / self._scalar(other))
        if self._same(self._den, other._den):
            return self._of(self._num, other._num)
        return self._of(self._mul(self._num, other._den), self._mul(self._den, other._num))

    def __neg__(self):
        return self._of(self._neg(self._num), self._den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__

    @staticmethod
    def _scalar(x):
        return x if isinstance(x, _Rationals) else Fraction(x)

    @staticmethod
    def _mul(p, q) -> tuple:
        """One skewed outer product: row i of a times b is written at the
        start of row i of a buffer whose rows are one longer than the
        product, so that read back with the product's row length, row i
        starts i places later; the sum over i is the product.  A constant
        operand is a scale of the other, by broadcasting."""
        (a, da), (b, db) = p, q
        la, lb, w = len(a), len(b), a.shape[1]
        if la == 1 or lb == 1:
            return a * b, da * db
        out = np.zeros((la, la + lb, w), dtype=object)
        np.multiply(a[:, None], b[None], out=out[:, :lb])
        skewed = out.reshape(-1, w)[: la * (la + lb - 1)].reshape(la, la + lb - 1, w)
        return skewed.sum(axis=0), da * db

    @staticmethod
    def _add(p, q, sign: int = 1) -> tuple:
        (a, da), (b, db) = p, q
        a, b = a * db, b * (da if sign == 1 else -da)
        if len(a) < len(b):
            a, b = b, a
        a[: len(b)] += b  # into the longer of two fresh products
        return a, da * db

    @staticmethod
    def _scale(p, f) -> tuple:
        c, d = p
        return c * f.numerator, d * f.denominator

    @staticmethod
    def _reduced(p) -> tuple:
        """p with the gcd of each window's coefficients and denominator divided out."""
        c, d = p
        g = np.gcd.reduce(np.vstack((c, d)), axis=0)
        return c // g, d // g

    @staticmethod
    def _der(p) -> tuple:
        c, d = p
        if len(c) == 1:
            return np.zeros_like(c), d
        return c[1:] * np.array(range(1, len(c)), dtype=object)[:, None], d

    @staticmethod
    def _neg(p) -> tuple:
        c, d = p
        return -c, d

    @staticmethod
    def _same(p, q) -> bool:
        """Whether p == q, decided exactly in each window by cross
        multiplication; raises ValueError when the windows disagree, since
        one branch is taken for all of them."""
        equal = (_RatFns._add(p, q, -1)[0] == 0).all(axis=0)
        if equal.all():
            return True
        if not equal.any():
            return False
        raise ValueError(
            f"same-denominator shortcut holds in {int(equal.sum())} of {equal.size} windows of a batch"
        )


def _vanishes(poly, x: Fraction) -> bool:
    """Whether an exact polynomial (trailing zeros allowed) is zero at the rational x, in integers."""
    c, _ = poly
    p, q, deg = x.numerator, x.denominator, len(c) - 1
    return sum(ci * p**i * q ** (deg - i) for i, ci in enumerate(c)) == 0


def _real_roots(rows, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Real roots strictly inside (lo, hi) of float polynomials, and for each
    root the index of the row it belongs to.  rows holds one polynomial per
    row, lowest power first and zero-padded on the right; a row's degree is
    the index of its last nonzero coefficient, so a constant or all-zero row
    has no root.  lo and hi are floats, or arrays holding one bound per row.

    A root is an eigenvalue of the polynomial's companion matrix, built as
    numpy.polynomial.polynomial.polycompanion builds it; a linear
    polynomial's root is -c0/c1.  The matrices of each degree go to one
    stacked eigvals call, however many windows the rows come from; it runs
    the same LAPACK routine on each matrix, so every root is the double that
    polyroots gives for that polynomial alone, and equal rows give equal
    roots.
    """
    rows = np.asarray(rows, dtype=float)
    nonzero = rows != 0
    degrees = np.where(nonzero.any(axis=1), rows.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1), 0)
    roots, owner = [np.empty(0)], [np.empty(0, dtype=np.intp)]
    for deg in (np.flatnonzero(np.bincount(degrees)[1:]) + 1).tolist():
        idx = np.flatnonzero(degrees == deg)
        c = rows[idx, : deg + 1]
        if deg == 1:
            r = -c[:, 0] / c[:, 1]
        else:
            mat = np.zeros((len(idx), deg, deg))
            mat[:, np.arange(1, deg), np.arange(deg - 1)] = 1
            mat[:, :, -1] -= c[:, :-1] / c[:, -1:]
            r = np.linalg.eigvals(mat)
        roots.append(r.ravel())
        owner.append(np.repeat(idx, deg))
    r, owner = np.concatenate(roots), np.concatenate(owner)
    keep = np.abs(r.imag) <= ROOT_IMAG_TOL * np.maximum(1.0, np.abs(r.real))
    x = r.real
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (len(rows),)) for v in (lo, hi))
    keep &= (x > lo[owner]) & (x < hi[owner])
    return x[keep], owner[keep]


def _exact_interval(k: int) -> tuple[Fraction, Fraction]:
    """interval(k) in exact arithmetic."""
    return Fraction(2 - k, k), Fraction(1, 2 * k - 1)


def _flip_roots(roots, owner, exact, lo, hi, k):
    """The roots of domain conditions, less those that are an end of their
    window; returns (roots, owner) for the roots kept.

    owner indexes the polynomials of the batch; exact(j) reads back the
    exact polynomial of domain condition j, and lo, hi and k hold the
    window of each polynomial.  A domain condition can vanish exactly at an
    end (a + b = 0 at a = 1/(2k - 1)), and its float root may land an ulp
    inside.  Kept, it would cut off a sliver piece whose candidate set is
    read at the degenerate point itself.  Only roots within WINDOW_SLACK of
    an end are checked, each against its own polynomial in exact
    arithmetic, so that the check costs next to nothing.
    """
    drop = np.zeros(roots.size, dtype=bool)
    for side, ends in enumerate((lo, hi)):
        for i in np.flatnonzero(np.abs(roots - ends[owner]) <= WINDOW_SLACK):
            j = owner[i]
            drop[i] = _vanishes(exact(j), _exact_interval(int(k[j]))[side])
    return roots[~drop], owner[~drop]


def _exact_polys(x: _RatFns, n, k) -> tuple[list, list]:
    """The exact polynomials of a batch of windows, as (domain, extrema); x
    is the variable a, one column per window, and n, k are _Rationals
    holding one per window (or, for a one-window x, a Fraction or an int).

    domain holds the numerators and denominators of every domain condition,
    whose roots are where a candidate can enter or leave its domain;
    extrema holds the critical-point polynomial of each candidate and the
    crossing polynomial of each pair.  The value polynomials are reduced
    (_reduced) before those products, which keeps their operands short: no
    wider than the lowest terms of one window's polynomials.
    """
    forms = _forms(n, x, (k * x - 1) / (k - 1))
    conditions = [c for f in forms for c in (f.f0, f.fj, f.divisor) if c is not None]
    domain = [poly for c in conditions for poly in (c._num, c._den)]
    values = [(x._reduced(f.value._num), x._reduced(f.value._den)) for f in forms]
    extrema = [x._cross(x._der(num), den, num, x._der(den)) for num, den in values]
    extrema += [x._cross(vn, wd, wn, vd) for (vn, vd), (wn, wd) in combinations(values, 2)]
    return domain, extrema


def _batch_polys(windows: list) -> tuple[list, list]:
    """The exact polynomials of every window from one _exact_polys pass on
    _RatFns; column w of each is a polynomial of window w."""
    n, k = (_Rationals.of(col) for col in zip(*windows))
    return _exact_polys(_RatFns.variable(len(windows)), n, k)


def _float_polys(windows: list):
    """The exact polynomials of every window as rows of floats.

    Returns (coeffs, domain, exact): coeffs[w, i] holds polynomial i of
    window w, lowest power first and zero-padded to the longest one, the
    `domain` domain conditions before the extremum polynomials; exact(w, i)
    reads back domain condition i of window w.

    The polynomials come from one _batch_polys pass, whatever the number of
    windows.  Each coefficient is one true division of ints, which is
    correctly rounded and never rounds a nonzero c/d to zero: an unreduced
    column gives the doubles of its lowest terms with no gcd taken, and the
    padding is trimmed to the widest nonzero column, so a window's rows are
    the same bit for bit in any batch.
    """
    domain, extrema = _batch_polys(windows)
    polys = domain + extrema
    coeffs = np.zeros((len(windows), len(polys), max(len(c) for c, _ in polys)))
    for i, (c, d) in enumerate(polys):
        coeffs[:, i, : len(c)] = (c / d).T

    def exact(w, i):
        return domain[i][0][:, w], domain[i][1][w]

    width = np.flatnonzero(coeffs.any(axis=(0, 1)))[-1] + 1  # the widest nonzero column
    return coeffs[:, :, :width], len(domain), exact


def _candidate_points(windows: list, lo, hi, k) -> tuple[np.ndarray, ...]:
    """Domain flips and interior extremum candidates of every window.

    Returns (flips, flip_window, extrema, extremum_window): the a where some
    candidate can enter or leave its domain, and the a where one candidate
    has a critical point or two candidates cross, each with the index of
    its window; lo, hi and k are float arrays, one entry per window.  Every
    polynomial of every window goes to one _real_roots call, as it comes:
    a polynomial that appears twice in a window gives the same roots twice,
    which _sweep merges into one point.
    """
    coeffs, domain, exact = _float_polys(windows)
    polys = coeffs.shape[1]
    window, index = np.divmod(np.arange(len(windows) * polys), polys)
    lo, hi, k = lo[window], hi[window], k[window]
    roots, owner = _real_roots(coeffs.reshape(window.size, -1), lo, hi)
    flip = index[owner] < domain
    flips, flip_owner = _flip_roots(
        roots[flip], owner[flip], lambda j: exact(window[j], index[j]), lo, hi, k
    )
    return flips, window[flip_owner], roots[~flip], window[owner[~flip]]


@dataclass(frozen=True)
class KSlice:
    """One (n, k) window: its interval, the maximized bound, and the floor."""

    n: int
    k: int
    lo: float
    hi: float
    phi: float
    a_star: float
    omega_hat_nk: int | float
    conclusive: bool
    inf_ranges: tuple[tuple[float, float], ...] = ()

    @property
    def interval(self) -> tuple[float, float]:
        return self.lo, self.hi


def _stretches(edges: np.ndarray, empty: np.ndarray) -> tuple[tuple[float, float], ...]:
    """(start, end) edges of each run of neighbouring pieces of one window flagged empty."""
    gaps = np.flatnonzero(empty)
    starts = gaps[np.diff(gaps, prepend=-2) > 1]
    ends = gaps[np.diff(gaps, append=gaps[-1] + 2) > 1] + 1
    return tuple((float(edges[i]), float(edges[j])) for i, j in zip(starts, ends))


def _sweep(windows: Sequence[tuple[int, int]]) -> list[KSlice]:
    """Maximize Q over each closed (n, k) window of windows and floor the
    result; one KSlice per window, in order.  Every sweep goes through here.

    The domain flips split a window into pieces on which the set of
    in-domain candidates is fixed (read off the closed forms at tol 0 at
    each piece's midpoint), so Q is the minimum of fixed rational functions
    there.  Q is evaluated at every window end, flip, critical point and
    crossing, once with the candidate set of each piece the point touches;
    the largest of these values is phi.  If some piece has no candidate in
    domain the slice is inconclusive: the LP machinery has no finite bound
    for this (n, k), and the stretches of a without one are recorded.
    A factor shared by two conditions (D = fj3 = det4, say) gives float
    roots some ulps apart, and the sliver piece between them gets a verdict
    of float noise.  Slivers are safe: a point's value is the largest over
    the pieces it touches, so a sliver can only raise it or make its window
    inconclusive, never lower phi.

    The batch is held in flat arrays: one lexsort by (window, a) gives the
    edges, points and piece midpoints of every window, equal values of one
    window becoming one point; the closed forms are evaluated in one float
    pass, the pieces each point touches come from a cumsum of edge flags,
    and phi is a maximum.reduceat, a* its first point as argmax picks it.
    A window's result is the same, bit for bit, in any batch.  n and k are
    taken as Python ints (operator.index): numpy integers work, floats
    raise TypeError.
    """
    windows = [(operator.index(n), operator.index(k)) for n, k in windows]
    for n, k in windows:
        _check_window(n, k)
    ids = np.arange(len(windows))
    n, k = np.array(windows, dtype=float).T
    lo, hi = (2.0 - k) / k, 1.0 / (2.0 * k - 1.0)  # interval(k), one entry per window
    flips, flip_window, extrema, extremum_window = _candidate_points(windows, lo, hi, k)
    # Ends and flips are edges; equal values of one window are one point, an
    # edge if any of them is, since the stable lexsort keeps the edges first.
    a = np.concatenate((lo, hi, flips, extrema))
    window = np.concatenate((ids, ids, flip_window, extremum_window))
    order = np.lexsort((a, window))
    a, window, edge = a[order], window[order], order < 2 * ids.size + flips.size
    new = np.ones(a.size, dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (window[1:] != window[:-1])
    xs, xw, edge = a[new], window[new], edge[new]
    ea, ew = xs[edge], xw[edge]
    inside = ew[1:] == ew[:-1]  # two neighbouring edges of one window bound a piece
    mids, mw = ((ea[:-1] + ea[1:]) / 2)[inside], ew[1:][inside]
    # The piece midpoints of every window, then its points, in one evaluation.
    at, x = np.concatenate((mw, xw)), np.concatenate((mids, xs))
    values, in_domain = _float_forms(n[at], x, _b_line(k[at], x), 0.0)
    pieces = mids.size
    active = in_domain[:, :pieces] & np.isfinite(values[:, :pieces])
    empty = ~active.any(axis=0)
    inconclusive = np.bincount(mw[empty], minlength=ids.size) > 0
    # Piece j of window w has the index of its left edge among all edges,
    # less w.  A point on an edge touches the pieces on both sides, any
    # other point the piece it lies in; a window's first point (its left
    # end) and its last (its right end, just before the next window's
    # first) touch one piece only.
    start = np.searchsorted(xw, ids)
    right = np.cumsum(edge) - 1 - xw
    left = right - edge
    left[start] += 1
    right[start - 1] -= 1
    raw = np.where(np.isnan(values[:, pieces:]), np.inf, values[:, pieces:])
    qs = np.maximum(*(np.where(active[:, p], raw, np.inf).min(axis=0) for p in (left, right)))
    peak = np.maximum.reduceat(qs, start)
    hits = np.flatnonzero(qs == peak[xw])
    best = hits[np.searchsorted(xw[hits], ids)]  # the first point attaining phi
    slices = []
    for i, ((wn, wk), p, a_star) in enumerate(zip(windows, peak.tolist(), xs[best].tolist())):
        if inconclusive[i] or math.isinf(p):  # or the only candidate of a touching piece is singular
            ranges = _stretches(ea[ew == i], empty[mw == i]) if inconclusive[i] else ()
            slices.append(KSlice(wn, wk, *interval(wk), math.inf, math.nan, math.inf, False, ranges))
        else:  # floored, but never below 2n + 3: small windows never beat the trivial bound
            slices.append(KSlice(wn, wk, *interval(wk), p, a_star, max(floor_nudged(p), 2 * wn + 3), True))
    return slices


@lru_cache(maxsize=512, typed=True)
def k_slice(n: int, k: int) -> KSlice:
    """Maximize Q over the closed window for (n, k) and floor the result.

    A batch of one window for _sweep, built on _RatFns as every batch is;
    omega_hat and table sweep their windows as one batch and do not go
    through this cache.  The cache is typed, so a float n or k raises
    TypeError on a warm cache too.
    """
    return _sweep(((n, k),))[0]


def phi(n: int, k: int) -> float:
    """Maximum of Q over the closed window; +inf when inconclusive."""
    return k_slice(n, k).phi


def omega_hat_nk(n: int, k: int) -> int | float:
    """Cardinality bound for the (n, k) window (an integer, or +inf)."""
    return k_slice(n, k).omega_hat_nk


def omega_hat(n: int) -> tuple[int | float, int]:
    """Worst (largest) window bound over k = 2..k_max(n), with the smallest k attaining it."""
    if n < 7:
        raise ValueError(f"the sweep bound requires n >= 7, got {n}")
    return _worst(_sweep(_windows(n)))


def _windows(n: int) -> list[tuple[int, int]]:
    """The (n, k) windows of dimension n, k = 2..k_max(n)."""
    return [(n, k) for k in range(2, k_max(n) + 1)]


def _worst(slices: list[KSlice]) -> tuple[int | float, int]:
    """Largest window bound among the slices of one n, with the smallest k attaining it."""
    bounds = [sl.omega_hat_nk for sl in slices]
    return max(bounds), slices[bounds.index(max(bounds))].k


def rho(n: int) -> int:
    """Cardinality of the midpoint construction, n(n+1)/2; the a + b >= 0
    ceiling.  n is taken as a Python int (operator.index), as in _sweep."""
    n = operator.index(n)
    if n < 7:
        raise ValueError(f"the a+b >= 0 ceiling requires n >= 7, got {n}")
    return n * (n + 1) // 2


def g_upper(n: int) -> int | float:
    """Upper bound for the maximum two-distance set size in R^n (n >= 7)."""
    return max(omega_hat(n)[0], rho(n))


@dataclass(frozen=True)
class TableRow:
    n: int
    omega_hat: int | float
    rho: int
    k_star: int
    g_upper: int | float
    conclusive: bool


def table(n_min: int, n_max: int) -> list[TableRow]:
    """Bound table rows for n_min..n_max; inconclusive rows are flagged, not fatal.

    Every window of the range is swept in one batch."""
    if not 7 <= n_min <= n_max:
        raise ValueError(f"need 7 <= n_min <= n_max, got {n_min}..{n_max}")
    slices = _sweep([w for n in range(n_min, n_max + 1) for w in _windows(n)])
    rows = []
    for n, group in groupby(slices, key=lambda sl: sl.n):
        w, ks = _worst(list(group))
        rows.append(TableRow(n, w, rho(n), ks, max(w, rho(n)), math.isfinite(w)))
    return rows


class ProfileSample(NamedTuple):
    a: float
    q: float
    winning: tuple[int, ...]


def profile(n: int, k: int, samples: int, tol: float = DEFAULT_TOL) -> list[ProfileSample]:
    """Uniform samples of Q over the closed window, with the attaining
    candidates.  n and k are taken as Python ints (operator.index), as in
    _sweep."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    n, k = operator.index(n), operator.index(k)
    _check_window(n, k)
    xs = np.linspace(*interval(k), samples)
    q, winning = best_of_samples(candidate_values(n, xs, _b_line(k, xs), tol))
    return list(map(tuple.__new__, repeat(ProfileSample), zip(xs.tolist(), q, winning)))
