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
window, omega_hat the windows of one n and table every window of its range.
The polynomials of a window are products of 23 distinct irreducible factors
in Z[n, k][a], checked in as a table (_sweep_table) made once from the
closed forms by tools/make_sweep_table.py.  One stage, _candidate_points,
evaluates the factors of the whole batch in one matmul by the monomials
n^i k^j of its windows (in float64, exact while every term and partial sum
is an integer below 2^53, else in Python ints, so each coefficient is the
double nearest its integer in either route), roots each once in one stacked
eigvals call per degree, and drops the flip roots that are a window end.
The edges, points and maxima of every window come from sorts, cumulative
sums and reductions over the whole batch, with the closed forms evaluated
in one float pass.  Where the float maximum lies a hair below an integer,
an exact witness on Fractions (a rational root of a factor near a*, and Q
there) can lift the floor to that integer.  A window's result does not
depend on its batch.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np

from . import _sweep_table
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
# A conclusive window whose float phi lies below an integer M by at most
# this relative margin may reach M exactly, so _sweep looks for an exact
# witness there (_witness), among the rationals this close to a*.  Over the
# conclusive windows of 4..60 and the family ((2k - 1)^2 - 3, k), the float
# phi lies within 1e-12 relative of an integer or farther than 1e-6 from one.
WITNESS_MARGIN = 1e-9


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
    return tuple(p / q for p, q in _exact_ends(k))


def _exact_ends(k) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends of interval(k) as exact fractions (numerator, denominator);
    k may be an array of integer-valued floats, one per window.  Each
    quotient p / q is then the same correctly rounded double as for an int k."""
    return (2 - k, k), (1, 2 * k - 1)


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


def _vanishes(coeffs, p: int, q: int) -> bool:
    """Whether the integer polynomial coeffs (trailing zeros allowed) is zero
    at the rational p/q, decided in integers."""
    deg = len(coeffs) - 1
    return sum(c * p**i * q ** (deg - i) for i, c in enumerate(coeffs)) == 0


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


class _Table(NamedTuple):
    """The factors of the sweep table (_sweep_table) as arrays.

    coeffs has one row per coefficient of a factor, factor by factor and
    lowest power of a first, and one column per monomial n^i k^j that
    occurs, with i = n_power and j = k_power; its entries are integers
    below 2^12, held in float64.  factor and power give the factor and the
    power of a of each row, starts[f] the first row of factor f."""

    coeffs: np.ndarray
    n_power: np.ndarray
    k_power: np.ndarray
    factor: np.ndarray
    power: np.ndarray
    starts: np.ndarray


def _load_table() -> _Table:
    f, m, i, j, c = np.fromstring(_sweep_table.FACTORS, dtype=np.int64, sep=" ").reshape(-1, 5).T
    lengths = np.zeros(f[-1] + 1, dtype=np.int64)
    np.maximum.at(lengths, f, m + 1)  # a factor's leading coefficient is nonzero
    starts = np.concatenate(([0], np.cumsum(lengths)))
    width = j.max() + 1
    coeffs = np.zeros((starts[-1], (i.max() + 1) * width))
    coeffs[starts[f] + m, i * width + j] = c
    used = np.flatnonzero(coeffs.any(axis=0))
    factor = np.repeat(np.arange(lengths.size), lengths)
    return _Table(coeffs[:, used], *np.divmod(used, width), factor, np.arange(starts[-1]) - starts[factor], starts)


_TABLE = _load_table()
# An evaluation of the table runs in float64 while the sum of |c| n^i k^j
# over each of its rows stays below this.  Every product and partial sum is
# then an integer that float64 holds exactly; the factor two below 2^53
# covers the rounding of the float sum that checks it.
_EXACT_FLOAT_LIMIT = 2.0**52


def _table_values(n, k) -> np.ndarray:
    """Every coefficient of every factor of the sweep table at the windows
    (n[w], k[w]): an (R, W) array of exact integers, in the row order of
    _TABLE.coeffs.

    One matmul of the table by the monomial values n^i k^j of the batch.
    The batch's largest n and largest k bound every |c| n^i k^j, and while
    the sum of those bounds over each row stays below _EXACT_FLOAT_LIMIT the
    matmul runs in float64, exact in any order of summation; beyond it, it
    runs in Python ints (object dtype).
    """
    t = _TABLE
    top = np.abs(t.coeffs) @ (float(max(n)) ** t.n_power * float(max(k)) ** t.k_power)
    if top.max() < _EXACT_FLOAT_LIMIT:
        n, k = np.array(n, dtype=np.int64), np.array(k, dtype=np.int64)
        return t.coeffs @ (n ** t.n_power[:, None] * k ** t.k_power[:, None]).astype(float)
    powers = zip(t.n_power.tolist(), t.k_power.tolist())
    monomials = np.array([[m**i * l**j for m, l in zip(n, k)] for i, j in powers], dtype=object)
    return t.coeffs.astype(np.int64).astype(object) @ monomials


def _factor(ints, w: int, f: int) -> list[int]:
    """Factor f of window w as its integer coefficients, lowest power first,
    read from the _table_values array ints of its batch."""
    return [int(c) for c in ints[_TABLE.starts[f] : _TABLE.starts[f + 1], w].tolist()]


def _candidate_points(windows: list, lo, hi) -> tuple:
    """Domain flips and interior extremum candidates of every window, from
    one evaluation of the sweep table.

    Returns (flips, flip_window, extrema, extremum_window, ints): the roots
    of the flip factors, where some candidate can enter or leave its domain,
    and those of the other factors, where one candidate has a critical point
    or two cross, each with the index of its window; ints is the batch's
    _table_values array, for _factor.  lo and hi hold the float ends of each
    window.

    Every factor of every window is laid out as a zero-padded float row,
    lowest power first, and rooted once in one _real_roots call; the
    polynomials it divides never are.  Each float is the double nearest its
    integer in either route of _table_values, a zero is +0.0, and a window's
    rows and roots are the same bit for bit in any batch.

    A domain condition can vanish exactly at a window end (a + b = 0 at
    a = 1/(2k - 1)), and the float root of its factor may land an ulp inside,
    where it would cut off a sliver piece whose candidate set is read at the
    degenerate point itself.  A flip root within WINDOW_SLACK of an end is
    dropped when its factor's integers vanish exactly there.
    """
    t = _TABLE
    ints = _table_values(*zip(*windows))
    factors = len(t.starts) - 1
    rows = np.zeros((len(windows), factors, t.power.max() + 1))
    rows[:, t.factor, t.power] = ints.T
    window, factor = np.divmod(np.arange(len(windows) * factors), factors)
    lo, hi = lo[window], hi[window]
    roots, owner = _real_roots(rows.reshape(window.size, -1), lo, hi)
    flip = factor[owner] < _sweep_table.FLIP_FACTORS
    keep = flip.copy()
    for side, ends in enumerate((lo, hi)):
        for i in np.flatnonzero(flip & (np.abs(roots - ends[owner]) <= WINDOW_SLACK)):
            w, f = window[owner[i]], factor[owner[i]]
            keep[i] = not _vanishes(_factor(ints, w, f), *_exact_ends(windows[w][1])[side])
    return roots[keep], window[owner[keep]], roots[~flip], window[owner[~flip]], ints


def _convergents(x):
    """The continued-fraction convergents (p, q) of the Fraction x, q > 0, in order; the last is x."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = x.numerator, x.denominator
    while den:
        c, rem = divmod(num, den)
        p0, q0, p1, q1 = p1, q1, c * p1 + p0, c * q1 + q0
        yield p1, q1
        num, den = den, rem


def _witness(n: int, k: int, a_star: float, factors: list):
    """An exact lower witness for the maximum of Q over the (n, k) window:
    (a, Q(a)) as Fractions, or None.

    a is the first continued-fraction convergent of a_star that lies within
    WITNESS_MARGIN of it, inside the exact window, and at which one of
    factors (the window's, as integer coefficients) vanishes exactly: a
    rational root of a flip, critical-point or crossing polynomial, where
    the maximum of Q sits when it is rational.  Q(a) is one evaluation of
    the closed forms on Fractions with Delsarte's domain at tol 0 (f0 > 0,
    fj >= 0; a builder that divides by zero is out of domain).  None if no
    convergent qualifies or no candidate is in domain at a.
    """
    from fractions import Fraction

    x = Fraction(a_star)
    lo, hi = (Fraction(*end) for end in _exact_ends(k))
    for p, q in _convergents(x):
        a = Fraction(p, q)
        if abs(a - x) <= WITNESS_MARGIN and lo <= a <= hi and any(_vanishes(f, p, q) for f in factors):
            forms = _forms(Fraction(n), a, (k * a - 1) / (k - 1))
            values = [f.value for f in forms if f is not None and f.f0 > 0 and f.fj >= 0]
            return (a, min(values)) if values else None
    return None


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
    Each distinct factor of the domain conditions is rooted once, so a
    factor shared by two conditions (D = fj3 = det4, say) gives one edge,
    not two float roots some ulps apart with a sliver piece between them;
    over 7..60 no two edges of a window lie closer than 1e-12.  A sliver
    would be safe in any case: a point's value is the largest over the
    pieces it touches, so a sliver can only raise it or make its window
    inconclusive, never lower phi.

    A conclusive window whose phi lies below an integer M by at most
    WITNESS_MARGIN relative gets one exact lower witness (_witness): if Q
    at a rational root of the window's factors near a* is exactly M or
    more, the floor is M, phi is that exact Q rounded and a* that root
    rounded.  The witness only ever raises a floor, and only by an exact
    value of Q; FLOOR_NUDGE still guards every other floor.

    The flips and extremum candidates of the whole batch, and the integers
    of its factors for _witness, come from one _candidate_points call.  The
    batch is held in flat arrays: one lexsort by (window, a) gives the
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
    lo, hi = (p / q for p, q in _exact_ends(k))  # interval(k), one entry per window
    flips, flip_window, extrema, extremum_window, ints = _candidate_points(windows, lo, hi)
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
            continue
        floor, m = floor_nudged(p), math.floor(p) + 1
        if m - p <= WITNESS_MARGIN * m:  # a knife edge: Q may reach m exactly
            found = _witness(wn, wk, a_star, [_factor(ints, i, f) for f in range(len(_TABLE.starts) - 1)])
            if found is not None and found[1] >= m:
                floor, p, a_star = max(floor, m), max(p, float(found[1])), float(found[0])
        # floored, but never below 2n + 3: small windows never beat the trivial bound
        slices.append(KSlice(wn, wk, *interval(wk), p, a_star, max(floor, 2 * wn + 3), True))
    return slices


@lru_cache(maxsize=512, typed=True)
def k_slice(n: int, k: int) -> KSlice:
    """Maximize Q over the closed window for (n, k) and floor the result.

    A batch of one window for _sweep, whose polynomials come from one
    evaluation of the sweep table as in every batch; omega_hat and table
    sweep their windows as one batch and do not go through this cache.  The
    cache is typed, so a float n or k raises TypeError on a warm cache too.
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
