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
range.  The polynomials of a window are rows of a checked-in table
(_sweep_table) whose coefficients are integer polynomials in n and k over
one integer polynomial per row, made once from the closed forms by
tools/make_sweep_table.py.  Every batch, one window included, evaluates the
table in one matmul by the monomials n^i k^j of its windows: in float64,
exact while every term and partial sum is an integer below 2^53, else in
Python ints.  Each coefficient is then one correctly rounded division of
two integers, so it is the double nearest the rational in either route.
The roots of all rows, equal rows included, come from one stacked eigvals
call per degree, and the edges, points and maxima of every window from
sorts, cumulative sums and reductions over the whole batch, with the closed
forms evaluated in one float pass; a window's result does not depend on
its batch.
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


def _exact_ends(k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends of interval(k) as exact fractions (numerator, denominator)."""
    return (2 - k, k), (1, 2 * k - 1)


def _flip_roots(roots, owner, vanishes_at, lo, hi):
    """The roots of domain conditions, less those that are an end of their
    window; returns (roots, owner) for the roots kept.

    owner indexes the polynomials of the batch, lo and hi hold the window
    ends of each polynomial, and vanishes_at(j, side) tells whether
    polynomial j is exactly zero at the exact lower (side 0) or upper
    (side 1) end of its window.  A domain condition can vanish exactly at an
    end (a + b = 0 at a = 1/(2k - 1)), and its float root may land an ulp
    inside.  Kept, it would cut off a sliver piece whose candidate set is
    read at the degenerate point itself.  Only roots within WINDOW_SLACK of
    an end are checked, each against its own polynomial in exact
    arithmetic, so that the check costs next to nothing.
    """
    drop = np.zeros(roots.size, dtype=bool)
    for side, ends in enumerate((lo, hi)):
        for i in np.flatnonzero(np.abs(roots - ends[owner]) <= WINDOW_SLACK):
            drop[i] = vanishes_at(owner[i], side)
    return roots[~drop], owner[~drop]


class _Table(NamedTuple):
    """The sweep table (_sweep_table) as arrays.

    coeffs has one row per polynomial in n and k of the table, the
    denominator D of each sweep polynomial first, in order, then the
    numerators N_m of the coefficients of each sweep polynomial, in order;
    and one column per monomial n^i k^j that occurs, with i = n_power and
    j = k_power.  Its entries are integers below 2^14, held in float64.
    poly and power give the sweep polynomial and the power of a of each
    numerator row, starts[i] the first numerator row of sweep polynomial i,
    counted from the first numerator row."""

    coeffs: np.ndarray
    n_power: np.ndarray
    k_power: np.ndarray
    poly: np.ndarray
    power: np.ndarray
    starts: np.ndarray


def _load_table() -> _Table:
    den = np.fromstring(_sweep_table.DENOMINATORS, dtype=np.int64, sep=" ").reshape(-1, 4)
    num = np.fromstring(_sweep_table.NUMERATORS, dtype=np.int64, sep=" ").reshape(-1, 5)
    polys = den[-1, 0] + 1
    lengths = np.zeros(polys, dtype=np.int64)
    np.maximum.at(lengths, num[:, 0], num[:, 1] + 1)  # a row's top coefficient is nonzero
    starts = np.concatenate(([0], np.cumsum(lengths)))
    row = np.concatenate((den[:, 0], polys + starts[num[:, 0]] + num[:, 1]))
    i, j, c = np.concatenate((den[:, 1:], num[:, 2:])).T
    width = j.max() + 1
    coeffs = np.zeros((polys + starts[-1], (i.max() + 1) * width))
    coeffs[row, i * width + j] = c
    used = np.flatnonzero(coeffs.any(axis=0))
    poly = np.repeat(np.arange(polys), lengths)
    return _Table(coeffs[:, used], *np.divmod(used, width), poly, np.arange(starts[-1]) - starts[poly], starts)


_TABLE = _load_table()
# An evaluation of the table runs in float64 while the sum of |c| n^i k^j
# over each of its rows stays below this.  Every product and partial sum is
# then an integer that float64 holds exactly; the factor two below 2^53
# covers the rounding of the float sum that checks it.
_EXACT_FLOAT_LIMIT = 2.0**52


def _table_values(n, k) -> np.ndarray:
    """Every polynomial in n and k of the sweep table at the windows
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


def _float_polys(windows: list):
    """The exact polynomials of every window as rows of floats.

    Returns (coeffs, domain, exact): coeffs[w, i] holds polynomial i of
    window w, lowest power first and zero-padded to the longest one, the
    `domain` domain conditions before the extremum polynomials; exact(w, i)
    reads back domain condition i of window w as the integers N_m(n, k), its
    coefficients times their common denominator D(n, k) > 0.

    The polynomials are the rows of the sweep table, evaluated for the whole
    batch by one _table_values call.  Each coefficient N_m(n, k) / D(n, k)
    is then one division of two exact integers, in float64 or as int true
    division, and both are correctly rounded: it is the double nearest the
    rational coefficient, in either route.  D is positive, so a zero
    coefficient is +0.0.  The padding is trimmed to the widest nonzero
    column, so a window's rows are the same bit for bit in any batch.
    """
    t, polys = _TABLE, len(_TABLE.starts) - 1
    values = _table_values(*zip(*windows))
    coeffs = np.zeros((len(windows), polys, t.power.max() + 1))
    coeffs[:, t.poly, t.power] = (values[polys:] / values[t.poly]).T

    def exact(w, i):
        return [int(c) for c in values[polys + t.starts[i] : polys + t.starts[i + 1], w].tolist()]

    width = np.flatnonzero(coeffs.any(axis=(0, 1)))[-1] + 1  # the widest nonzero column
    return coeffs[:, :, :width], _sweep_table.DOMAIN_ROWS, exact


def _candidate_points(windows: list, lo, hi) -> tuple[np.ndarray, ...]:
    """Domain flips and interior extremum candidates of every window.

    Returns (flips, flip_window, extrema, extremum_window): the a where some
    candidate can enter or leave its domain, and the a where one candidate
    has a critical point or two candidates cross, each with the index of
    its window; lo and hi are float arrays, one entry per window.  Every
    polynomial of every window goes to one _real_roots call, as it comes:
    a polynomial that appears twice in a window gives the same roots twice,
    which _sweep merges into one point.
    """
    coeffs, domain, exact = _float_polys(windows)
    polys = coeffs.shape[1]
    window, index = np.divmod(np.arange(len(windows) * polys), polys)
    ends = [_exact_ends(k) for _, k in windows]

    def vanishes_at(j, side):
        w = window[j]
        return _vanishes(exact(w, index[j]), *ends[w][side])

    lo, hi = lo[window], hi[window]
    roots, owner = _real_roots(coeffs.reshape(window.size, -1), lo, hi)
    flip = index[owner] < domain
    flips, flip_owner = _flip_roots(roots[flip], owner[flip], vanishes_at, lo, hi)
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

    The flips and extremum candidates of the whole batch come from one
    evaluation of the sweep table (_candidate_points).  The batch is held
    in flat arrays: one lexsort by (window, a) gives the
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
    flips, flip_window, extrema, extremum_window = _candidate_points(windows, lo, hi)
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
