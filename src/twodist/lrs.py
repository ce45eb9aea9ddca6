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
of polynomials built exactly from the closed forms in bound_polys.

Windows are swept in batches by one engine, _sweep: k_slice sweeps one
window, omega_hat the windows of one n and table every window of its
range.  A batch of BATCH_MIN_WINDOWS or more windows builds the exact
polynomials of all of them in one pass of the closed forms on _RatFns, in
Python ints only: its coefficients are object arrays with one column per
window, and n and k are _Rationals, arrays of integer numerators and
denominators.  A smaller batch builds them window by window on _RatFn.
The roots of all polynomials of a batch are found with one stacked
eigvals call per degree, and the closed forms are evaluated in one float
pass over the piece midpoints and the points of every window of the
batch; a window's result does not depend on the batch it is swept in.
"""
from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby

import numpy as np

from .bound_polys import (
    DEFAULT_TOL,
    InnerProductPair,
    _float_forms,
    _forms,
    best_bound,
    best_of,
    candidate_values,
    check_tol,
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
# Sweeps of at least this many windows build their exact polynomials in one
# _RatFns pass, smaller ones window by window on _RatFn: each object-array
# operation has a fixed cost that only a larger batch pays back.  Measured
# crossover (2-vCPU Xeon, Python 3.11, numpy 2.4; best of 9 builds each way):
# in two draws of 40 random sets of windows of n = 7..60 the batch was faster
# in 2 and 4 sets of 4 windows, 40 and 40 of 5, and 40 and 37 of 6.  Every
# n <= 60 has at most 4 windows, so k_slice, omega_hat and single-row tables
# stay on _RatFn there; table(7, 40) is one batch of 78.
BATCH_MIN_WINDOWS = 5


def b_k(k: int, a: float) -> float:
    """Forced smaller inner product (k*a - 1)/(k - 1)."""
    if k < 2:
        raise ValueError(f"ratio index must satisfy k >= 2, got {k}")
    return (k * a - 1.0) / (k - 1.0)


def k_max(n: int) -> int:
    """Largest ratio index to sweep: max(floor((1 + sqrt(2n))/2), 2)."""
    if n < 2:
        raise ValueError(f"dimension must satisfy n >= 2, got {n}")
    return max(math.floor((1.0 + math.sqrt(2.0 * n)) / 2.0), 2)


def interval(k: int) -> tuple[float, float]:
    """Closure [lo, hi] of the admissible window for a at ratio index k."""
    if k < 2:
        raise ValueError(f"ratio index must satisfy k >= 2, got {k}")
    return (2.0 - k) / k, 1.0 / (2.0 * k - 1.0)


def q_bound(n: int, k: int, a: float, tol: float = DEFAULT_TOL) -> float:
    """Best candidate value at (a, b_k(a)); +inf when no candidate applies."""
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


def _lowest(coeffs, den: int = 1) -> tuple:
    """(coefficients, den): integer coefficients, lowest power first and
    without trailing zeros, over a positive integer denominator, in lowest
    terms, so that equal polynomials have equal tuples."""
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    g = math.gcd(den, *c)
    if g != 1:
        c = [x // g for x in c]
        den //= g
    return tuple(c), den


def _exact(coeffs) -> tuple:
    """_lowest form of rational (int or Fraction) coefficients."""
    fr = [Fraction(x) for x in coeffs]
    den = math.lcm(*(f.denominator for f in fr))
    return _lowest([f.numerator * (den // f.denominator) for f in fr], den)


def _pmul(p, q) -> tuple:
    (a, da), (b, db) = p, q
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _lowest(out, da * db)


def _pscale(p, f: Fraction) -> tuple:
    """p * f for a rational scalar f: _pmul(p, ((f.numerator,), f.denominator))."""
    a, d = p
    return _lowest([x * f.numerator for x in a], d * f.denominator)


def _padd(p, q, sign: int = 1) -> tuple:
    """p + sign * q."""
    (a, da), (b, db) = p, q
    out = [x * db for x in a] + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += sign * y * da
    return _lowest(out, da * db)


def _pder(p) -> tuple:
    a, d = p
    return _lowest([i * x for i, x in enumerate(a)][1:] or [0], d)


_ONE = ((1,), 1)  # the constant polynomial 1 in _lowest form


class _RatFn:
    """num(a) / den(a), exact: just the arithmetic _forms needs, for one window.

    Each polynomial is held as integer coefficients over one positive
    integer denominator in lowest terms (see _lowest), so a product or sum
    is a short loop over ints and one gcd, not a gcd per coefficient
    operation; num and den read back as tuples of Fraction.  Terms over
    the same denominator are added and divided without multiplying it in,
    and a scalar operand touches the numerator only (_pscale): the result
    has the tuples that the constant _RatFn([x]) over one would give,
    without a product by the constant one.  Otherwise the quartic's value
    would grow from degree 6/6 to 14/14 and its roots would lose accuracy.
    _candidate_points hands each coefficient to _real_roots as c / den:
    int true division is correctly rounded, so it is the float that
    float(Fraction(c, den)) gives, and the float polynomials are the same
    bit for bit as with Fraction coefficients.

    The operators are the only definition of the polynomial operations each
    rational operation makes, same-denominator shortcuts included.  The
    polynomial operations themselves are the class attributes _mul, _add,
    _scale, _der, _neg, _same and _reduced, with _scalar to read a scalar
    operand; _RatFns replaces them with operations on a whole batch of
    windows."""

    __slots__ = ("_num", "_den")

    _mul = staticmethod(_pmul)
    _add = staticmethod(_padd)
    _scale = staticmethod(_pscale)
    _der = staticmethod(_pder)
    _scalar = staticmethod(Fraction)
    _same = staticmethod(operator.eq)
    _reduced = staticmethod(lambda p: p)  # every polynomial is in lowest terms

    def __init__(self, num, den=(1,)):
        self._num, self._den = _exact(num), _exact(den)

    @classmethod
    def _of(cls, num, den) -> "_RatFn":
        out = object.__new__(cls)
        out._num, out._den = num, den
        return out

    @staticmethod
    def _neg(p) -> tuple:
        c, d = p
        return tuple(-x for x in c), d

    @classmethod
    def _cross(cls, p, q, r, s):
        """p q - r s for exact polynomials."""
        return cls._add(cls._mul(p, q), cls._mul(r, s), -1)

    @property
    def num(self) -> tuple:
        c, d = self._num
        return tuple(Fraction(x, d) for x in c)

    @property
    def den(self) -> tuple:
        c, d = self._den
        return tuple(Fraction(x, d) for x in c)

    def __add__(self, other):
        if not isinstance(other, _RatFn):
            return self._of(self._add(self._num, self._scale(self._den, self._scalar(other))), self._den)
        if self._same(self._den, other._den):
            return self._of(self._add(self._num, other._num), self._den)
        num = self._add(self._mul(self._num, other._den), self._mul(other._num, self._den))
        return self._of(num, self._mul(self._den, other._den))

    def __mul__(self, other):
        if not isinstance(other, _RatFn):
            return self._of(self._scale(self._num, self._scalar(other)), self._den)
        return self._of(self._mul(self._num, other._num), self._mul(self._den, other._den))

    def __truediv__(self, other):
        if not isinstance(other, _RatFn):
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


class _Rationals:
    """One rational number per window of a batch, for the scalars of _forms
    on _RatFns (n, k and what is built from them): numerator and
    denominator are (W,) object arrays of Python ints, each denominator
    positive and left unreduced, so that an operation is a few object-array
    operations instead of one Fraction operation per window.  It combines
    with ints, Fractions and itself in either order.  With any other
    operand, a _RatFn in particular, it returns NotImplemented, so that
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
        if not (den != 0).all():
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


class _RatFns(_RatFn):
    """The _RatFn of every window of a batch, from one pass of the same
    operators: _forms runs once for the whole batch.

    A polynomial is an (L, W) object array of Python ints, row i holding
    the coefficient of a^i in each of the W windows, over a (W,) array of
    positive integer denominators.  Operations reduce nothing: _columns
    takes out the gcd and the trailing zeros once per final polynomial, and
    gives each window the _lowest tuple that _RatFn gives it, since reducing
    late changes no rational coefficient.  _exact_polys reduces the value
    polynomials once more (_reduced) before it multiplies them.  A scalar
    operand is an int, a Fraction or a _Rationals, one rational per window
    (n and k in _forms).  The same-denominator shortcuts are taken only when
    the denominators agree in every window or in none (_same)."""

    __slots__ = ()

    @classmethod
    def variable(cls, count: int) -> "_RatFns":
        """The identity a / 1 in each of count windows."""
        ones = np.ones(count, dtype=object)
        return cls._of((np.array([[0] * count, [1] * count], dtype=object), ones), (ones[None], ones))

    @staticmethod
    def _scalar(x):
        return x if isinstance(x, _Rationals) else Fraction(x)

    @staticmethod
    def _mul(p, q) -> tuple:
        """One skewed outer product: row i of a times b is written at the
        start of row i of a buffer whose rows are one longer than the
        product, so that read back with the product's row length, row i
        starts i places later; the sum over i is the product."""
        (a, da), (b, db) = p, q
        la, lb, w = len(a), len(b), a.shape[1]
        out = np.zeros((la, la + lb, w), dtype=object)
        np.multiply(a[:, None], b[None], out=out[:, :lb])
        skewed = out.reshape(-1, w)[: la * (la + lb - 1)].reshape(la, la + lb - 1, w)
        return skewed.sum(axis=0), da * db

    @staticmethod
    def _add(p, q, sign: int = 1) -> tuple:
        (a, da), (b, db) = p, q
        out = np.zeros((max(len(a), len(b)), a.shape[1]), dtype=object)
        out[: len(a)] = a * db
        out[: len(b)] += b * (sign * da)
        return out, da * db

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
        equal = ~(_RatFns._add(p, q, -1)[0] != 0).any(axis=0)
        if equal.all():
            return True
        if not equal.any():
            return False
        raise ValueError(
            f"same-denominator shortcut holds in {int(equal.sum())} of {equal.size} windows of a batch"
        )


def _columns(p) -> list[tuple]:
    """The _lowest tuple of a batch polynomial (see _RatFns) in each of its
    windows: the gcd of each window's coefficients and denominator divided
    out, then its trailing zeros."""
    c, d = _RatFns._reduced(p)
    nonzero = c != 0
    sizes = np.where(nonzero.any(axis=0), len(c) - nonzero[::-1].argmax(axis=0), 1)
    return [(tuple(col[:size]), den) for col, size, den in zip(c.T.tolist(), sizes.tolist(), d.tolist())]


def _vanishes(poly, x: Fraction) -> bool:
    """Whether an exact polynomial is zero at the rational x, in integers."""
    c, _ = poly
    p, q, deg = x.numerator, x.denominator, len(c) - 1
    return sum(ci * p**i * q ** (deg - i) for i, ci in enumerate(c)) == 0


def _real_roots(flat, sizes, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Real roots strictly inside (lo, hi) of float polynomials, and for each
    root the index of the polynomial it belongs to.  flat holds the
    coefficients of every polynomial one after another, lowest power first,
    and sizes the number of coefficients of each; lo and hi are floats, or
    arrays holding one bound per polynomial.

    A root is an eigenvalue of the polynomial's companion matrix, built as
    numpy.polynomial.polynomial.polycompanion builds it; a linear
    polynomial's root is -c0/c1.  The matrices of each degree go to one
    stacked eigvals call, however many windows the polynomials come from;
    it runs the same LAPACK routine on each matrix, so every root is the
    double that polyroots gives for that polynomial alone.
    """
    flat = np.asarray(flat, dtype=float)
    starts = np.cumsum(sizes) - sizes
    by_degree: dict[int, list[int]] = {}
    for i, size in enumerate(sizes):
        if size > 1:
            by_degree.setdefault(size - 1, []).append(i)
    roots, owner = [np.empty(0)], [np.empty(0, dtype=np.intp)]
    for deg, idx in by_degree.items():
        c = flat[starts[idx][:, None] + np.arange(deg + 1)]
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
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (len(sizes),)) for v in (lo, hi))
    keep &= (x > lo[owner]) & (x < hi[owner])
    return x[keep], owner[keep]


def _exact_interval(k: int) -> tuple[Fraction, Fraction]:
    """interval(k) in exact arithmetic."""
    return Fraction(2 - k, k), Fraction(1, 2 * k - 1)


def _flip_roots(roots, owner, exact: dict, lo, hi, k):
    """The roots of domain conditions, less those that are an end of their
    window; returns (roots, owner) for the roots kept.

    owner indexes the polynomials of the batch; exact maps the index of
    each domain condition to its exact polynomial, and lo, hi and k hold
    the window of each polynomial.  A domain condition can vanish exactly
    at an end (a + b = 0 at a = 1/(2k - 1)), and its float root may land
    an ulp inside.  Kept, it would cut off a sliver piece whose candidate
    set is read at the degenerate point itself.  Only roots within
    WINDOW_SLACK of an end are checked, each against its own polynomial in
    exact arithmetic, so that the check costs next to nothing.
    """
    drop = np.zeros(roots.size, dtype=bool)
    for side, ends in enumerate((lo, hi)):
        for i in np.flatnonzero(np.abs(roots - ends[owner]) <= WINDOW_SLACK):
            j = owner[i]
            drop[i] = _vanishes(exact[j], _exact_interval(int(k[j]))[side])
    return roots[~drop], owner[~drop]


def _exact_polys(x: _RatFn, n, k, tol: float) -> tuple[list, list]:
    """The exact polynomials of a window, or of a batch of windows when x is
    a _RatFns, as (domain, extrema); x is the variable a and n, k the
    window's (Fraction or int), or _Rationals holding one per window.

    domain holds the numerators and denominators of every domain condition,
    whose roots are where a candidate can enter or leave its domain;
    extrema holds the critical-point polynomial of each candidate and the
    crossing polynomial of each pair.  The value polynomials are reduced
    (_reduced) before those products, which keeps the operands of a batch
    as short as the per-window engine's.
    """
    forms = _forms(n, x, (k * x - 1) / (k - 1))
    t = Fraction(tol)
    conditions = [c for f in forms for c in (f.f0 - t, f.fj + t, f.divisor) if c is not None]
    domain = [poly for c in conditions for poly in (c._num, c._den)]
    values = [(x._reduced(f.value._num), x._reduced(f.value._den)) for f in forms]
    extrema = [x._cross(x._der(num), den, num, x._der(den)) for num, den in values]
    extrema += [x._cross(vn, wd, wn, vd) for (vn, vd), (wn, wd) in combinations(values, 2)]
    return domain, extrema


def _window_polys(n: int, k: int, tol: float) -> tuple[list, list]:
    """The exact polynomials of the (n, k) window (_exact_polys on _RatFn)."""
    return _exact_polys(_RatFn([0, 1]), Fraction(n), k, tol)


def _batch_polys(windows: list, tol: float) -> list[tuple[list, list]]:
    """_window_polys of each window of windows, from one _exact_polys pass
    on _RatFns: the same lists of the same tuples, in the same order."""
    n, k = (_Rationals.of(col) for col in zip(*windows))
    domain, extrema = _exact_polys(_RatFns.variable(len(windows)), n, k, tol)
    domain, extrema = ([_columns(p) for p in polys] for polys in (domain, extrema))
    return [(list(d), list(e)) for d, e in zip(zip(*domain), zip(*extrema))]


def _split(values: np.ndarray, window: np.ndarray, count: int) -> list[np.ndarray]:
    """values grouped by the window index of each, one array per window 0..count-1."""
    order = np.argsort(window, kind="stable")
    return np.split(values[order], np.searchsorted(window[order], np.arange(1, count)))


def _candidate_points(windows: list, tol: float) -> tuple[list, list]:
    """Domain flips and interior extremum candidates of each window.

    Returns (flips, extrema), one array per window: the a where some
    candidate can enter or leave its domain, and the a where one candidate
    has a critical point or two candidates cross.  The exact polynomials
    of a batch of at least BATCH_MIN_WINDOWS windows come from one
    _batch_polys pass, those of a smaller one from _window_polys window by
    window; both give the same tuples.  The polynomials of all windows are
    solved together by one _real_roots call.
    """
    flat, sizes, exact, kinds, owner_window = array("d"), [], {}, [], []
    if len(windows) >= BATCH_MIN_WINDOWS:
        polys = _batch_polys(windows, tol)
    else:
        polys = [_window_polys(n, k, tol) for n, k in windows]
    for w, (domain, extrema) in enumerate(polys):
        # Equal polynomials have equal tuples (see _lowest): each is solved
        # once per window, with its kinds as bits (1 domain condition,
        # 2 extremum polynomial).  Each becomes float coefficients c / den
        # here; only the domain conditions stay exact, for _flip_roots.
        own = dict.fromkeys(domain, 1)
        for poly in extrema:
            own[poly] = own.get(poly, 0) | 2
        exact.update((j, poly) for j, (poly, kind) in enumerate(own.items(), len(sizes)) if kind & 1)
        flat.extend([x / den for c, den in own for x in c])
        sizes += [len(c) for c, _ in own]
        kinds += own.values()
        owner_window += [w] * len(own)
    window = np.array(owner_window, dtype=np.intp)
    kinds = np.array(kinds, dtype=np.intp)
    is_flip, is_extremum = (kinds & 1) > 0, (kinds & 2) > 0
    ks = np.array([k for _, k in windows])[window]
    lo, hi = np.array([interval(k) for _, k in windows]).reshape(-1, 2)[window].T
    roots, owner = _real_roots(flat, sizes, lo, hi)
    flip, extremum = is_flip[owner], is_extremum[owner]
    flips, flip_owner = _flip_roots(roots[flip], owner[flip], exact, lo, hi, ks)
    return (
        _split(flips, window[flip_owner], len(windows)),
        _split(roots[extremum], window[owner[extremum]], len(windows)),
    )


def _evaluate(windows: list, points: list, tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The closed-form values and domain verdicts (_float_forms) on the
    points of every window, from one float evaluation, split back into one
    (values, in_domain) pair of (5, len(points[i])) arrays per window.  b
    lies on the window's line, and n is a float array (exact for integers,
    so every double is the one a scalar n gives)."""
    sizes = [p.size for p in points]
    n, k = (np.repeat(np.array(v, dtype=float), sizes) for v in zip(*windows))
    a = np.concatenate(points)
    values, in_domain = _float_forms(n, a, _b_line(k, a), tol)
    cuts = np.cumsum(sizes)[:-1]
    return list(zip(np.split(values, cuts, axis=1), np.split(in_domain, cuts, axis=1)))


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


def _window_max(n: int, k: int, edges, xs, values: np.ndarray, in_domain: np.ndarray) -> KSlice:
    """The slice of a window, from the closed forms evaluated at its piece
    midpoints (the first len(edges) - 1 columns of values and in_domain)
    and then at its points xs.  A piece's candidates are those in domain
    with a finite value at its midpoint.  If some piece has none, the slice
    is inconclusive and records the stretches of a without a candidate;
    otherwise phi is the largest Q over xs, NaN values read as +inf."""
    pieces = len(edges) - 1
    active = in_domain[:, :pieces] & np.isfinite(values[:, :pieces])
    empty = np.flatnonzero(~active.any(axis=0))
    if empty.size:
        starts = empty[np.diff(empty, prepend=-2) > 1]
        ends = empty[np.diff(empty, append=empty[-1] + 2) > 1] + 1
        ranges = tuple((float(edges[i]), float(edges[j])) for i, j in zip(starts, ends))
        return KSlice(n, k, *interval(k), math.inf, math.nan, math.inf, False, ranges)
    raw = np.where(np.isnan(values[:, pieces:]), np.inf, values[:, pieces:])
    # A point on an edge touches the pieces on both sides, any other point one.
    qs = np.maximum.reduce([
        np.where(active[:, piece], raw, np.inf).min(axis=0)
        for piece in (
            np.maximum(np.searchsorted(edges, xs, side="left") - 1, 0),
            np.minimum(np.searchsorted(edges, xs, side="right") - 1, pieces - 1),
        )
    ])
    best = int(np.argmax(qs))
    phi_val = float(qs[best])
    if math.isinf(phi_val):
        # The only candidate of a touching piece is singular at this point.
        return KSlice(n, k, *interval(k), math.inf, math.nan, math.inf, False, ())
    # Floored, but never below 2n + 3: small windows never beat the trivial bound.
    omega = max(floor_nudged(phi_val), 2 * n + 3)
    return KSlice(n, k, *interval(k), phi_val, float(xs[best]), omega, True, ())


def _distinct(x: np.ndarray) -> np.ndarray:
    """The values of a nonempty float array x, sorted, each once: np.unique's
    result for NaN-free floats, without the numpy.ma import np.unique does."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _sweep(windows: Sequence[tuple[int, int]], tol: float) -> list[KSlice]:
    """Maximize Q over each closed (n, k) window of windows and floor the
    result; one KSlice per window, in order.  Every sweep goes through here.

    The domain flips split a window into pieces on which the set of
    in-domain candidates is fixed (read off the closed forms at each
    piece's midpoint), so Q is the minimum of fixed rational functions
    there.  Q is evaluated at every window end, flip, critical point and
    crossing, once with the candidate set of each piece the point touches;
    the largest of these values is phi.  If some piece has no candidate in
    domain the slice is inconclusive: the LP machinery has no finite bound
    for this (n, k), and the stretches of a without one are recorded.

    The exact polynomials of every window come from one _RatFns pass of
    the closed forms when the batch has at least BATCH_MIN_WINDOWS windows,
    and from one _RatFn pass per window otherwise.  Their roots are found
    for the whole batch, and the closed forms are evaluated in one float
    pass over the piece midpoints and the points of every window.  A
    window's result is the same, bit for bit, in any batch.  n and k are
    taken as Python ints (operator.index), so numpy integers work and
    floats raise TypeError.
    """
    check_tol(tol)
    windows = [(operator.index(n), operator.index(k)) for n, k in windows]
    for n, k in windows:
        _check_window(n, k)
    flips, extrema = _candidate_points(windows, tol)
    edges = [_distinct(np.concatenate((interval(k), f))) for (_, k), f in zip(windows, flips)]
    points = [_distinct(np.concatenate((e, x))) for e, x in zip(edges, extrema)]
    # Each window's piece midpoints, then its points, all in one evaluation.
    evals = _evaluate(
        windows, [np.concatenate(((e[:-1] + e[1:]) / 2, x)) for e, x in zip(edges, points)], tol
    )
    return [_window_max(*w, e, x, *ev) for w, e, x, ev in zip(windows, edges, points, evals)]


@lru_cache(maxsize=512)
def k_slice(n: int, k: int, tol: float = DEFAULT_TOL) -> KSlice:
    """Maximize Q over the closed window for (n, k) and floor the result.

    A batch of one window for _sweep; omega_hat and table sweep their
    windows as one batch and do not go through this cache.  tol must
    satisfy 0 <= tol <= MAX_TOL.
    """
    return _sweep(((n, k),), tol)[0]


def phi(n: int, k: int, tol: float = DEFAULT_TOL) -> float:
    """Maximum of Q over the closed window; +inf when inconclusive."""
    return k_slice(n, k, tol).phi


def omega_hat_nk(n: int, k: int, tol: float = DEFAULT_TOL) -> int | float:
    """Cardinality bound for the (n, k) window (an integer, or +inf)."""
    return k_slice(n, k, tol).omega_hat_nk


def omega_hat(n: int, tol: float = DEFAULT_TOL) -> tuple[int | float, int]:
    """Worst (largest) window bound over k = 2..k_max(n), with the smallest k attaining it."""
    if n < 7:
        raise ValueError(f"the sweep bound requires n >= 7, got {n}")
    return _worst(_sweep(_windows(n), tol))


def _windows(n: int) -> list[tuple[int, int]]:
    """The (n, k) windows of dimension n, k = 2..k_max(n)."""
    return [(n, k) for k in range(2, k_max(n) + 1)]


def _worst(slices: list[KSlice]) -> tuple[int | float, int]:
    """Largest window bound among the slices of one n, with the smallest k attaining it."""
    bounds = [sl.omega_hat_nk for sl in slices]
    return max(bounds), slices[bounds.index(max(bounds))].k


def rho(n: int) -> int:
    """Cardinality of the midpoint construction, n(n+1)/2; the a + b >= 0 ceiling."""
    if n < 7:
        raise ValueError(f"the a+b >= 0 ceiling requires n >= 7, got {n}")
    return n * (n + 1) // 2


def g_upper(n: int, tol: float = DEFAULT_TOL) -> int | float:
    """Upper bound for the maximum two-distance set size in R^n (n >= 7)."""
    return max(omega_hat(n, tol)[0], rho(n))


@dataclass(frozen=True)
class TableRow:
    n: int
    omega_hat: int | float
    rho: int
    k_star: int
    g_upper: int | float
    conclusive: bool


def table(n_min: int, n_max: int, tol: float = DEFAULT_TOL) -> list[TableRow]:
    """Bound table rows for n_min..n_max; inconclusive rows are flagged, not fatal.

    Every window of the range is swept in one batch."""
    if not 7 <= n_min <= n_max:
        raise ValueError(f"need 7 <= n_min <= n_max, got {n_min}..{n_max}")
    slices = _sweep([w for n in range(n_min, n_max + 1) for w in _windows(n)], tol)
    rows = []
    for n, group in groupby(slices, key=lambda sl: sl.n):
        w, ks = _worst(list(group))
        rows.append(TableRow(n, w, rho(n), ks, max(w, rho(n)), math.isfinite(w)))
    return rows


@dataclass(frozen=True)
class ProfileSample:
    a: float
    q: float
    winning: tuple[int, ...]


def profile(n: int, k: int, samples: int, tol: float = DEFAULT_TOL) -> list[ProfileSample]:
    """Uniform samples of Q over the closed window, with the attaining candidates."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    _check_window(n, k)
    xs = np.linspace(*interval(k), samples)
    vals = candidate_values(n, xs, _b_line(k, xs), tol)
    return [ProfileSample(x, *best_of(col.tolist())) for x, col in zip(xs.tolist(), vals.T)]
