"""The batch engine on which the window sweep once built its exact
polynomials, kept as the exact reference for the sweep table
(twodist._sweep_table).

_exact_polys runs the closed forms of bound_polys._forms on rational
functions of a and lists the sweep's polynomials of a window: the
numerators and denominators of its domain conditions, then the
critical-point and crossing polynomials of its candidates.  _RatFns makes
one pass for a whole batch of windows in Python ints (object arrays, one
column per window; n and k are _Rationals); tests/fraction_fns.py makes the
same rational operations window by window on Fractions, and
tools/make_sweep_table.py on rational functions of n and k.  The tests
check the table against these passes; the library no longer imports this
module.
"""
from fractions import Fraction
from itertools import combinations

import numpy as np

from twodist.bound_polys import _forms


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
