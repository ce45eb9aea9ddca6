"""An exact reference for the sweep's polynomial engine: lrs._RatFns for one
window, with each polynomial a tuple of Fraction coefficients.

FractionFns overrides only the polynomial primitives of _RatFns and
inherits its operators, so it makes the same rational operations, same-
denominator shortcuts and scalar operands included, in plain Fraction
arithmetic.  Each polynomial is held lowest power first without trailing
zeros, so equal rational polynomials are equal tuples.
"""
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

import twodist.lrs as lrs


def trimmed(coeffs) -> tuple:
    """coeffs as a tuple of Fraction without trailing zeros (the zero polynomial is (0,))."""
    c = [Fraction(x) for x in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


class FractionFns(lrs._RatFns):
    """num(a) / den(a) of one window, on tuples of Fraction."""

    __slots__ = ()

    @classmethod
    def of(cls, num, den=(1,)) -> "FractionFns":
        return cls._of(trimmed(num), trimmed(den))

    @staticmethod
    def _mul(p, q) -> tuple:
        out = [0] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return trimmed(out)

    @staticmethod
    def _add(p, q, sign: int = 1) -> tuple:
        return trimmed(x + sign * y for x, y in zip_longest(p, q, fillvalue=0))

    @staticmethod
    def _scale(p, f) -> tuple:
        return trimmed(x * f for x in p)

    @staticmethod
    def _der(p) -> tuple:
        return trimmed([i * x for i, x in enumerate(p)][1:] or [0])

    @staticmethod
    def _neg(p) -> tuple:
        return tuple(-x for x in p)

    _same = staticmethod(operator.eq)
    _reduced = staticmethod(lambda p: p)  # every polynomial is a unique tuple


@lru_cache(maxsize=None)
def window_polys(n: int, k: int) -> tuple[list, list]:
    """The exact polynomials of the (n, k) window, as lrs._exact_polys lists
    them, from one pass of the closed forms on FractionFns."""
    return lrs._exact_polys(FractionFns.of([0, 1]), Fraction(n), k)
