"""Gegenbauer polynomials on the sphere S^{n-1} and monomial-basis conversions.

The family G_k^{(n)} used throughout this package is normalized so that
G_k(1) = 1 and satisfies the three-term recurrence

    G_0 = 1,   G_1 = t,
    G_k = ((2k + n - 4) * t * G_{k-1} - (k - 1) * G_{k-2}) / (k + n - 3).

These are the zonal spherical polynomials of the unit sphere in R^n; a
polynomial with nonnegative coefficients in this basis is positive
semidefinite as a two-point kernel on the sphere, which is the property
the linear-programming bounds rely on.

Monomial polynomials are plain coefficient arrays in ascending order
(coeffs[j] multiplies t**j), trimmed of trailing near-zeros.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Per-coefficient tolerance defining canonical (trailing-zero stripped) form.
COEFF_TRIM_TOL = 1e-12


def _check_dimension(n: int) -> None:
    if n < 2:
        raise ValueError(f"sphere dimension parameter must satisfy n >= 2, got {n}")


def _check_degree(k: int) -> None:
    if k < 0:
        raise ValueError(f"polynomial index must satisfy k >= 0, got {k}")


def _coeff_array(coeffs) -> np.ndarray:
    """coeffs as a new one-dimensional, nonempty float array (a scalar gives length 1)."""
    arr = np.array(coeffs, dtype=float, ndmin=1)
    if arr.ndim != 1:
        raise ValueError("coefficient array must be one-dimensional")
    if arr.size == 0:
        raise ValueError("coefficient array is empty")
    return arr


def as_monomial(coeffs) -> np.ndarray:
    """Canonical ascending coefficient array with trailing near-zeros stripped.

    Trailing entries with |c| <= COEFF_TRIM_TOL go (NaN among them); an input
    with none left gives [0.0] times its first entry.  Returns a new array.
    """
    arr = _coeff_array(coeffs)
    kept = np.flatnonzero(np.abs(arr) > COEFF_TRIM_TOL)
    return arr[: kept[-1] + 1] if kept.size else arr[:1] * 0


def _argument(t):
    """t as a Python float when it is a scalar, else as a new float array."""
    t = np.array(t, dtype=float)
    return t if t.ndim else float(t)


def _gegenbauer_values(n: int, t, k: int):
    """Yield G_0(t), ..., G_k(t) from the recurrence, on a Python float t or
    a float array t (G_1 is t itself).  Each G_j comes from the same IEEE
    operations either way, so the two give the same bits."""
    prev = np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
    yield prev
    if k == 0:
        return
    cur = t
    yield cur
    for j in range(2, k + 1):
        prev, cur = cur, ((2 * j + n - 4) * t * cur - (j - 1) * prev) / (j + n - 3)
        yield cur


def _series(n: int, coeffs: list[float], t):
    """sum_k coeffs[k] * G_k(t), added in index order over the nonzero
    coeffs, in one pass of the recurrence: a float for a Python float t, an
    array for a float array t."""
    total = np.zeros_like(t) if isinstance(t, np.ndarray) else 0.0
    for f, g in zip(coeffs, _gegenbauer_values(n, t, len(coeffs) - 1)):
        if f != 0.0:
            total = total + f * g
    return total


def gegenbauer_eval(n: int, k: int, t):
    """Evaluate G_k^{(n)} at t (scalar or array) via the recurrence."""
    _check_dimension(n)
    _check_degree(k)
    t = _argument(t)
    for g in _gegenbauer_values(n, t, k):
        pass
    return g


@lru_cache(maxsize=None)
def _gegenbauer_coeffs(n: int, k: int) -> tuple[float, ...]:
    # Same recurrence as gegenbauer_eval, carried on coefficient tuples.
    if k == 0:
        return (1.0,)
    if k == 1:
        return (0.0, 1.0)
    prev = _gegenbauer_coeffs(n, k - 2)
    cur = _gegenbauer_coeffs(n, k - 1)
    shifted = (0.0,) + cur  # multiply by t
    out = []
    for j in range(k + 1):
        hi = (2 * k + n - 4) * shifted[j]
        lo = (k - 1) * prev[j] if j < len(prev) else 0.0
        out.append((hi - lo) / (k + n - 3))
    return tuple(out)


def gegenbauer_poly(n: int, k: int) -> np.ndarray:
    """Monomial coefficients of G_k^{(n)}, ascending, length k+1."""
    _check_dimension(n)
    _check_degree(k)
    return np.array(_gegenbauer_coeffs(n, k), dtype=float)


@dataclass(frozen=True)
class GegenbauerExpansion:
    """A polynomial written as sum_k coeffs[k] * G_k^{(n)}.

    Since every G_k(1) = 1, the value at t = 1 is simply coeffs.sum().
    coeffs must be nonempty and one-dimensional (ValueError otherwise);
    trailing zeros are kept.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_dimension(self.n)
        object.__setattr__(self, "coeffs", _coeff_array(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        """The series at t (_series): a float for a scalar t, an array otherwise."""
        return _series(self.n, self.coeffs.tolist(), _argument(t))


def to_gegenbauer(n: int, poly) -> GegenbauerExpansion:
    """Expand a monomial polynomial in the G_k^{(n)} basis.

    Exact back-substitution from the top degree: the G_k have strictly
    positive leading coefficients, so the triangular system is always
    solvable.
    """
    _check_dimension(n)
    work = as_monomial(poly)
    deg = len(work) - 1
    out = np.zeros(deg + 1)
    for k in range(deg, -1, -1):
        basis = gegenbauer_poly(n, k)
        fk = work[k] / basis[k]
        out[k] = fk
        work[: k + 1] -= fk * basis
    return GegenbauerExpansion(n, out)


def from_gegenbauer(expansion: GegenbauerExpansion) -> np.ndarray:
    """Monomial coefficients (ascending, trimmed) of a Gegenbauer expansion."""
    n = expansion.n
    deg = expansion.degree
    out = np.zeros(deg + 1)
    for k, fk in enumerate(expansion.coeffs):
        if fk != 0.0:
            out[: k + 1] += fk * gegenbauer_poly(n, k)
    return as_monomial(out)
