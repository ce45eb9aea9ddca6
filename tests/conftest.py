import time

import pytest
from numpy.polynomial import polynomial as npoly

import twodist.lrs as lrs


@pytest.fixture(scope="session")
def full_table():
    """The 7..40 bound table computed cold, with its wall-clock time."""
    lrs.k_slice.cache_clear()
    t0 = time.perf_counter()
    rows = lrs.table(7, 40)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def _certificate(a, b, c, d):
    """A candidate's P = (t - a)(t - b) times 1, t + c or t^2 + c t + d in
    ascending monomial coefficients, multiplied out by numpy.polynomial
    rather than by the library; its leading coefficient is exactly 1.0."""
    extra = [1.0] if c is None else [c, 1.0] if d is None else [d, c, 1.0]
    return npoly.polymul(npoly.polyfromroots([a, b]), extra)


@pytest.fixture(scope="session")
def certificate():
    """The reference builder of a candidate's polynomial from (a, b, c, d)."""
    return _certificate
