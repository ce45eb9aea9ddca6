"""Known two-distance sets as lower-bound oracles for the window sweep.

An upper bound below the size of a set that exists is a wrong answer.  The
halved 5-cube (16 points in R^5, inner products 1/5 and -3/5) and the
Schlaefli set (27 points in R^6, inner products 1/4 and -1/2; the absolute
bound n(n + 3)/2) are largest two-distance sets (Lisonek, JCTA 1997), and
each lies in a window, (5, 2) and (6, 2), whose float maximum sits a few
ulps under its size: knife edges of the floor.  Both sets are built and
checked in integers.
"""
import itertools
from fractions import Fraction

import numpy as np
import pytest

import twodist.lrs as lrs
from twodist.bound_polys import floor_nudged
from twodist.constructions import UnitPointSet, verify_two_distance


def _dot(x, y) -> int:
    return sum(u * v for u, v in zip(x, y))


def _halved_cube() -> list[tuple]:
    """(+-1)^5 with an even number of minus signs: 16 points of squared norm 5."""
    return [p for p in itertools.product((1, -1), repeat=5) if p.count(-1) % 2 == 0]


def _e8_roots() -> list[tuple]:
    """The 240 roots of E8, doubled to integers (squared norm 8): (+-2, +-2, 0^6)
    in every placement, and (+-1)^8 with an even number of minus signs."""
    roots = []
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product((2, -2), repeat=2):
            root = [0] * 8
            root[i], root[j] = si, sj
            roots.append(tuple(root))
    return roots + [p for p in itertools.product((1, -1), repeat=8) if p.count(-1) % 2 == 0]


def _schlaefli() -> list[tuple]:
    """The roots x with <x, v> = <x, w> = 1 for two roots with <v, w> = 1 (4 in
    doubled units), projected off span(v, w): 3x - v - w, in R^8 of rank 6."""
    roots = _e8_roots()
    v = roots[0]
    w = next(r for r in roots if _dot(r, v) == 4)
    return [tuple(3 * p - q - r for p, q, r in zip(x, v, w)) for x in roots if _dot(x, v) == _dot(x, w) == 4]


def _rank(rows) -> int:
    """Rank over the rationals, by Gaussian elimination in Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


# (builder, size, n, k, a, b)
SETS = [
    (_halved_cube, 16, 5, 2, Fraction(1, 5), Fraction(-3, 5)),
    (_schlaefli, 27, 6, 2, Fraction(1, 4), Fraction(-1, 2)),
]
IDS = ["halved 5-cube", "Schlaefli"]


@pytest.mark.parametrize("build, size, n, k, a, b", SETS, ids=IDS)
def test_known_set_is_exactly_two_distance_in_its_window(build, size, n, k, a, b):
    points = build()
    assert len(points) == len(set(points)) == size
    (norm,) = {_dot(p, p) for p in points}
    products = {Fraction(_dot(p, q), norm) for p, q in itertools.combinations(points, 2)}
    assert products == {a, b}
    assert _rank(points) == n
    assert (1 - b) / (a - b) == k
    lo, hi = (Fraction(*end) for end in lrs._exact_ends(k))
    assert lo <= a < hi and b == (k * a - 1) / (k - 1)


@pytest.mark.parametrize("build, size, n, k, a, b", SETS, ids=IDS)
def test_sweep_never_undercuts_a_known_set(build, size, n, k, a, b):
    # Alone and in a batch: k_slice sweeps the window as a batch of one, and
    # a batch that also holds the 78 windows of 7..40 sweeps it among them.
    lrs.k_slice.cache_clear()
    assert lrs.k_slice(n, k).omega_hat_nk >= size
    batch = [(5, 2), (6, 2)] + [w for m in range(7, 41) for w in lrs._windows(m)]
    slices = lrs._sweep(batch)
    assert slices[batch.index((n, k))].omega_hat_nk >= size
    assert floor_nudged(lrs.q_bound(n, k, float(a))) >= size


@pytest.mark.parametrize("build, size, n, k, a, b", SETS, ids=IDS)
def test_known_set_certificate(build, size, n, k, a, b):
    # A non-midpoint input with known answers for the float clustering.
    points = np.array(build(), dtype=float)
    dim = points.shape[1]
    cert = verify_two_distance(UnitPointSet(dim, points / np.sqrt(points[0] @ points[0])))
    assert cert.valid
    assert abs(cert.a - float(a)) < 1e-12 and abs(cert.b - float(b)) < 1e-12
    exact = build()
    norm = _dot(exact[0], exact[0])
    counts = [sum(Fraction(_dot(p, q), norm) == t for p, q in itertools.combinations(exact, 2)) for t in (a, b)]
    assert cert.pair_counts == tuple(counts)
