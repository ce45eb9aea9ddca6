"""Explicit two-distance point sets and numerical certificates.

The midpoint construction takes all n(n+1)/2 midpoints of the edges of a
regular simplex with n + 1 vertices (equivalently, the vectors e_i + e_j
for 1 <= i < j <= n+1), recenters, rescales to unit norm, and expresses
the result in an orthonormal frame of the hyperplane x_1 + ... + x_{n+1} = 0
so that it lives honestly in R^n.  Its two inner products are

    a = (n - 3) / (2(n - 1))     (pairs sharing a simplex vertex)
    b = -2 / (n - 1)             (disjoint pairs)

with a + b = (n - 7) / (2(n - 1)) >= 0 exactly when n >= 7.

verify_two_distance and gram_check certify arbitrary unit point sets;
independence_rank measures the dimension spanned by the associated
quadratic functions together with the linear coordinate functionals.

gram_check reads the spectrum of the n x n matrix X^T X rather than of the
m x m Gram matrix X X^T, X holding the m points as rows: the two share their
nonzero eigenvalues and the rest are exactly 0, so psd and rank are the
same, and the midpoint set (m = n(n+1)/2) costs an n x n problem.

independence_rank uses the same argument the bound does: F(<x_i, x_j>) =
delta_ij on the set, so the m x m block of F values at the set points is the
identity, and block elimination leaves only an n x (n + 20) matrix to take
the rank of.  Its n + 20 test points off the set are random unit vectors
from one fixed seed (TEST_POINT_SEED), not an argument: the rank is the
same for any draw outside a measure-zero set.  It first checks each entry
on or above the diagonal of that block (within IDENTITY_BLOCK_TOL) and
raises ValueError when the points are not a two-distance set with the given
a and b.

Both certificates read each pair of points once, and never through an m x m
array: one block loop (_gram_blocks) computes X X^T from its diagonal on,
GRAM_BLOCK_ROWS rows at a time, each block x[start:stop] @ x[start:].T
written into a contiguous view of one buffer allocated per call, not a fresh
(page-faulting) array per block.  verify_two_distance copies the m(m-1)/2
entries above the diagonal into one buffer, two bulk copies per block, and
sorts it in place; independence_rank evaluates F in place on each block and
keeps only its largest deviation from the identity on and above the
diagonal.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Each tolerance admits rounding in computed entries and nothing else; the
# worst values measured on the midpoint sets n = 3..60 are quoted.  The worst
# squared norm misses 1 by 6.7e-16.
UNIT_NORM_TOL = 1e-10
# The widest cluster of Gram entries spans 1.0e-15.
CLUSTER_DIAMETER_TOL = 1e-8
# The closest two clusters lie 0.517 apart.
CLUSTER_GAP_TOL = 1e-6
# The smallest eigenvalue of X^T X is 2.0.
EIG_TOL = 1e-8
# The smallest singular value of S is 0.079 of its largest (n = 7..60), and
# rounding moves S by under 2e-10 of it (see independence_rank).
RANK_REL_TOL = 1e-8
IDENTITY_BLOCK_TOL = 1e-13
# Rows of X X^T per block in both certificates.  At n = 60 (m = 1830) the
# first, largest block and F's one temporary take 2 * 64 * 1830 * 8 B =
# 1.9 MB, inside a 2 MB per-core L2, and later blocks are narrower.  With one
# BLAS thread on a 2-vCPU Xeon, medians of 15 rounds over 16..256 rows:
# independence_rank 10.4 ms at n = 60 (10.3 with 48 rows, 10.6 with 32, 12.8
# with 16, 13.1 with 256) and 3.6 ms at n = 45; verify_two_distance 10.8 ms
# (10.9 with 48, 13.0 with 16, 12.6 with 256) and 3.4 ms.  48 and 64 rows
# tie within the run-to-run spread (0.3-0.9 ms) at both sizes.
GRAM_BLOCK_ROWS = 64
# Seed of independence_rank's n + 20 random test points, fixed because a
# setting for it would change no answer: the rank is the same for any draw
# outside a measure-zero set (seeds 5, 42, 123 and 987 agree in the tests).
TEST_POINT_SEED = 42


@dataclass(frozen=True)
class UnitPointSet:
    """m unit vectors in R^n, one per row of points."""

    n: int
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"points must be an (m, {self.n}) array, got shape {pts.shape}")
        norms = np.einsum("ij,ij->i", pts, pts)
        worst = float(np.max(np.abs(norms - 1.0))) if len(pts) else 0.0
        if not worst <= UNIT_NORM_TOL:
            raise ValueError(f"points must be unit vectors; worst squared-norm error {worst:.3g}")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def gram(self) -> np.ndarray:
        return self.points @ self.points.T


def _helmert_frame(d: int) -> np.ndarray:
    """(d-1) x d matrix with orthonormal rows spanning the hyperplane sum(x) = 0."""
    # Row j - 1 holds 1/sqrt(j(j + 1)) in its first j columns and -j times that
    # in column j.  j(j + 1) < 2^53 converts exactly and np.sqrt rounds
    # correctly, as math.sqrt does, so the frame is the same bit for bit.
    j = np.arange(1, d)
    scale = 1.0 / np.sqrt(j * (j + 1))
    h = np.tri(d - 1, d) * scale[:, None]
    h[j - 1, j] = -j * scale
    return h


def lambda_params(n: int) -> tuple[float, float]:
    """Inner products (a, b) of the midpoint construction in R^n."""
    if n < 2:
        raise ValueError(f"midpoint construction requires n >= 2, got {n}")
    return (n - 3.0) / (2.0 * (n - 1.0)), -2.0 / (n - 1.0)


def lambda_set(n: int) -> UnitPointSet:
    """The n(n+1)/2 recentered and rescaled simplex-edge midpoints, in R^n."""
    if n < 2:
        raise ValueError(f"midpoint construction requires n >= 2, got {n}")
    d = n + 1
    idx_i, idx_j = np.triu_indices(d, k=1)
    raw = np.zeros((len(idx_i), d))
    raw[np.arange(len(idx_i)), idx_i] = 1.0
    raw[np.arange(len(idx_j)), idx_j] += 1.0
    centered = raw - 2.0 / d
    centered /= math.sqrt(2.0 * (n - 1.0) / d)
    coords = centered @ _helmert_frame(d).T
    return UnitPointSet(n, coords)


@dataclass(frozen=True)
class TwoDistanceCertificate:
    """Clustering verdict for the off-diagonal Gram entries of a point set.

    a >= b are the cluster centers; pair_counts are the cluster sizes in the
    same order.  When valid is False, diagnostic says what went wrong.
    """

    a: float
    b: float
    pair_counts: tuple[int, int]
    valid: bool
    diagnostic: str | None = None


@functools.lru_cache(maxsize=1)
def _pairs_by_column(rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of the pairs i < j < rows, ordered by j, read-only.

    The pairs of an r x r square, r <= rows, are the first r(r - 1)/2, so one
    call serves every block.
    """
    j, i = np.tril_indices(rows, -1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _gram_blocks(x: np.ndarray, flat: np.ndarray):
    """X X^T from its diagonal on, GRAM_BLOCK_ROWS rows at a time.

    Yields (block, upper) for each start = 0, GRAM_BLOCK_ROWS, ...: block is
    x[start:stop] @ x[start:].T, written into a contiguous (r, m - start) view
    of flat (which holds at least min(GRAM_BLOCK_ROWS, m) * m entries), so
    column j is point start + j and block[i, i] is the diagonal entry of
    point start + i.  upper holds the (row, column) indices of the pairs
    above the diagonal of block[:, :r]; the pairs of row start + i with the
    points past stop are block[i, r:].  So every pair of points is in
    exactly one block above its diagonal, and no m x m array is formed.
    Each block is one GEMM call of this shape: OpenBLAS picks its kernels by
    shape, so computing a part of a block by a call of its own can move the
    last bits of entries, and with them verify_two_distance's means.
    """
    m = len(x)
    i, j = _pairs_by_column(GRAM_BLOCK_ROWS)
    for start in range(0, m, GRAM_BLOCK_ROWS):
        stop = min(start + GRAM_BLOCK_ROWS, m)
        r = stop - start
        pairs = r * (r - 1) // 2
        block = flat[: r * (m - start)].reshape(r, m - start)
        yield np.matmul(x[start:stop], x[start:].T, out=block), (i[:pairs], j[:pairs])


def verify_two_distance(s: UnitPointSet) -> TwoDistanceCertificate:
    """Split the sorted off-diagonal Gram entries at their first largest gap and test the clusters.

    The m(m-1)/2 entries above the diagonal of X X^T, X the m x n array of
    points, go into one buffer, two bulk copies per block of _gram_blocks: the
    triangle above the block's diagonal, then the rectangle right of it.  The
    buffer is sorted in place and split at its first largest gap, its gaps
    taken in chunks of GRAM_BLOCK_ROWS * m entries written into the block
    buffer.  a and b are the means of the two sides; the set is two-distance
    when each side spans less than CLUSTER_DIAMETER_TOL and the gap exceeds
    CLUSTER_GAP_TOL.
    """
    x = s.points
    m = len(x)
    if m < 3:
        raise ValueError(f"need at least 3 points to classify, got {m}")
    vals = np.empty(m * (m - 1) // 2)
    flat = np.empty(min(GRAM_BLOCK_ROWS, m) * m)
    pos = 0
    for block, upper in _gram_blocks(x, flat):
        r, cols = block.shape
        vals[pos : pos + len(upper[0])] = block[upper]
        pos += len(upper[0])
        vals[pos : pos + r * (cols - r)].reshape(r, cols - r)[...] = block[:, r:]
        pos += r * (cols - r)
    vals.sort()
    if vals[-1] - vals[0] < CLUSTER_DIAMETER_TOL:
        center = float(vals.mean())
        return TwoDistanceCertificate(
            center, center, (len(vals), 0), False, "one-distance set: a single inner product"
        )
    # Chunks overlap by one entry so that every gap is seen once; a later
    # chunk wins only with a strictly larger gap, as argmax picks the first.
    split, gap = 0, -math.inf
    chunk = GRAM_BLOCK_ROWS * m
    for lo in range(0, len(vals) - 1, chunk):
        part = vals[lo : lo + chunk + 1]
        gaps = np.subtract(part[1:], part[:-1], out=flat[: len(part) - 1])
        i = int(np.argmax(gaps))
        if gaps[i] > gap:
            split, gap = lo + i, float(gaps[i])
    low, high = vals[: split + 1], vals[split + 1 :]
    diam_low = float(low[-1] - low[0])
    diam_high = float(high[-1] - high[0])
    a = float(high.mean())
    b = float(low.mean())
    counts = (len(high), len(low))
    if diam_low < CLUSTER_DIAMETER_TOL and diam_high < CLUSTER_DIAMETER_TOL and gap > CLUSTER_GAP_TOL:
        return TwoDistanceCertificate(a, b, counts, True)
    return TwoDistanceCertificate(
        a, b, counts, False, "not two-distance: more than two inner-product clusters"
    )


def gram_check(s: UnitPointSet) -> tuple[bool, int]:
    """(is positive semidefinite, numerical rank) of the Gram matrix.

    The eigenvalues come from X^T X (n x n), X being the m x n array of
    points, instead of the Gram matrix X X^T (m x m).  Both have the same
    nonzero eigenvalues and differ only in how many exact zeros they carry,
    so the verdict is that of the Gram matrix itself.
    """
    x = s.points
    if len(x) == 0:
        raise ValueError("need at least 1 point to check the Gram matrix, got 0")
    w = np.linalg.eigvalsh(x.T @ x)
    psd = bool(w[0] > -EIG_TOL)
    rank = int(np.count_nonzero(w > EIG_TOL))
    return psd, rank


def independence_rank(s: UnitPointSet, a: float, b: float) -> int:
    """Rank of {F(<x, x_i>)}_i together with the n coordinate functionals.

    F(t) = (t - a)(t - b) / ((1 - a)(1 - b)) satisfies F(<x_i, x_j>) = delta_ij
    on a two-distance set with inner products {a, b}.  All m + n functions are
    evaluated at the m set points plus n + 20 random unit vectors Y, drawn
    from a generator seeded with TEST_POINT_SEED.
    With X the m x n array of points, the evaluation matrix is

        [ A    B  ]      A = F(X X^T)  (m x m),  B = F(X Y^T),
        [ X^T  Y^T]

    and A is the identity, so block elimination gives its rank as
    m + rank(S) with S = Y^T - X^T B, an n x (n + 20) matrix.  The rank of S
    counts the singular values above RANK_REL_TOL times S's largest one.

    Two things are checked, and a failure raises ValueError:

    - a + b >= 0: for a + b < 0 the functions need not be independent and
      the argument does not apply.
    - max |A - I| <= IDENTITY_BLOCK_TOL, that is, the points form a
      two-distance set with exactly these a and b.  Then
      ||A - I||_2 <= m * max |A - I| = eps, and the S above differs from the
      exact Schur complement Y^T - X^T A^{-1} B by X^T (A^{-1} - I) B, of norm
      at most ||X||_2 ||B||_2 eps / (1 - eps).  On the midpoint sets of
      n = 7..60, ||X||_2 ||B||_2 is at most 1.05 times S's largest singular
      value, so with m <= 1830 the error is below 2e-10 of it, fifty times
      under RANK_REL_TOL; the largest entry of A - I there is 3e-15.
      Each entry on or above the diagonal of A is checked once, in the
      blocks of _gram_blocks, and a NaN entry fails the check; A is never
      formed whole.  The entries below the diagonal need no check of their
      own: A is symmetric, and its lower triangle holds the same inner
      products, which a GEMM computes in another block and so gives equal up
      to rounding far below IDENTITY_BLOCK_TOL (on the midpoint sets of
      n = 7..60 the blocks of F(X X^T) differ from their transposes by at
      most 1.1e-16).  A block also holds, below the diagonal of its
      leading square, pairs it holds above it; those are set to 0 before
      the block's deviation is read.

    F is evaluated in place with one temporary, bit for bit as
    (t - a) * (t - b) / ((1 - a)(1 - b)), on each block of A and on X Y^T.
    """
    if a + b < 0:
        raise ValueError(
            f"hypothesis violated: requires a + b >= 0, got a + b = {a + b:.6g}"
        )
    x = s.points
    m, n = x.shape
    scale = (1.0 - a) * (1.0 - b)

    def f(t: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
        """F(t), in place with the temporary u: the same bits as (t - a) * (t - b) / scale."""
        u = np.subtract(t, b, out=u)
        t -= a
        t *= u
        t /= scale
        return t

    flat, tmp = np.empty((2, min(GRAM_BLOCK_ROWS, m) * m))
    for block, upper in _gram_blocks(x, flat):
        f(block, tmp[: block.size].reshape(block.shape))
        rows = np.arange(len(block))
        block[rows, rows] -= 1.0
        block[upper[1], upper[0]] = 0.0  # the pairs below the diagonal, read above it
        dev = float(np.abs(block, out=block).max())
        if not dev <= IDENTITY_BLOCK_TOL:
            raise ValueError(
                f"hypothesis violated: the points are not a two-distance set with "
                f"a = {a:.6g}, b = {b:.6g} (F(<x_i, x_j>) is {dev:.3g} off delta_ij)"
            )
    rng = np.random.default_rng(TEST_POINT_SEED)
    extra = rng.standard_normal((n + 20, n))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    schur = extra.T - x.T @ f(x @ extra.T)
    sv = np.linalg.svd(schur, compute_uv=False)
    return m + int(np.count_nonzero(sv > RANK_REL_TOL * sv[0]))
