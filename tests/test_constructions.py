import itertools
import math
import tracemalloc

import numpy as np
import pytest

import twodist.constructions as constructions
from twodist.constructions import (
    CLUSTER_DIAMETER_TOL,
    CLUSTER_GAP_TOL,
    EIG_TOL,
    GRAM_BLOCK_ROWS,
    RANK_REL_TOL,
    TwoDistanceCertificate,
    UnitPointSet,
    gram_check,
    independence_rank,
    lambda_params,
    lambda_set,
    verify_two_distance,
)


def _simplex(n):
    """Regular simplex on the sphere: n + 1 points, one inner product -1/n."""
    d = n + 1
    raw = np.eye(d) - np.full((d, d), 1.0 / d)
    frame = np.linalg.svd(raw, full_matrices=False)[2][:n].T
    coords = raw @ frame
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    return UnitPointSet(n, coords)


def test_midpoint_set_sizes():
    for n in range(2, 31):
        s = lambda_set(n)
        assert len(s) == n * (n + 1) // 2
        assert s.n == n


def test_midpoint_parameters_examples():
    assert lambda_params(7) == (1.0 / 3, -1.0 / 3)
    a23, b23 = lambda_params(23)
    assert abs(a23 - 5.0 / 11) < 1e-15 and abs(b23 + 1.0 / 11) < 1e-15
    assert lambda_params(3) == (0.0, -1.0)
    with pytest.raises(ValueError, match=r"n >= 2, got 1"):
        lambda_params(1)


def test_midpoint_sets_are_two_distance():
    for n in range(3, 31):
        s = lambda_set(n)
        cert = verify_two_distance(s)
        assert cert.valid, (n, cert.diagnostic)
        a, b = lambda_params(n)
        assert abs(cert.a - a) < 1e-10
        assert abs(cert.b - b) < 1e-10
        m = len(s)
        count_a = (n + 1) * math.comb(n, 2)
        assert cert.pair_counts == (count_a, m * (m - 1) // 2 - count_a)


def test_midpoint_pair_counts_n7():
    cert = verify_two_distance(lambda_set(7))
    assert cert.pair_counts == (168, 210)


def test_one_distance_set_is_rejected_with_diagnostic():
    cert = verify_two_distance(_simplex(5))
    assert not cert.valid
    assert "one-distance" in cert.diagnostic
    assert abs(cert.a + 1.0 / 5) < 1e-10


def test_generic_random_points_are_not_two_distance():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((3, 6))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    cert = verify_two_distance(UnitPointSet(6, pts))
    assert not cert.valid
    assert "more than two" in cert.diagnostic


def test_verify_requires_three_points():
    pts = np.eye(4)[:2]
    with pytest.raises(ValueError):
        verify_two_distance(UnitPointSet(4, pts))


def _verify_by_full_gram(s):
    """verify_two_distance read through the whole Gram matrix and an m x m mask."""
    m = len(s)
    vals = s.gram()[np.triu(np.ones((m, m), dtype=bool), k=1)]
    vals.sort()
    if vals[-1] - vals[0] < CLUSTER_DIAMETER_TOL:
        center = float(vals.mean())
        return TwoDistanceCertificate(
            center, center, (len(vals), 0), False, "one-distance set: a single inner product"
        )
    gaps = np.diff(vals)
    split = int(np.argmax(gaps))
    low, high = vals[: split + 1], vals[split + 1 :]
    valid = (
        low[-1] - low[0] < CLUSTER_DIAMETER_TOL
        and high[-1] - high[0] < CLUSTER_DIAMETER_TOL
        and gaps[split] > CLUSTER_GAP_TOL
    )
    diagnostic = None if valid else "not two-distance: more than two inner-product clusters"
    return TwoDistanceCertificate(
        float(high.mean()), float(low.mean()), (len(high), len(low)), bool(valid), diagnostic
    )


def _assert_same_verdict(s):
    got, want = verify_two_distance(s), _verify_by_full_gram(s)
    assert (got.valid, got.pair_counts, got.diagnostic) == (want.valid, want.pair_counts, want.diagnostic)
    for x, y in ((got.a, want.a), (got.b, want.b)):
        # A block's dot products (gemm) may round differently from the whole
        # Gram's (syrk on some BLAS builds); the CLI's bytes are pinned by the goldens.
        assert abs(x - y) <= 4 * np.spacing(max(abs(x), abs(y))), (x, y)


def _half_integer_set(rows):
    """Unit vectors of (+-1/2)^4: every inner product is exact, in {-1, -1/2, 0, 1/2, 1},
    so the sorted entries have several largest gaps of exactly 1/2."""
    cube = np.array(list(itertools.product((-0.5, 0.5), repeat=4)))
    return UnitPointSet(4, cube[rows])


def test_verify_matches_full_gram_on_midpoint_sets():
    for n in range(3, 61):
        _assert_same_verdict(lambda_set(n))


def test_verify_matches_full_gram_on_subsets_across_block_edges():
    rng = np.random.default_rng(1966)
    s = lambda_set(24)  # 300 points
    sizes = (3, 10, GRAM_BLOCK_ROWS - 1, GRAM_BLOCK_ROWS, GRAM_BLOCK_ROWS + 1, 3 * GRAM_BLOCK_ROWS + 5, 299)
    for size in sizes:
        rows = np.sort(rng.choice(len(s), size=size, replace=False))
        _assert_same_verdict(UnitPointSet(24, s.points[rows]))


def test_verify_matches_full_gram_on_sets_that_are_not_two_distance():
    rng = np.random.default_rng(1977)
    _assert_same_verdict(_simplex(5))
    rows = GRAM_BLOCK_ROWS
    for m, n in ((3, 6), (rows - 1, 5), (rows, 8), (rows + 1, 3), (4 * rows + 3, 12)):
        _assert_same_verdict(_random_unit_set(rng, m, n, n))
    pts = lambda_set(12).points.copy()
    pts[5] += 1e-6 * np.arange(12)
    pts[5] /= np.linalg.norm(pts[5])
    _assert_same_verdict(UnitPointSet(12, pts))


@pytest.mark.parametrize("block_rows", [1, 2, 3, GRAM_BLOCK_ROWS])
def test_verify_keeps_the_first_of_tied_largest_gaps(monkeypatch, block_rows):
    # Small blocks cut the sorted entries into many gap chunks, so that tied
    # gaps fall in different chunks and at their edges.
    monkeypatch.setattr(constructions, "GRAM_BLOCK_ROWS", block_rows)
    cert = verify_two_distance(_half_integer_set([15, 14, 12, 8]))  # entries -1/2, 0, 0, 1/2 x 3
    assert cert == TwoDistanceCertificate(
        0.3, -0.5, (5, 1), False, "not two-distance: more than two inner-product clusters"
    )
    rng = np.random.default_rng(1973)
    for size in (3, 4, 5, 7, 9, 12, 16):
        for _ in range(4):
            rows = np.sort(rng.choice(16, size=size, replace=False))
            _assert_same_verdict(_half_integer_set(rows))
    _assert_same_verdict(lambda_set(9))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certificates_never_hold_an_m_by_m_array():
    s = lambda_set(60)
    a, b = lambda_params(60)
    m = len(s)
    assert _traced_peak(lambda: verify_two_distance(s)) < 1.3 * 8 * m * (m - 1) / 2
    assert _traced_peak(lambda: independence_rank(s, a, b)) < 8e6


def test_gram_check_midpoint_sets():
    for n in range(2, 61):
        psd, rank = gram_check(lambda_set(n))
        assert psd
        assert rank == n


def test_gram_check_detects_low_rank():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    psd, rank = gram_check(UnitPointSet(2, pts))
    assert psd and rank == 1


def _gram_check_by_definition(s):
    w = np.linalg.eigvalsh(s.gram())
    return bool(w[0] > -EIG_TOL), int(np.count_nonzero(w > EIG_TOL))


def _random_unit_set(rng, m, n, rank):
    """m seeded random unit vectors in R^n spanning a random rank-dimensional subspace."""
    basis = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    pts = rng.standard_normal((m, rank)) @ basis.T
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return UnitPointSet(n, pts)


def test_gram_check_matches_definition_on_midpoint_sets():
    for n in (2, 7, 23, 60):
        s = lambda_set(n)
        assert gram_check(s) == _gram_check_by_definition(s), n


def test_gram_check_matches_definition_on_random_sets():
    rng = np.random.default_rng(2008)
    shapes = [(1, 1), (1, 5), (3, 7), (4, 4), (6, 6), (9, 4), (40, 12), (119, 15)]
    for m, n in shapes:
        for rank in range(1, min(m, n) + 1):
            s = _random_unit_set(rng, m, n, rank)
            assert gram_check(s) == _gram_check_by_definition(s) == (True, rank), (m, n, rank)


def test_gram_check_rejects_empty_set():
    with pytest.raises(ValueError, match="at least 1 point"):
        gram_check(UnitPointSet(3, np.empty((0, 3))))


def test_point_set_validates_unit_norms():
    with pytest.raises(ValueError):
        UnitPointSet(3, np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
    with pytest.raises(ValueError):
        UnitPointSet(3, np.ones((2, 4)))


def test_point_set_rejects_non_finite_coordinates():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="unit vectors"):
            UnitPointSet(2, np.array([[bad, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_annihilator_is_identity_on_the_set():
    # F(t) = (t-a)(t-b)/((1-a)(1-b)) maps the Gram matrix to the identity
    for n in (7, 10):
        s = lambda_set(n)
        a, b = lambda_params(n)
        g = s.gram()
        f = (g - a) * (g - b) / ((1 - a) * (1 - b))
        assert np.max(np.abs(f - np.eye(len(s)))) < 1e-9


def test_independence_rank_examples():
    for n, expected in [(7, 35), (8, 44), (9, 54)]:
        s = lambda_set(n)
        a, b = lambda_params(n)
        assert independence_rank(s, a, b) == expected
        assert expected == n * (n + 1) // 2 + n


def _independence_rank_by_definition(s, a, b, rel_tol=RANK_REL_TOL):
    """Numerical rank of the whole (m + n) x (m + n + 20) evaluation matrix,
    at the same test points as independence_rank."""
    x = s.points
    n = x.shape[1]
    rng = np.random.default_rng(constructions.TEST_POINT_SEED)
    extra = rng.standard_normal((n + 20, n))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    eval_pts = np.vstack([x, extra])
    inner = x @ eval_pts.T
    top = (inner - a) * (inner - b) / ((1.0 - a) * (1.0 - b))
    sv = np.linalg.svd(np.vstack([top, eval_pts.T]), compute_uv=False)
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def test_independence_rank_matches_definition_on_midpoint_sets():
    for n in [*range(7, 31), 40]:
        s = lambda_set(n)
        a, b = lambda_params(n)
        rank = independence_rank(s, a, b)
        assert rank == _independence_rank_by_definition(s, a, b) == len(s) + n, n


def test_independence_rank_matches_definition_on_midpoint_subsets(monkeypatch):
    # Any subset of a midpoint set is two-distance with the same (a, b); the
    # test points of two seeds, the fixed one and another, give the same
    # rank as the definition at those points.
    rng = np.random.default_rng(1977)
    seeds = (constructions.TEST_POINT_SEED, 5)
    for n in (7, 9, 12, 16, 20):
        s = lambda_set(n)
        a, b = lambda_params(n)
        for size in (1, 3, n, len(s) // 2, len(s) - 1):
            rows = np.sort(rng.choice(len(s), size=size, replace=False))
            sub = UnitPointSet(n, s.points[rows])
            for seed in seeds:
                monkeypatch.setattr(constructions, "TEST_POINT_SEED", seed)
                rank = independence_rank(sub, a, b)
                assert rank == _independence_rank_by_definition(sub, a, b), (n, size, seed)


def test_independence_rank_rejects_sets_that_are_not_two_distance_with_a_b():
    with pytest.raises(ValueError, match="not a two-distance set"):
        independence_rank(lambda_set(9), *lambda_params(8))
    s = lambda_set(12)
    pts = s.points.copy()
    pts[5] += 1e-6 * np.arange(12)
    pts[5] /= np.linalg.norm(pts[5])
    with pytest.raises(ValueError, match="not a two-distance set"):
        independence_rank(UnitPointSet(12, pts), *lambda_params(12))
    a, b = lambda_params(7)
    for bad_a, bad_b in ((math.nan, b), (a, math.nan)):
        with pytest.raises(ValueError, match="not a two-distance set"):
            independence_rank(lambda_set(7), bad_a, bad_b)


def test_independence_rank_rejects_negative_sum():
    s = lambda_set(5)
    a, b = lambda_params(5)
    assert a + b < 0
    with pytest.raises(ValueError, match="a \\+ b"):
        independence_rank(s, a, b)


def test_independence_rank_is_seed_stable(monkeypatch):
    # The seed of the test points is fixed because it changes no rank.
    s = lambda_set(7)
    a, b = lambda_params(7)
    ranks = []
    for seed in (123, 123, 987):
        monkeypatch.setattr(constructions, "TEST_POINT_SEED", seed)
        ranks.append(independence_rank(s, a, b))
    assert ranks == [35, 35, 35]
