import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from twodist.bound_polys import (
    CANDIDATE_INDICES,
    DEFAULT_TOL,
    MAX_TOL,
    WINNER_REL_TOL,
    InnerProductPair,
    _SHAPES,
    _WINNERS,
    _forms,
    _in_domain,
    _regular,
    best_bound,
    best_of,
    best_of_samples,
    build_candidate,
    candidate_values,
    candidates,
    delsarte_check,
    floor_nudged,
)
from twodist.gegenbauer import GegenbauerExpansion, _gegenbauer_coeffs, from_gegenbauer, to_gegenbauer
from twodist.constructions import lambda_params
from twodist.lrs import q_bound


def _u1_closed_form(n, a, b):
    # Direct oracle: (1 - a)(1 - b) / (ab + 1/n), valid when a + b <= 0 < ab + 1/n.
    return (1.0 - a) * (1.0 - b) / (a * b + 1.0 / n)


def _random_pair(rng, n_hi=41):
    n = int(rng.integers(2, n_hi))
    b, a = np.sort(rng.uniform(-1.0, 1.0, 2))
    while not (-1.0 <= b < a < 1.0):
        b, a = np.sort(rng.uniform(-1.0, 1.0, 2))
    return InnerProductPair(n, float(a), float(b))


def test_quadratic_candidate_equiangular_n7():
    cand = build_candidate(1, InnerProductPair(7, 1.0 / 3, -1.0 / 3))
    assert cand.in_domain
    assert np.allclose(cand.expansion.coeffs, [2.0 / 63, 0.0, 6.0 / 7], atol=1e-12)
    assert abs(cand.value - 28.0) < 1e-9
    assert abs(cand.value - _u1_closed_form(7, 1.0 / 3, -1.0 / 3)) < 1e-9


def test_quadratic_candidate_equiangular_n23():
    cand = build_candidate(1, InnerProductPair(23, 0.2, -0.2))
    assert cand.in_domain
    assert abs(cand.value - 276.0) < 1e-6
    assert abs(_u1_closed_form(23, 0.2, -0.2) - 276.0) < 1e-6


def test_cubic_multiplier_undefined_at_zero_sum():
    for n in (5, 9, 30):
        cand = build_candidate(2, InnerProductPair(n, 0.25, -0.25))
        assert not cand.in_domain
        assert cand.c is None
        assert math.isinf(cand.value)


def test_symmetric_cubic_zeroes_f2():
    cand = build_candidate(3, InnerProductPair(10, 0.1, -0.5))
    assert cand.expansion is not None
    assert abs(cand.expansion.coeffs[2]) < 1e-12


def test_candidates_vanish_at_both_inner_products(certificate):
    # P(a) = P(b) = 0 for the polynomial whose expansion the candidate reports.
    rng = np.random.default_rng(11)
    for _ in range(60):
        pair = _random_pair(rng)
        for i in CANDIDATE_INDICES:
            cand = build_candidate(i, pair)
            if cand.expansion is None:
                continue
            poly = from_gegenbauer(cand.expansion)
            assert np.allclose(poly, certificate(pair.a, pair.b, cand.c, cand.d), rtol=0, atol=1e-9)
            assert abs(npoly.polyval(pair.a, poly)) < 1e-9
            assert abs(npoly.polyval(pair.b, poly)) < 1e-9


# Expansion rows that candidate i zeroes by construction.
ZEROED = {1: (), 2: (1,), 3: (2,), 4: (1, 2), 5: (2, 3)}


def test_constructed_coefficients_vanish_by_index(certificate):
    # Recomputed from the polynomial: cand.expansion holds exact zeros there.
    rng = np.random.default_rng(12)
    for _ in range(60):
        pair = _random_pair(rng)
        for i, rows in ZEROED.items():
            cand = build_candidate(i, pair)
            if cand.expansion is None:
                continue
            f = to_gegenbauer(pair.n, certificate(pair.a, pair.b, cand.c, cand.d)).coeffs
            for r in rows:
                assert abs(f[r]) < 1e-9, (pair, i, r)


def test_zeroed_expansion_entries_are_exact_zeros():
    rng = np.random.default_rng(16)
    for _ in range(200):
        pair = _random_pair(rng)
        for i, rows in ZEROED.items():
            cand = build_candidate(i, pair)
            if cand.expansion is not None:
                for r in rows:
                    x = cand.expansion.coeffs[r]
                    assert x == 0.0 and math.copysign(1.0, x) == 1.0, (pair, i, r)  # +0.0, prints "0"


def test_out_of_domain_when_sum_of_roots_positive():
    # f1 of the quadratic candidate is -(a+b) = -1.7 < 0 here.
    cand = build_candidate(1, InnerProductPair(5, 0.9, 0.8))
    assert not cand.in_domain
    assert math.isinf(cand.value)


def test_in_domain_value_is_positive():
    rng = np.random.default_rng(13)
    for _ in range(80):
        pair = _random_pair(rng)
        for i in CANDIDATE_INDICES:
            cand = build_candidate(i, pair)
            if cand.in_domain:
                assert cand.value > 0.0
                f = cand.expansion.coeffs
                assert f[0] > 0.0
                assert np.all(f >= -1e-9)


def test_candidates_meet_their_definition(certificate):
    # Recompute each candidate's expansion from its polynomial: the closed-form
    # c and d must zero the constructed rows, and f_0, the value and the
    # domain verdict must follow the definition.
    rng = np.random.default_rng(14)
    tol = DEFAULT_TOL
    checked = 0
    for _ in range(300):
        pair = _random_pair(rng)
        forms = _forms(pair.n, np.float64(pair.a), np.float64(pair.b))
        for i in CANDIDATE_INDICES:
            cand = build_candidate(i, pair)
            if cand.expansion is None:
                continue
            poly = certificate(pair.a, pair.b, cand.c, cand.d)
            f = to_gegenbauer(pair.n, poly).coeffs
            scale = max(1.0, float(np.abs(f).max()))
            for r in ZEROED[i]:
                assert abs(f[r]) < 1e-9 * scale, (pair, i, r)
            assert abs(f[0] - float(forms[i - 1].f0)) <= 1e-9 * scale, (pair, i)
            if cand.in_domain:
                at_one = npoly.polyval(1.0, poly)
                assert abs(cand.value - at_one / f[0]) <= 1e-9 * abs(cand.value), (pair, i)
            if np.all(np.abs(np.abs(f) - tol) > 1e-12):
                assert cand.in_domain == bool(f[0] > tol and np.all(f >= -tol)), (pair, i, f)
            checked += 1
    assert checked > 1000


# Expansion slot of the coefficient that candidate i leaves free.
FREE = {1: 1, 2: 2, 3: 1, 4: 3, 5: 1}


def test_displayed_expansion_is_the_verdicts(certificate):
    # The printed f_0 and f_j are the closed-form numbers the domain rule
    # tests, so the verdict reads off the expansion with no exemption.
    rng = np.random.default_rng(18)
    tol = DEFAULT_TOL
    checked = 0
    for _ in range(1000):
        pair = _random_pair(rng, n_hi=81)
        forms = _forms(pair.n, np.float64(pair.a), np.float64(pair.b))
        for cand, form in zip(candidates(pair, tol), forms):
            if cand.expansion is None:
                continue
            f = cand.expansion.coeffs
            assert f[0] == float(form.f0) and f[FREE[cand.index]] == float(form.fj), (pair, cand.index)
            poly = certificate(pair.a, pair.b, cand.c, cand.d)
            assert f[-1] == to_gegenbauer(pair.n, poly).coeffs[-1], (pair, cand.index)
            assert cand.in_domain == bool(f[0] > tol and f.min() >= -tol), (pair, cand.index, f)
            checked += 1
    assert checked > 3000


def test_single_pair_routes_agree_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        pair = _random_pair(rng, n_hi=61)
        col = candidate_values(pair.n, [pair.a], [pair.b])[:, 0]
        for i in CANDIDATE_INDICES:
            assert build_candidate(i, pair).value == col[i - 1], (pair, i)
        best, winners = best_bound(pair)
        assert best == col.min(), pair
        assert (best, winners) == best_of(col.tolist())


def _hex(x):
    return None if x is None else float(x).hex()  # every NaN is "nan"


def _numpy_rule_fields(pair, tol):
    """Each candidate's (c, d, in_domain, value, expansion) as float.hex
    strings, with the domain rule decided by _regular and _in_domain as
    numpy operations on the np.float64 closed forms."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        forms = _forms(pair.n, np.float64(pair.a), np.float64(pair.b))
        verdicts = [(bool(_regular(f)), bool(_in_domain(f, tol))) for f in forms]
    out = []
    for i, form, (regular, in_domain) in zip(CANDIDATE_INDICES, forms, verdicts):
        if not regular:
            out.append((None, None, False, _hex(math.inf), None))
            continue
        deg, slot = _SHAPES[i]
        f = [0.0] * (deg + 1)
        f[0], f[slot], f[deg] = form.f0, form.fj, 1.0 / _gegenbauer_coeffs(pair.n, deg)[deg]
        value = form.value if in_domain else math.inf
        out.append((_hex(form.c), _hex(form.d), in_domain, _hex(value), [_hex(x) for x in f]))
    return out


def test_candidates_decide_the_domain_as_numpy_does():
    rng = np.random.default_rng(29)
    pairs = [
        InnerProductPair(23, 0.2, -0.2), InnerProductPair(22, 1.0 / 6, -0.25),
        InnerProductPair(46, 1.0 / 8, -1.0 / 6), InnerProductPair(7, 0.9, -0.95),
        InnerProductPair(9, 0.0, -0.5), InnerProductPair(9, 0.5, 0.0), InnerProductPair(2, 0.0, -1.0),
        # a + b = 1.1e-12 lies below SINGULAR_REL_TOL * (|a| + |b|) but not below SINGULAR_REL_TOL
        InnerProductPair(9, 0.6, -0.6 + 1.1e-12),
        # det4 = 0 with s != 0; s = 0 and det4 = 0 together; p + 1/n = 0
        InnerProductPair(10, 0.5, 0.0), InnerProductPair(10, 0.5, -0.5), InnerProductPair(2, 0.5, -1.0),
    ] + [_random_pair(rng, n_hi=61) for _ in range(1000)]
    for pair in pairs:
        for tol in (DEFAULT_TOL, 0.0, MAX_TOL):
            got = [
                (_hex(c.c), _hex(c.d), c.in_domain, _hex(c.value),
                 None if c.expansion is None else [_hex(x) for x in c.expansion.coeffs])
                for c in candidates(pair, tol)
            ]
            assert got == _numpy_rule_fields(pair, tol), (pair, tol)


@pytest.mark.parametrize("n, a, b, value", [
    (22, Fraction(1, 6), Fraction(-1, 4), 275), (46, Fraction(1, 8), Fraction(-1, 6), 1127),
], ids=["n22", "n46"])
def test_exact_forms_survive_a_vanishing_f0(n, a, b, value):
    # At these three-way crossings candidate 2's f_0 is exactly 0.  Its
    # value is divided only where it is read, so the other four forms stand.
    forms = _forms(Fraction(n), a, b)
    assert len(forms) == 5 and None not in forms
    assert [forms[i - 1].value for i in (1, 3, 4)] == [value] * 3
    assert forms[1].f0 == 0
    with pytest.raises(ZeroDivisionError):
        forms[1].value


def test_a_zero_divisor_ends_only_its_own_candidate():
    # s = 0 and det4 = 0 at (10, 0.5, -0.5): on Python floats the builders of
    # candidates 2 and 4 raise, and only those two forms are None.
    assert [f is None for f in _forms(10, 0.5, -0.5)] == [False, True, False, True, False]
    assert [f is None for f in _forms(10, 0.5, 0.0)] == [False, False, False, True, False]
    # candidates reads n, a and b as a Python int and floats, so numpy scalars
    # raise there too instead of dividing by zero with a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cands = candidates(InnerProductPair(np.int64(10), np.float64(0.5), np.float64(-0.5)))
    assert [c.expansion is None for c in cands] == [False, True, False, True, False]


def test_candidate_values_rejects_dimension_below_two():
    with pytest.raises(ValueError, match=r"n >= 2, got 1"):
        candidate_values(1, [0.2], [-0.2])


def test_candidate_values_takes_an_integer_dimension_as_candidates_does():
    # 10.5 once gave numbers where candidates raises; a numpy integer is an int.
    for n in (10.5, 10.0):
        with pytest.raises(TypeError):
            candidate_values(n, [0.2], [-0.2])
        with pytest.raises(TypeError):
            candidates(InnerProductPair(n, 0.2, -0.2))
    assert candidate_values(np.int64(10), [0.2], [-0.2]).tolist() == candidate_values(10, [0.2], [-0.2]).tolist()


@pytest.mark.parametrize("a, b", [([0.1], [0.2, 0.3]), ([0.1, 0.2], [-0.3]), ([[0.1]], [[-0.3]])])
def test_candidate_values_rejects_pairs_of_unequal_length(a, b):
    # ([0.1], [0.2, 0.3]) once broadcast to shape (5, 2), not (5, len(a)).
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        candidate_values(10, a, b)


def _slack_edge(best: float) -> tuple[float, float]:
    """The largest value that best_of counts as tied with best, and the next double."""
    slack = WINNER_REL_TOL * max(1.0, abs(best))
    v = best + slack
    while v - best > slack:
        v = math.nextafter(v, -math.inf)
    while math.nextafter(v, math.inf) - best <= slack:
        v = math.nextafter(v, math.inf)
    return v, math.nextafter(v, math.inf)


def test_best_of_samples_equals_best_of_on_edge_columns():
    nan, inf = math.nan, math.inf
    columns = [
        [nan, 3.0, 2.0, inf, 5.0],  # a NaN in row 0 is the minimum and wins nothing
        [4.0, nan, 2.0, 2.0, inf],  # a NaN in a later row is passed over
        [inf] * 5,
        [inf, -inf, inf, 7.0, inf],
        [0.0, 1e-9, math.nextafter(1e-9, inf), 0.5, inf],  # 1e-9 - 0 is exactly the slack
        [3.0, *_slack_edge(3.0), 3.0, inf],  # the last tie and one ulp above it
        [-0.25, *_slack_edge(-0.25), 0.75, -0.25],  # |best| < 1
        [0.0, -0.0, 0.0, inf, nan],  # the first of equal minima is kept
        [276.0, 276.0, inf, 276.00000000000006, 300.0],
    ]
    q, masks = best_of_samples(np.array(columns).T)
    q, winning = q.tolist(), _WINNERS[masks].tolist()
    expected = [best_of(col) for col in columns]
    assert [(x.hex(), w) for x, w in zip(q, winning)] == [(x.hex(), w) for x, w in expected]
    assert [w for _, w in expected[4:7]] == [(1, 2), (1, 2, 4), (1, 2, 5)]
    assert (expected[0][1], expected[2], expected[3]) == ((), (inf, ()), (inf, ()))


def test_three_way_knife_edge_at_n22():
    # (22, 1/6, -1/4) is the crossing of candidates 1, 3 and 4 at 275, where
    # candidate 2's f_0 vanishes.
    pair = InnerProductPair(22, 1.0 / 6, -0.25)
    assert not build_candidate(2, pair).in_domain
    value, winners = best_bound(pair)
    assert winners == (1, 3, 4)
    assert value == candidate_values(22, [1.0 / 6], [-0.25]).min()
    assert abs(value - 275.0) < 1e-9


@pytest.mark.parametrize("entry", [
    lambda tol: build_candidate(1, InnerProductPair(22, 1.0 / 6, -0.75), tol),
    lambda tol: best_bound(InnerProductPair(22, 1.0 / 6, -0.75), tol),
    lambda tol: candidate_values(22, [1.0 / 6], [-0.75], tol),
], ids=["build_candidate", "best_bound", "candidate_values"])
def test_single_pair_tolerance_outside_range_is_rejected(entry):
    # tol = 0.5 used to return (inf, ()) from best_bound where the default gives 55.
    for tol in (0.5, -1e-3, math.nan):
        with pytest.raises(ValueError, match=r"tolerance must satisfy 0 <= tol <= 1e-06"):
            entry(tol)
    entry(0.0)
    entry(MAX_TOL)
    assert abs(best_bound(InnerProductPair(22, 1.0 / 6, -0.75), MAX_TOL)[0] - 55.0) < 1e-9


def test_best_bound_equiangular_n7():
    value, winning = best_bound(InnerProductPair(7, 1.0 / 3, -1.0 / 3))
    assert abs(value - 28.0) < 1e-9
    assert 1 in winning


def test_best_bound_no_candidate():
    value, winning = best_bound(InnerProductPair(4, 0.9, 0.8))
    if math.isinf(value):
        assert winning == ()
    else:
        assert winning


def test_best_bound_matches_window_sweep_point():
    # a = -0.2 forces b = -0.8 at ratio index 3.
    value, _ = best_bound(InnerProductPair(25, -0.2, -0.8))
    assert math.isfinite(value)
    assert abs(value - q_bound(25, 3, -0.2)) < 1e-9
    assert value <= 284.15


def test_bounds_never_undercut_midpoint_construction():
    # The midpoint set realizes n(n+1)/2 points at these inner products, so
    # every admissible certificate value must be at least that large.
    for n in range(7, 41):
        a, b = lambda_params(n)
        for i in CANDIDATE_INDICES:
            cand = build_candidate(i, InnerProductPair(n, a, b))
            if cand.in_domain:
                assert cand.value >= n * (n + 1) / 2 - 1e-6, (n, i)


def test_delsarte_check_accepts_quadratic_certificates():
    e7 = to_gegenbauer(7, npoly.polyfromroots([1.0 / 3, -1.0 / 3]))
    res = delsarte_check(e7, [1.0 / 3, -1.0 / 3])
    assert res.ok and res.bound == 28
    e23 = to_gegenbauer(23, npoly.polyfromroots([0.2, -0.2]))
    res = delsarte_check(e23, [0.2, -0.2])
    assert res.ok and res.bound == 276


def test_delsarte_check_consistent_with_candidates():
    rng = np.random.default_rng(15)
    done = 0
    while done < 40:
        pair = _random_pair(rng)
        for i in CANDIDATE_INDICES:
            cand = build_candidate(i, pair)
            if not cand.in_domain:
                continue
            res = delsarte_check(cand.expansion, [pair.a, pair.b])
            assert res.ok, (pair, i, res.violation)
            assert res.bound == floor_nudged(cand.value)
            done += 1


def test_delsarte_check_rejects_positive_on_support():
    from twodist.gegenbauer import GegenbauerExpansion

    res = delsarte_check(GegenbauerExpansion(7, [1.0]), [0.3])
    assert not res.ok
    assert "positive value" in res.violation


def test_delsarte_check_rejects_negative_coefficient():
    from twodist.gegenbauer import GegenbauerExpansion

    res = delsarte_check(GegenbauerExpansion(7, [-1.0, 0.0, 1.0]), [0.0])
    assert not res.ok
    assert "negative" in res.violation
    # the first of equal smallest coefficients is the one named
    res = delsarte_check(GegenbauerExpansion(7, [1.0, 0.5, -0.25, 0.5, -0.25]), [0.0])
    assert res.violation == "negative Gegenbauer coefficient f_2 = -0.25"


def test_delsarte_check_rejects_zero_constant_term():
    from twodist.gegenbauer import GegenbauerExpansion

    res = delsarte_check(GegenbauerExpansion(7, [0.0, 1.0]), [-1.0])
    assert not res.ok
    assert "f_0" in res.violation


def test_delsarte_check_rejects_nan_on_support():
    e7 = to_gegenbauer(7, npoly.polyfromroots([1.0 / 3, -1.0 / 3]))
    res = delsarte_check(e7, [1.0 / 3, math.nan])
    assert not res.ok and res.bound is None
    assert "f(nan)" in res.violation


def test_delsarte_check_rejects_non_finite_coefficients():
    for coeffs, t_values in [([1.0, math.nan], []), ([1.0, math.inf], [-0.5])]:
        res = delsarte_check(GegenbauerExpansion(7, coeffs), t_values)
        assert not res.ok and res.bound is None
        assert "non-finite Gegenbauer coefficient f_1" in res.violation
    # finite coefficients whose sum f(1) overflows
    res = delsarte_check(GegenbauerExpansion(7, [1.0, 1e308, 1e308]), [])
    assert not res.ok and res.bound is None
    assert "non-finite bound" in res.violation


def test_pair_validation():
    with pytest.raises(ValueError):
        InnerProductPair(7, 0.2, 0.4)  # b > a
    with pytest.raises(ValueError):
        InnerProductPair(7, 1.0, 0.0)  # a not < 1
    with pytest.raises(ValueError):
        InnerProductPair(7, 0.2, -1.2)  # b < -1
    with pytest.raises(ValueError):
        InnerProductPair(1, 0.2, -0.2)  # dimension
    with pytest.raises(ValueError):
        build_candidate(6, InnerProductPair(7, 0.2, -0.4))


def test_delsarte_check_tolerance_range():
    # A tolerance of 1 accepted f_1 = -0.9 and gave "cardinality bound 0";
    # a negative one lets f_0 > tol pass f_0 <= 0.
    e = GegenbauerExpansion(7, [1.01, -0.9])
    for tol in (1.0, 1e-5, -1e-12, -1.0, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            delsarte_check(e, [0.5], tol=tol)
    for tol in (0.0, 1e-9, MAX_TOL):
        assert "negative Gegenbauer coefficient f_1" in delsarte_check(e, [0.5], tol=tol).violation
