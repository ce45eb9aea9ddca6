import inspect
import itertools
import json
import math
import operator
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import ratfns
import twodist.bound_polys as bound_polys
import twodist.lrs as lrs
from fraction_fns import FractionFns, trimmed, window_polys
from golden_floors import WINDOWS as FLOOR_WINDOWS, floor_record, load as load_floors
from test_acceptance import EXPECTED
from test_golden_windows import WINDOWS, load as load_golden_windows, record
from twodist.bound_polys import (
    DEFAULT_TOL, MAX_TOL, InnerProductPair, _forms, best_bound, best_of, candidate_values,
)
from twodist.lrs import (
    TableRow,
    b_k,
    g_upper,
    interval,
    k_max,
    k_slice,
    omega_hat,
    omega_hat_nk,
    phi,
    profile,
    q_bound,
    rho,
    table,
)


def test_forced_second_product_examples():
    assert b_k(2, 0.0) == -1.0
    assert abs(b_k(3, 0.2) + 0.2) < 1e-12
    assert abs(b_k(2, 1.0 / 3) + 1.0 / 3) < 1e-12


def test_forced_second_product_rejects_small_k():
    with pytest.raises(ValueError):
        b_k(1, 0.0)


def test_k_max_examples():
    assert k_max(7) == 2
    assert k_max(12) == 2
    assert k_max(13) == 3
    assert k_max(24) == 3
    assert k_max(25) == 4
    assert k_max(32) == 4
    assert k_max(40) == 4
    assert k_max(2) == 2  # the formula gives 1; the sweep floor is 2


def test_k_max_steps_where_2n_reaches_an_odd_square():
    # k_max(n) is the largest k with (2k - 1)^2 <= 2n (at least 2); (2k - 1)^2
    # is odd, so 2n first reaches it at n = ((2k - 1)^2 + 1) / 2.
    for k in range(2, 1001):
        edge = (2 * k - 1) ** 2 // 2
        assert [k_max(edge - 1), k_max(edge), k_max(edge + 1)] == [max(k - 1, 2)] * 2 + [k], k


def test_interval_examples():
    assert interval(2) == (0.0, 1.0 / 3)
    assert interval(3) == (-1.0 / 3, 0.2)
    assert interval(4) == (-0.5, 1.0 / 7)


def test_window_consistency():
    rng = np.random.default_rng(21)
    for k in range(2, 7):
        lo, hi = interval(k)
        a = rng.uniform(lo, hi, 1000)
        b = np.array([b_k(k, x) for x in a])
        assert np.all(b >= -1.0 - 1e-12)
        assert np.all(b < a)
        assert np.all(a + b < 1e-9)
        # the sum vanishes exactly at the right endpoint
        assert abs(hi + b_k(k, hi)) < 1e-12


def test_q_equiangular_points():
    assert abs(q_bound(7, 2, 1.0 / 3) - 28.0) < 1e-6
    q = q_bound(23, 3, 0.2)
    assert 275.9 <= q <= 276.0 + 1e-6  # the quadratic certificate alone gives 276


def test_q_rejects_points_outside_window():
    with pytest.raises(ValueError):
        q_bound(7, 2, 0.5)
    with pytest.raises(ValueError):
        q_bound(7, 2, -0.1)


def test_phi_matches_quoted_maxima(full_table):
    assert abs(phi(25, 3) - 284.14) <= 0.05
    assert abs(phi(23, 3) - 277.095) <= 0.01


def test_phi_captures_endpoints():
    # No end or sampled point of a window may exceed its maximum: a missed
    # peak would understate the bound.  Four windows are sampled densely,
    # every window of the shipped range n = 7..40 more coarsely.
    dense = [(n, k, 19999) for n, k in [(7, 2), (23, 3), (25, 3), (40, 2)]]
    shipped = [(n, k, 2001) for n in range(7, 41) for k in range(2, k_max(n) + 1)]
    for n, k, samples in dense + shipped:
        lo, hi = interval(k)
        p = phi(n, k)
        assert p >= q_bound(n, k, lo) - 1e-9
        assert p >= q_bound(n, k, hi) - 1e-9
        finite = [s.q for s in profile(n, k, samples) if math.isfinite(s.q)]
        assert p >= max(finite) * (1 - 1e-12), (n, k)


def test_window_bound_examples():
    assert omega_hat_nk(7, 2) == 28
    assert omega_hat_nk(22, 3) == 275
    assert omega_hat_nk(25, 3) == 284


def test_window_maxima_on_three_way_crossings():
    # Three certificates (i = 1, 3, 4) cross exactly on an integer at
    # a = 1/6 for (22, 3) and at a = 1/8 for (46, 4); a sampled sweep that
    # misses the crossing floors these to 274 and 1126.  With the domain at
    # tol 0, phi at (46, 4) is the integer itself; shifted by 1e-9 it was
    # 1126.9999999999995.
    sl = k_slice(22, 3)
    assert sl.omega_hat_nk == 275 and abs(sl.a_star - 1.0 / 6) < 1e-12
    sl = k_slice(46, 4)
    assert omega_hat_nk(46, 4) == 1127 and abs(sl.a_star - 1.0 / 8) < 1e-12
    assert sl.phi == 1127.0


_FAMILY = [((2 * k - 1) ** 2 - 3, k) for k in range(2, 31)]


@pytest.mark.parametrize("k", range(2, 31))
def test_tight_family_floors_to_the_absolute_bound(k):
    # At n = (2k - 1)^2 - 3, a = 1/(2k) lies in the window and candidates 1, 3
    # and 4 all equal the absolute bound n(n + 3)/2 there, so the window's
    # floor can be no lower (ROADMAP item 16).  The float phi can land below
    # that integer by more than FLOOR_NUDGE; the exact witness lifts it.
    n = (2 * k - 1) ** 2 - 3
    assert omega_hat_nk(n, k) == n * (n + 3) // 2


_FACTORS = len(lrs._TABLE.starts) - 1


def _window_factors(n, k) -> list[list[int]]:
    ints = lrs._table_values([n], [k])
    return [lrs._factor(ints, 0, f) for f in range(_FACTORS)]


def _witnessless_sweep(monkeypatch, windows) -> list:
    """The sweep of windows with the witness turned off, then restored."""
    with monkeypatch.context() as m:
        m.setattr(lrs, "_witness", lambda *args: None)
        return lrs._sweep(windows)


def test_witness_lifts_the_rational_knife_edges(monkeypatch):
    # In the family, (22, 3) and (46, 4) among it, Q reaches its maximum
    # n(n + 3)/2 at a = 1/(2k), and the float a* lies within 1e-9 of it.  The
    # witness finds that a among the convergents of a* and Q there exactly;
    # wherever the float phi falls below the integer, the sweep then reports
    # phi as that integer, at the double nearest 1/(2k).
    lifted = 0
    for (n, k), sl, bare in zip(_FAMILY, lrs._sweep(_FAMILY), _witnessless_sweep(monkeypatch, _FAMILY)):
        a, top = Fraction(1, 2 * k), n * (n + 3) // 2
        assert lrs._witness(n, k, bare.a_star, _window_factors(n, k)) == (a, top), (n, k)
        assert sl.omega_hat_nk == top and sl.phi >= top
        if bare.phi < top:
            assert (sl.phi, sl.a_star) == (float(top), float(a)), (n, k)
            lifted += 1
    assert lifted >= 6
    assert k_slice(46, 4).phi == 1127.0 and k_slice(46, 4).a_star == 0.125


def test_witness_fires_only_inside_its_margin_and_never_lowers_a_floor(monkeypatch):
    # Over 4..139 and the family, the witness is sought only where the float
    # phi lies below an integer M by at most WITNESS_MARGIN relative, with
    # the window's own factor integers, and every floor is at least the
    # floor without it.  The floors, conclusive
    # flags and inf-stretch counts are those of tests/golden/floors.json:
    # the ones the sweep gave when it rooted the product polynomials, but
    # for six family windows that it floored one too low.
    witness, calls = lrs._witness, []

    def recording(n, k, a_star, factors):
        assert factors == _window_factors(n, k), (n, k)
        calls.append((n, k))
        return witness(n, k, a_star, factors)

    windows = FLOOR_WINDOWS
    bare = {(sl.n, sl.k): sl for sl in _witnessless_sweep(monkeypatch, windows)}
    monkeypatch.setattr(lrs, "_witness", recording)
    slices = lrs._sweep(windows)
    for n, k in calls:
        phi = bare[n, k].phi
        top = math.floor(phi) + 1
        assert 0 < top - phi <= lrs.WITNESS_MARGIN * top, (n, k)
    for sl in slices:
        assert sl.conclusive == bare[sl.n, sl.k].conclusive
        assert not sl.conclusive or sl.omega_hat_nk >= bare[sl.n, sl.k].omega_hat_nk
    assert [floor_record(sl) for sl in slices] == load_floors()
    assert 0 < len(calls) < 60


def _exact_forms(n, k):
    x = FractionFns.of([0, 1])
    return _forms(Fraction(n), x, (k * x - 1) / (k - 1))


def _at(poly, a):
    return sum(c * a**i for i, c in enumerate(poly))


def test_exact_forms_match_float_forms():
    # The sweep runs the closed forms on exact rational functions of a; they
    # must be the same functions candidate_values evaluates in floating point.
    for n, k in [(7, 2), (22, 3), (25, 4)]:
        forms = _exact_forms(n, k)
        assert [len(f.value._num) - 1 for f in forms] == [2, 4, 3, 6, 4]  # shared denominators kept
        lo, hi = interval(k)
        for a in np.linspace(lo, hi, 9)[1:-1]:
            floats = candidate_values(n, a, b_k(k, a))[:, 0]
            for form, want in zip(forms, floats):
                if math.isfinite(want):
                    got = _at(form.value._num, Fraction(a)) / _at(form.value._den, Fraction(a))
                    assert abs(float(got) - want) <= 1e-12 * abs(want), (n, k, a)


def test_three_way_crossings_are_exact_integers():
    for n, k, a, value in [(22, 3, Fraction(1, 6), 275), (46, 4, Fraction(1, 8), 1127)]:
        forms = _exact_forms(n, k)
        for i in (1, 3, 4):
            v = forms[i - 1].value
            assert _at(v._num, a) / _at(v._den, a) == value, (n, i)


def test_window_bound_respects_trivial_floor():
    for n, k in [(7, 2), (13, 3), (25, 4), (40, 3)]:
        w = omega_hat_nk(n, k)
        assert math.isinf(w) or w >= 2 * n + 3


def test_sweep_bound_examples():
    assert omega_hat(7) == (28, 2)
    assert omega_hat(18) == (76, 3)
    assert omega_hat(23) == (277, 3)
    assert omega_hat(40) == (928, 2)


def test_sweep_picks_smallest_attaining_k():
    for n in (13, 20, 30):
        w, ks = omega_hat(n)
        window = [omega_hat_nk(n, k) for k in range(2, k_max(n) + 1)]
        assert w == max(window)
        assert ks == 2 + window.index(w)


def test_construction_ceiling():
    assert rho(7) == 28
    assert rho(23) == 276
    assert rho(40) == 820
    with pytest.raises(ValueError):
        rho(6)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("entry", [rho, g_upper], ids=["rho", "g_upper"])
def test_ceiling_returns_python_ints(entry, dtype):
    # rho let a numpy integer through n(n + 1)/2, so g_upper(np.int64(8))
    # was np.int64(36), which json cannot encode; rho(7.5) was 31.0.
    for n in (7, 8, 9, 10, 23):
        got = entry(dtype(n))
        assert type(got) is int and got == entry(n)
        assert json.dumps(got) == str(got)
    for n in (7.5, 8.0):
        with pytest.raises(TypeError):
            entry(n)


def test_combined_upper_bound():
    assert g_upper(23) == 277
    assert g_upper(30) == 465
    assert g_upper(40) == 928


def test_combined_upper_bound_covers_construction():
    for n in range(7, 13):
        assert g_upper(n) >= n * (n + 1) / 2


def test_table_single_rows():
    (row,) = table(7, 7)
    assert (row.n, row.omega_hat, row.rho, row.k_star) == (7, 28, 28, 2)
    assert row.g_upper == 28 and row.conclusive
    (row35,) = table(35, 35)
    assert (row35.n, row35.omega_hat, row35.rho, row35.k_star) == (35, 360, 630, 2)


def test_table_rejects_bad_ranges():
    with pytest.raises(ValueError):
        table(6, 10)
    with pytest.raises(ValueError):
        table(10, 9)


def test_profile_shape_and_cap():
    samples = profile(25, 3, 5)
    assert len(samples) == 5
    lo, hi = interval(3)
    assert samples[0].a == lo and samples[-1].a == hi
    finite = [s.q for s in samples if math.isfinite(s.q)]
    assert max(finite) <= 284.15


def test_profile_minimum_two_samples_are_endpoints():
    samples = profile(10, 2, 2)
    lo, hi = interval(2)
    assert [s.a for s in samples] == [lo, hi]
    with pytest.raises(ValueError):
        profile(10, 2, 1)


def test_profile_winning_index_matches_q():
    for s in profile(18, 3, 101):
        if math.isfinite(s.q):
            assert s.winning, s
            assert all(1 <= i <= 5 for i in s.winning)
        else:
            assert s.winning == ()


def test_q_bound_equals_profile_bit_for_bit():
    for n, k in [(7, 2), (22, 3), (25, 3), (40, 4), (60, 2)]:
        for s in profile(n, k, 101):
            assert q_bound(n, k, s.a) == s.q, (n, k, s.a)


@pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL, MAX_TOL])
def test_profile_winners_follow_the_scalar_rule_on_every_window(tol):
    # profile picks each sample's minimum and winners in one array pass;
    # every sample of every window of 7..60 must equal best_of on its own
    # column, and best_bound at (a, b_k(a)) wherever several candidates win
    # and at every 50th sample.
    several = 0
    for n in range(7, 61):
        for k in range(2, k_max(n) + 1):
            samples = profile(n, k, 2001, tol)
            xs = np.array([s.a for s in samples])
            columns = candidate_values(n, xs, np.maximum(b_k(k, xs), -1.0), tol).T.tolist()
            assert [(s.q, s.winning) for s in samples] == list(map(best_of, columns)), (n, k)
            for j, s in enumerate(samples):
                if len(s.winning) > 1 or j % 50 == 0:
                    pair = InnerProductPair(n, s.a, max(b_k(k, s.a), -1.0))
                    assert (s.q, s.winning) == best_bound(pair, tol), (n, k, s)
            several += sum(len(s.winning) > 1 for s in samples)
    assert several == (80 if tol == 0 else 148)


def test_profile_continuity_on_shared_winner():
    # Adjacent samples won by the same candidate sit on one rational piece;
    # at the default resolution those never jump by more than 1.
    for n, k in [(7, 2), (25, 3), (40, 2)]:
        samples = profile(n, k, 20001)
        for s0, s1 in zip(samples, samples[1:]):
            if set(s0.winning) & set(s1.winning) and math.isfinite(s0.q) and math.isfinite(s1.q):
                assert abs(s1.q - s0.q) <= 1.0, (n, k, s0.a)


def test_window_slice_determinism():
    k_slice.cache_clear()
    first = phi(19, 3)
    k_slice.cache_clear()
    second = phi(19, 3)
    assert first == second
    assert table(8, 9) == table(8, 9)


def test_inconclusive_slice_is_flagged_not_fatal():
    sl = k_slice(45, 2)
    assert not sl.conclusive
    assert math.isinf(sl.phi)
    assert math.isinf(sl.omega_hat_nk)
    assert sl.inf_ranges  # the empty-certificate stretch is reported
    lo, hi = interval(2)
    for r_lo, r_hi in sl.inf_ranges:
        assert lo <= r_lo <= r_hi <= hi
    w, _ = omega_hat(45)
    assert math.isinf(w)
    (row,) = table(45, 45)
    assert not row.conclusive and math.isinf(row.omega_hat) and math.isinf(row.g_upper)
    assert row.rho == 45 * 46 // 2


@pytest.mark.parametrize("call, message", [
    (lambda: k_max(1), r"n >= 2, got 1"), (lambda: interval(1), r"k >= 2, got 1"),
    (lambda: omega_hat(6), r"n >= 7, got 6"),
], ids=["k_max", "interval", "omega_hat"])
def test_sweep_inputs_out_of_range_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_slice_validation():
    with pytest.raises(ValueError):
        k_slice(3, 2)
    with pytest.raises(ValueError):
        k_slice(10, 1)
    with pytest.raises(ValueError):
        k_slice(10, 3)  # k_max(10) == 2


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("entry, args", [
    (k_slice, (23, 3)), (omega_hat, (23,)), (g_upper, (23,)), (omega_hat_nk, (40, 4)),
    (lambda n, k: profile(n, k, 11), (7, 2)), (lambda n, k: q_bound(n, k, 0.1), (7, 2)),
    (lambda k: b_k(k, 0.1), (3,)), (interval, (3,)),
], ids=["k_slice", "omega_hat", "g_upper", "omega_hat_nk", "profile", "q_bound", "b_k", "interval"])
def test_sweep_takes_numpy_integers(entry, args, dtype):
    # Fraction(np.int64) kept numpy integers in the exact coefficients,
    # which overflowed to "Python int too large to convert to C long".
    # Every n and k is an integer: profile(7.5, 2, 11) gave samples and
    # q_bound(7, 2.5, 0.1) gave 14.54, both with no error.  The k_slice
    # cache is typed: warm, it returned the KSlice of (23, 3) for (23.0, 3).
    k_slice.cache_clear()
    expected = entry(*args)
    for i in range(len(args)):
        k_slice.cache_clear()
        with pytest.raises(TypeError):
            entry(*args[:i], args[i] + 0.5, *args[i + 1:])
        for prepare in (k_slice.cache_clear, lambda: entry(*args)):  # a cold cache, then a warm one
            prepare()
            assert entry(*args[:i], dtype(args[i]), *args[i + 1:]) == expected
            prepare()
            with pytest.raises(TypeError):
                entry(*args[:i], float(args[i]), *args[i + 1:])


@pytest.mark.parametrize("entry", [
    lambda tol: profile(22, 3, 5, tol),
    lambda tol: q_bound(22, 3, 0.1, tol),
], ids=["profile", "q_bound"])
def test_tolerance_outside_range_is_rejected(entry):
    # The tol of a caller's points: out of range it is an error, as a
    # negative tol once let the sweep report phi(22, 3) = 4.3e14 as conclusive.
    for tol in (-1e-3, -1e-12, 0.5, 2 * MAX_TOL, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"tolerance must satisfy 0 <= tol <= 1e-06"):
            entry(tol)
    entry(MAX_TOL)


def test_sweep_takes_no_tolerance():
    # A sweep decides its domain at tol 0 (f0 > 0, fj >= 0): no stage of it
    # takes a tol.
    sweep = [k_slice, phi, omega_hat_nk, omega_hat, g_upper, table, lrs._sweep,
             lrs._candidate_points, lrs._table_values, lrs._real_roots, lrs._factor, lrs._witness]
    assert [f.__name__ for f in sweep if "tol" in inspect.signature(f).parameters] == []


def _recording_table_values(monkeypatch) -> list:
    """Record (batch size, dtype) of every evaluation of the sweep table."""
    table_values, calls = lrs._table_values, []

    def recording(n, k):
        values = table_values(n, k)
        calls.append((len(n), values.dtype))
        return values

    monkeypatch.setattr(lrs, "_table_values", recording)
    return calls


def test_one_batch_equals_the_golden_windows(monkeypatch):
    # Every window of n = 7..60 in one _sweep, in order and shuffled, must
    # give each window the record it has when swept alone (k_slice), from
    # one evaluation of the sweep table per batch.
    evaluations = _recording_table_values(monkeypatch)
    want = {(w["n"], w["k"]): w for w in load_golden_windows()}
    windows = list(want)
    shuffled = [windows[i] for i in np.random.default_rng(10).permutation(len(windows))]
    for batch in (windows, shuffled):
        slices = lrs._sweep(batch)
        assert [(sl.n, sl.k) for sl in slices] == batch
        for sl in slices:
            assert record(sl) == want[(sl.n, sl.k)]
    assert evaluations == [(158, np.float64)] * 2
    assert any(w["inf_ranges"] for w in want.values())


def _column(c, den) -> tuple:
    """One window's polynomial, integer coefficients c over den, as
    FractionFns holds it: Fractions in lowest terms, no trailing zeros."""
    return trimmed(Fraction(x, den) for x in c)


def _columns(poly) -> list[tuple]:
    """The _column of each window of a batch polynomial."""
    c, d = poly
    return [_column(col, den) for col, den in zip(c.T.tolist(), d.tolist())]


_MIXED = [w for n in (44, 45, 46, 7, 8, 22, 23, 40) for w in lrs._windows(n)]


@pytest.mark.parametrize(
    "batch",
    [
        [(22, 3), (7, 2), (22, 3), (40, 4), (13, 3)],
        [(22, 3), (22, 3)],
        [_MIXED[i] for i in np.random.default_rng(18).permutation(len(_MIXED))],
        [(45, 2)],
    ],
    ids=["(22, 3) twice in a batch", "(22, 3) twice", "inconclusive mixed in", "one window"],
)
def test_batch_edge_cases_give_the_golden_windows(batch):
    # Repeated windows, inconclusive windows (n = 44..46) shuffled among
    # conclusive ones and one-window batches: each window gets its record.
    want = {(w["n"], w["k"]): w for w in load_golden_windows()}
    slices = lrs._sweep(batch)
    assert [(sl.n, sl.k) for sl in slices] == batch
    for sl in slices:
        assert record(sl) == want[(sl.n, sl.k)]
    if len(batch) > 5:
        assert {sl.conclusive for sl in slices} == {True, False}
        assert any(sl.inf_ranges for sl in slices)


def test_batch_polys_equal_the_window_polys():
    # The same operators on Fraction tuples, window by window, are the
    # reference: same domain and extremum lists, in order, of the same
    # rational polynomials (each batch column reduced), for every window.
    domain, extrema = ([_columns(p) for p in polys] for polys in ratfns._batch_polys(WINDOWS))
    got = [(list(d), list(e)) for d, e in zip(zip(*domain), zip(*extrema))]
    assert got == [window_polys(n, k) for n, k in WINDOWS]


def _candidate_stage(monkeypatch, windows) -> tuple:
    """_candidate_points over windows, with its one _real_roots call
    recorded: (rows, roots, owner, points), rows[w, f] holding factor f of
    window w as the floats it roots, roots and owner what _real_roots gave
    back, and points what _candidate_points returned."""
    real_roots, calls = lrs._real_roots, []

    def recording(rows, lo, hi):
        roots, owner = real_roots(rows, lo, hi)
        calls.append((rows, roots, owner))
        return roots, owner

    with monkeypatch.context() as m:
        m.setattr(lrs, "_real_roots", recording)
        lo, hi = np.array([interval(k) for _, k in windows]).T
        points = lrs._candidate_points(windows, lo, hi)
    ((rows, roots, owner),) = calls
    return rows.reshape(len(windows), _FACTORS, -1), roots, owner, points


def test_float_rows_of_both_routes_are_bit_identical(monkeypatch):
    # The two routes are a window swept alone and the same window among the
    # 158 of 7..60.  Each reads the factors' integers at (n, k), and a float
    # is the double nearest its integer, so the rows, the exact factors and
    # the roots must be the same whatever the batch, padding included.
    rows, _, _, (flips, flip_window, extrema, extremum_window, values) = _candidate_stage(monkeypatch, WINDOWS)
    assert rows.dtype == np.float64 and (lrs._sweep_table.FLIP_FACTORS, rows.shape[1]) == (9, 23)
    for w, window in enumerate(WINDOWS):
        single_rows, _, _, single = _candidate_stage(monkeypatch, [window])
        assert single_rows.shape[1:] == rows.shape[1:]
        assert rows[w].tobytes() == single_rows[0].tobytes(), window
        assert flips[flip_window == w].tobytes() == single[0].tobytes(), window
        assert extrema[extremum_window == w].tobytes() == single[2].tobytes(), window
        for f in range(_FACTORS):
            assert lrs._factor(values, w, f) == lrs._factor(single[4], 0, f)
        assert not single[1].any() and not single[3].any()


def _int_route(monkeypatch):
    """Make every evaluation of the sweep table run in Python ints."""
    monkeypatch.setattr(lrs, "_EXACT_FLOAT_LIMIT", 0.0)


def _table_lines(text: str) -> list[tuple[int, ...]]:
    return [tuple(map(int, line.split())) for line in text.splitlines()]


def _at_window(terms, n, k) -> int:
    """sum c n^i k^j over terms (i, j, c), in Python ints."""
    return sum(c * n**i * k**j for i, j, c in terms)


def _table_factors(n: int, k: int) -> list[list[int]]:
    """The integer coefficients of every factor of the sweep table at (n, k),
    lowest power of a first, read from its text in Python ints: the
    reference for lrs._table_values."""
    factors = {}
    for f, m, i, j, c in _table_lines(lrs._sweep_table.FACTORS):
        coeffs = factors.setdefault(f, [])
        coeffs += [0] * (m + 1 - len(coeffs))
        coeffs[m] += c * n**i * k**j
    return [factors[f] for f in sorted(factors)]


def _polymul(p, q):
    """The product of two polynomials held as (L, W) object arrays, one
    column per window, lowest power first."""
    out = np.zeros((len(p) + len(q) - 1, p.shape[1]), dtype=object)
    for i, row in enumerate(p):
        out[i : i + len(q)] += row * q
    return out


def _padded(p, length):
    return np.concatenate((p, np.zeros((length - len(p), p.shape[1]), dtype=object)))


# Every window of 4..139 and item 16's family ((2k - 1)^2 - 3, k), k = 2..30.
# Each k = 2..8 comes with every n = 113..139 here: more values of n and of
# k than the degrees in n and in k of any row.
_IDENTITY_WINDOWS = FLOOR_WINDOWS


def test_sweep_table_factors_the_reference_polys(monkeypatch):
    # The sweep table (twodist/_sweep_table.py) is a second statement of the
    # closed forms, and this test is its only tie to _forms: at every window,
    # each polynomial of the reference pass (ratfns, _forms on _RatFns) must
    # be exactly its a-free content C/D times the product of its factors to
    # their multiplicities, with the factors as the sweep evaluates them.
    # No two factors may be proportional, and no content and no factor's
    # leading coefficient may vanish on a window.  Never loosen it.
    _int_route(monkeypatch)
    windows = _IDENTITY_WINDOWS
    assert len(set(windows)) > 600
    n, k = zip(*windows)
    values = lrs._table_values(n, k)
    assert values.dtype == object
    starts = lrs._TABLE.starts
    factors = [values[starts[f] : starts[f + 1]] for f in range(len(starts) - 1)]
    assert all((f[-1] != 0).all() for f in factors)  # no leading coefficient vanishes
    parts = {}
    for r, s, i, j, c in _table_lines(lrs._sweep_table.CONTENTS):
        parts.setdefault((r, s), []).append((i, j, c))
    multiplicities = {}
    for r, f, e in _table_lines(lrs._sweep_table.MULTIPLICITIES):
        multiplicities.setdefault(r, []).append((f, e))
    domain, extrema = ratfns._batch_polys(windows)
    assert len(domain) == lrs._sweep_table.DOMAIN_ROWS
    for r, (c, d) in enumerate(domain + extrema):
        content, den = (np.array([_at_window(parts[r, s], *w) for w in windows], dtype=object) for s in (0, 1))
        assert (content != 0).all() and (den > 0).all(), r
        product = content[None]
        for f, e in multiplicities.get(r, []):
            for _ in range(e):
                product = _polymul(product, factors[f])
        length = max(len(c), len(product))
        assert (_padded(c, length) * den == _padded(product, length) * d).all(), r
    # The flip factors are those of the domain rows, and every factor is in some row.
    used = {f for pairs in multiplicities.values() for f, _ in pairs}
    flips = {f for r, pairs in multiplicities.items() if r < len(domain) for f, _ in pairs}
    assert used == set(range(len(factors))) and flips == set(range(lrs._sweep_table.FLIP_FACTORS))
    terms = {}
    for f, m, i, j, c in _table_lines(lrs._sweep_table.FACTORS):
        terms.setdefault(f, {})[m, i, j] = c
    for f, g in itertools.combinations(terms.values(), 2):  # no two factors proportional
        x, y = next(iter(f)), next(iter(g))
        assert f.keys() != g.keys() or any(f[t] * g[x] != g[t] * f[x] for t in f), (f, g)


def test_table_routes_give_the_same_rows(monkeypatch):
    # Over 7..60 the table is evaluated in float64, every integer exact;
    # in Python ints it must give the same rows and roots byte for byte, the
    # same exact factors, and no -0.0 in either route.
    evaluations = _recording_table_values(monkeypatch)
    floats, _, _, float_points = _candidate_stage(monkeypatch, WINDOWS)
    _int_route(monkeypatch)
    ints, _, _, int_points = _candidate_stage(monkeypatch, WINDOWS)
    assert evaluations == [(158, np.float64), (158, object)]
    assert ints.shape == floats.shape and ints.tobytes() == floats.tobytes()
    assert not np.signbit(floats[floats == 0]).any()
    for got, want in zip(int_points[:4], float_points[:4]):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for w in range(len(WINDOWS)):
        for f in range(_FACTORS):
            got, want = lrs._factor(int_points[4], w, f), lrs._factor(float_points[4], w, f)
            assert got == want and all(type(x) is int for x in got), (WINDOWS[w], f)


def test_a_batch_beyond_float_range_takes_the_int_route(monkeypatch):
    # (838, 15) puts the table's terms beyond 2^53, so a batch holding it
    # evaluates in Python ints; (60, 5) beside it still gets the rows and the
    # window record it has alone, and both get the correctly rounded floats
    # of the factors' integers, read from the table's text.
    evaluations = _recording_table_values(monkeypatch)
    batch = [(60, 5), (838, 15)]
    rows, _, _, points = _candidate_stage(monkeypatch, batch)
    alone = [_candidate_stage(monkeypatch, [w])[0][0] for w in batch]
    assert evaluations == [(2, object), (1, np.float64), (1, object)]
    assert not np.signbit(rows[rows == 0]).any()
    big = 0
    for w, (n, k) in enumerate(batch):
        factors = _table_factors(n, k)
        assert [lrs._factor(points[4], w, f) for f in range(len(factors))] == factors
        assert rows[w].tobytes() == _padded_rows(factors, rows.shape[2]).tobytes()
        assert rows[w].tobytes() == alone[w].tobytes()
        big += any(abs(c) >= 2**53 for f in factors for c in f)
    assert big == 1  # the integers of (838, 15) exceed float64's exact range
    slices = lrs._sweep(batch)
    assert slices == [lrs._sweep([w])[0] for w in batch]
    golden = {(w["n"], w["k"]): w for w in load_golden_windows()}
    assert record(slices[0]) == golden[(60, 5)]


def test_flip_guard_drops_the_roots_of_conditions_that_vanish_at_an_end(monkeypatch):
    # A domain condition can vanish exactly at a window end (a + b = 0 at
    # a = 1/(2k - 1)), and the float root of its factor can land just
    # inside.  Over 7..60 the sweep drops such roots, each checked against
    # the factor's integers read from the table's text, and keeps none; and
    # every reference domain condition that the factor divides vanishes there.
    # The roots of the other factors are all kept.
    _, roots, owner, (flips, flip_window, extrema, extremum_window, _) = _candidate_stage(monkeypatch, WINDOWS)
    flip = owner % _FACTORS < lrs._sweep_table.FLIP_FACTORS
    assert extrema.tobytes() == roots[~flip].tobytes()
    assert extremum_window.tobytes() == (owner[~flip] // _FACTORS).tobytes()
    # A flip root is known by its value and window, and the factors it is a
    # root of: a near-double root comes back twice, and distinct factors can
    # share a root (a = 0 at (25, 4), say).
    rooted = list(zip(roots[flip].tolist(), (owner[flip] // _FACTORS).tolist()))
    factors_at = {}
    for key, j in zip(rooted, owner[flip].tolist()):
        factors_at.setdefault(key, set()).add(j)
    kept = Counter(zip(flips.tolist(), flip_window.tolist()))
    dropped = Counter(rooted) - kept
    assert kept + dropped == Counter(rooted)
    divides = {}
    for r, f, _ in _table_lines(lrs._sweep_table.MULTIPLICITIES):
        divides.setdefault(f, []).append(r)

    def vanishing_end(root, j):
        (n, k), f = WINDOWS[j // _FACTORS], j % _FACTORS
        for end in (Fraction(*e) for e in lrs._exact_ends(k)):
            if abs(root - end) <= lrs.WINDOW_SLACK and _at(_table_factors(n, k)[f], end) == 0:
                return end, [window_polys(n, k)[0][r] for r in divides[f] if r < lrs._sweep_table.DOMAIN_ROWS]
        return None

    assert dropped
    for r, w in dropped:
        (j,) = factors_at[r, w]
        end, conditions = vanishing_end(r, j)
        assert conditions and all(_at(c, end) == 0 for c in conditions), (r, w)
    assert not any(vanishing_end(r, j) for r, w in kept for j in factors_at[r, w])


def test_no_two_edges_of_a_window_are_closer_than_1e_12(monkeypatch):
    # Each flip factor is rooted once per window (ROADMAP item 14), so
    # shared factors no longer give float roots some ulps apart: over 7..60
    # no piece is narrower than 1e-12.  Rooted in the product polynomials,
    # 118 pieces were, down to 1.4e-17.
    points, calls = lrs._candidate_points, []
    monkeypatch.setattr(lrs, "_candidate_points", lambda *args: calls.append(points(*args)) or calls[-1])
    lrs._sweep(WINDOWS)
    ((flips, flip_window, *_),) = calls
    closest = math.inf
    for w, (_, k) in enumerate(WINDOWS):
        edges = np.unique(np.concatenate((interval(k), flips[flip_window == w])))
        closest = min(closest, np.diff(edges).min())
    assert closest >= 1e-12
    assert flips.size > 100


def test_batch_same_denominator_shortcut_fails_closed():
    # Each is a / (a + c) in two windows, c from its pair of shifts: the
    # denominators agree in both windows (f, f), in neither (f, h) or in one
    # only (f, g), where no single branch is right for the whole batch.
    shifts = {"f": (1, 1), "g": (1, 2), "h": (2, 2)}
    x, one = ratfns._RatFns.variable(2), FractionFns.of([0, 1])
    batch = {name: x / (x + ratfns._Rationals.of(c)) for name, c in shifts.items()}
    for op in (operator.add, operator.sub, operator.truediv):
        with pytest.raises(ValueError, match="1 of 2 windows"):
            op(batch["f"], batch["g"])
        for u, v in (("f", "f"), ("f", "h")):
            got = op(batch[u], batch[v])
            for w in range(2):
                want = op(one / (one + shifts[u][w]), one / (one + shifts[v][w]))
                assert (_columns(got._num)[w], _columns(got._den)[w]) == (want._num, want._den)
    # Equality is of rational polynomials, not of arrays: 2(a + c) / 2 is a + c.
    num, den = batch["f"]._den
    assert ratfns._RatFns._same((num, den), (2 * num, 2 * den))


_WINDOW_VALUES = [Fraction(v) for v in ("3/4", "-5/12", 0, 7, "-1/3", -2)]
_DIVISORS = [Fraction(v) for v in ("2/9", -3, "-7/4", 1, "11/5", "-1/60")]


def _per_window(r) -> list[Fraction]:
    assert all(d > 0 for d in r.denominator)
    return [Fraction(p, q) for p, q in zip(r.numerator, r.denominator)]


def test_rationals_match_fractions_window_by_window():
    # Each window's rational is the Fraction arithmetic gives, in both
    # operand orders, with ints, Fractions and _Rationals, the denominator
    # kept positive (negative divisors included).
    x, y = ratfns._Rationals.of(_WINDOW_VALUES), ratfns._Rationals.of(_DIVISORS)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert _per_window(op(x, y)) == [op(u, v) for u, v in zip(_WINDOW_VALUES, _DIVISORS)]
        for c in (0, 5, -3, Fraction(4, 7), Fraction(-9, 2)):
            if c != 0 or op is not operator.truediv:
                assert _per_window(op(x, c)) == [op(u, c) for u in _WINDOW_VALUES]
            assert _per_window(op(c, y)) == [op(c, v) for v in _DIVISORS]
    assert _per_window(-x) == [-u for u in _WINDOW_VALUES]
    with pytest.raises(ZeroDivisionError):
        y / x
    with pytest.raises(ZeroDivisionError):
        1 / x
    # A _RatFns operand is left to _RatFns, which reads x as a scalar operand.
    batch = ratfns._RatFns.variable(len(_WINDOW_VALUES))
    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
        for other in (FractionFns.of([0, 1]), batch):
            assert getattr(x, f"__{name}__")(other) is NotImplemented


@pytest.mark.parametrize("f", [Fraction(3, 4), Fraction(-5, 12), Fraction(7), Fraction(-1, 60)])
def test_batch_scale_reads_a_fraction_and_rationals_alike(f):
    # The same f in every window, as a Fraction, as _Rationals and as
    # _Rationals holding it unreduced (6f / 6) scales to the same columns.
    x = ratfns._RatFns.variable(3)
    poly = (x * x - ratfns._Rationals.of([2, -3, Fraction(5, 2)]) * x + Fraction(1, 3))._num
    unreduced = (np.array([6 * part] * 3, dtype=object) for part in (f.numerator, f.denominator))
    held = [ratfns._Rationals.of([f] * 3), ratfns._Rationals(*unreduced)]
    want = _columns(ratfns._RatFns._scale(poly, f))
    for r in held:
        assert _columns(ratfns._RatFns._scale(poly, r)) == want


def test_batch_products_take_reduced_operands(monkeypatch):
    # The value polynomials are reduced before the extremum products, so no
    # operand coefficient of a batch product over 7..40 reaches 64 bits
    # (50 at most); unreduced, they reached 104.
    mul, widest = ratfns._RatFns._mul, [0]

    def measuring(p, q):
        for c, d in (p, q):
            widest[0] = max(widest[0], *(abs(v).bit_length() for v in [*c.ravel(), *d.ravel()]))
        return mul(p, q)

    monkeypatch.setattr(ratfns._RatFns, "_mul", staticmethod(measuring))
    ratfns._batch_polys([w for n in range(7, 41) for w in lrs._windows(n)])
    assert 0 < widest[0] < 64


def test_table_equals_rows_from_omega_hat():
    for row in table(7, 60):
        w, ks = omega_hat(row.n)
        assert row == TableRow(row.n, w, rho(row.n), ks, max(w, rho(row.n)), math.isfinite(w))


def test_zero_tolerance_table_matches_default():
    # a + b = 0 exactly at the right end 1/(2k - 1) of every window; its float
    # root used to land an ulp inside and cut off a sliver piece whose
    # candidate set was read at the degenerate point (n = 15 gave 398).
    # The domain at tol 0 gives the rows the sweep gave at the default tol
    # of 1e-9: n = 7..40 as in the acceptance table, then these.
    rows = {**EXPECTED, 41: (1279, 2), 42: (2006, 2), 43: (4404, 2)}
    rows.update((n, (math.inf, 2)) for n in range(44, 61))
    want = []
    for n, (w, ks) in sorted(rows.items()):
        ceiling = n * (n + 1) // 2
        want.append(TableRow(n, w, ceiling, ks, max(w, ceiling), math.isfinite(w)))
    assert table(7, 60) == want


def _sign_change(poly, x: float, width: Fraction):
    """The exact point, to within 2^-80, where poly changes sign in
    [x - width, x + width], found by bisection; None if its signs at the
    two ends do not differ."""
    lo, hi = Fraction(x) - width, Fraction(x) + width
    low = _at(poly, lo)
    if low * _at(poly, hi) >= 0:
        return None
    while hi - lo > Fraction(1, 2**80):
        mid = (lo + hi) / 2
        if (_at(poly, mid) < 0) == (low < 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_inf_stretch_ends_sit_on_unshifted_flips():
    # Each end of the inf stretch of (n, 2), n = 44..60, is a root of one of
    # the window's domain conditions f0, fj and the divisors as _forms builds
    # them, with no tolerance shift.  The companion-matrix roots of these
    # degree-6 conditions are good to some hundreds of ulps (912 at worst);
    # the shift by 1e-9 put every end 3e8 ulps or more away.
    for n in range(44, 61):
        conditions = [
            poly for f in _exact_forms(n, 2) for c in (f.f0, f.fj, f.divisor) if c is not None
            for poly in (c._num, c._den)
        ]
        (stretch,) = k_slice(n, 2).inf_ranges
        for end in stretch:
            roots = [r for p in conditions if (r := _sign_change(p, end, Fraction(1, 2**20))) is not None]
            ulps = min(abs(r - Fraction(end)) for r in roots) / Fraction(math.ulp(end))
            assert ulps <= 1024, (n, end, float(ulps))


def _polyroots_inside(poly, lo, hi):
    """Reference root finder, one polynomial at a time: sorted float.hex of
    the npoly.polyroots roots that pass the same filters as the sweep's."""
    if len(poly) < 2:
        return []
    r = npoly.polyroots(np.array([float(x) for x in poly]))
    r = r.real[np.abs(r.imag) <= lrs.ROOT_IMAG_TOL * np.maximum(1.0, np.abs(r.real))]
    return sorted(x.hex() for x in r[(r > lo) & (r < hi)].tolist())


def _padded_rows(polys, width=0) -> np.ndarray:
    """Float rows of exact polynomials, zero-padded to the longest one (or width)."""
    rows = np.zeros((len(polys), max(width, *map(len, polys))))
    for row, poly in zip(rows, polys):
        row[: len(poly)] = [float(x) for x in poly]
    return rows


def test_batched_roots_match_polyroots_bit_for_bit():
    found = 0
    for n in range(7, 61):
        for k in range(2, k_max(n) + 1):
            lo, hi = interval(k)
            domain, extrema = window_polys(n, k)
            polys = domain + extrema
            roots, owner = lrs._real_roots(_padded_rows(polys), lo, hi)
            for i, poly in enumerate(polys):
                got = sorted(x.hex() for x in roots[owner == i].tolist())
                assert got == _polyroots_inside(poly, lo, hi), (n, k, i)
            found += roots.size
    assert found > 1000


def test_real_roots_read_each_degree_from_the_padded_row():
    # (a - 1/4)(a + 1/3) and a - 1/5 padded with trailing zeros, a constant
    # and the zero row: the padding is no leading zero coefficient (which
    # would divide by zero in the companion matrix), and the last two rows
    # have no root.
    polys = [(Fraction(-1, 12), Fraction(1, 12), 1), (Fraction(-1, 5), 1), (7,), (0,)]
    rows = _padded_rows(polys, width=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots, owner = lrs._real_roots(rows, -1.0, 1.0)
        assert lrs._real_roots(rows[2:], -1.0, 1.0)[0].size == 0
    assert sorted(owner.tolist()) == [0, 0, 1]
    assert np.allclose(np.sort(roots), [-1 / 3, 0.2, 0.25], rtol=0, atol=1e-15)
    for i, poly in enumerate(polys):
        assert sorted(x.hex() for x in roots[owner == i].tolist()) == _polyroots_inside(poly, -1.0, 1.0)


def test_real_roots_of_a_repeated_row_are_bit_identical():
    # The sweep solves equal rows of a window each time they come: every
    # copy of a row in one stack, whatever stands between the copies, gives
    # the same doubles as the row alone.
    domain, extrema = window_polys(23, 3)
    polys = domain + extrema
    lo, hi = interval(3)
    alone = _padded_rows(polys)
    tested = 0
    for i in range(len(polys)):
        want, _ = lrs._real_roots(alone[i : i + 1], lo, hi)
        stack = np.concatenate((alone[i : i + 1], alone, alone[i : i + 1]))
        roots, owner = lrs._real_roots(stack, lo, hi)
        for copy in (0, i + 1, len(stack) - 1):
            assert roots[owner == copy].tobytes() == want.tobytes(), (i, copy)
        tested += want.size > 0
    assert tested > 10


def test_cold_table_solves_each_degree_once_per_window(monkeypatch):
    windows = [(n, k) for n in range(7, 41) for k in range(2, k_max(n) + 1)]
    degrees = 0
    for n, k in windows:
        domain, extrema = window_polys(n, k)
        degrees += len({len(c) - 1 for c in domain + extrema if len(c) > 2})
    eigvals, shapes = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: shapes.append(m.shape) or eigvals(m))
    k_slice.cache_clear()
    rows = table(7, 40)
    assert [r.n for r in rows] == list(range(7, 41))
    # One call per distinct degree of at least 2 per window, each on a stack of
    # companion matrices; the per-polynomial finder made 2106 calls here.
    assert len(shapes) <= degrees <= 624
    assert all(len(shape) == 3 for shape in shapes)


@pytest.mark.parametrize(
    "x", [0, -1, -12, 7, Fraction(3, 4), Fraction(-5, 12), Fraction(1e-9), Fraction(-1, 3)]
)
def test_scalar_operand_equals_exact_constant(x):
    exact = FractionFns.of([x])
    one = (Fraction(1),)
    assert (FractionFns._scale(one, Fraction(x)), one) == (exact._num, exact._den)
    f = FractionFns.of([Fraction(1, 2), -3], [2, 0, Fraction(5, 7)])
    for got, want in [
        (f + x, f + exact), (x + f, exact + f), (f * x, f * exact), (x * f, exact * f),
        (f - x, f - exact), (x - f, exact - f),
    ]:
        assert (got._num, got._den) == (want._num, want._den)


def _random_ratfn(rng):
    def coeffs(deg):
        return [Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13))) for _ in range(deg + 1)]

    num = coeffs(int(rng.integers(0, 5)))
    # A third have denominator one, so the same-denominator shortcuts run too.
    den = [1] if rng.random() < 1 / 3 else coeffs(int(rng.integers(0, 4)))
    if all(c == 0 for c in den):
        den = [1]
    return FractionFns.of(num, den)


def test_scalar_and_negation_paths_match_the_general_path():
    rng = np.random.default_rng(2026)
    scalars = [0, 1, -1, 3, -17, Fraction(2, 3), Fraction(-7, 4), Fraction(5, 11)]
    for _ in range(60):
        f = _random_ratfn(rng)
        for x in scalars:
            c = FractionFns.of([x])
            pairs = [
                (f + x, f + c), (x + f, c + f), (f - x, f - c), (x - f, c - f),
                (f * x, f * c), (x * f, c * f), (-f, f * FractionFns.of([-1])),
            ]
            if x != 0:
                # f / x is f times the constant 1/x; f / FractionFns.of([x])
                # would instead fold x into the denominator.
                pairs.append((f / x, f * FractionFns.of([1 / Fraction(x)])))
            for got, want in pairs:
                assert (got._num, got._den) == (want._num, want._den), (f._num, f._den, x)


def _count_eigvals(monkeypatch) -> list:
    eigvals, shapes = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: shapes.append(m.shape) or eigvals(m))
    return shapes


def _distinct_degrees(windows) -> int:
    """Distinct polynomial degrees of at least 2 over all windows together."""
    degrees = set()
    for n, k in windows:
        domain, extrema = window_polys(n, k)
        degrees |= {len(c) - 1 for c in domain + extrema if len(c) > 2}
    return len(degrees)


@pytest.mark.parametrize("n_min, n_max", [(7, 40), (7, 7), (25, 25), (45, 45)])
def test_cold_table_solves_each_degree_once_per_batch(monkeypatch, n_min, n_max):
    windows = [(n, k) for n in range(n_min, n_max + 1) for k in range(2, k_max(n) + 1)]
    shapes = _count_eigvals(monkeypatch)
    k_slice.cache_clear()
    table(n_min, n_max)
    # The window-by-window sweep made 624 calls for 7..40.
    assert len(shapes) <= _distinct_degrees(windows) <= 8
    assert all(len(shape) == 3 for shape in shapes)


@pytest.mark.parametrize(
    "windows, witnesses",
    [([(23, 3)], 0), (lrs._windows(60), 1), ([w for n in range(7, 41) for w in lrs._windows(n)], 2)],
    ids=["one window", "one n", "7..40"],
)
def test_sweep_evaluates_the_float_forms_once(monkeypatch, windows, witnesses):
    # Every sweep, one window included, evaluates the closed forms once, on
    # float arrays, and reads its exact factors from one evaluation of the
    # sweep table.  On exact operands it evaluates them only at its
    # witnesses, once each, on Fractions: never a pass of the reference
    # (ratfns, with its own name for _forms).
    operands, evaluations, found = [], _recording_table_values(monkeypatch), []
    for module in (bound_polys, lrs, ratfns):
        monkeypatch.setattr(module, "_forms", lambda n, a, b: operands.append(type(a)) or _forms(n, a, b))
    witness = lrs._witness
    monkeypatch.setattr(lrs, "_witness", lambda *args: found.append(witness(*args)) or found[-1])
    lrs._sweep(windows)
    assert operands == [np.ndarray] + [Fraction] * sum(w is not None for w in found)
    assert evaluations == [(len(windows), np.float64)]
    assert len(found) == witnesses  # (60, 5); (22, 3) and (40, 4)


def test_cold_table_stays_cold(monkeypatch):
    # A memo of roots, of table values or of witnesses that outlived a call
    # would make the second table solve smaller stacks, skip its evaluation
    # or its exact points.  table(7, 40), a batch of 78 windows, and
    # table(40, 40), one of three, each evaluate the sweep table once, and
    # they seek witnesses at (22, 3), (40, 4) and (40, 4) again.
    shapes = _count_eigvals(monkeypatch)
    evaluations = _recording_table_values(monkeypatch)
    witness, found = lrs._witness, []
    monkeypatch.setattr(lrs, "_witness", lambda *args: found.append(args[:2]) or witness(*args))
    runs = []
    for _ in range(2):
        k_slice.cache_clear()
        del shapes[:], evaluations[:], found[:]
        tables = table(7, 40), table(40, 40)
        runs.append((tables, list(shapes), list(evaluations), list(found)))
    assert runs[0] == runs[1]
    assert runs[0][1] and runs[0][2] == [(78, np.float64), (3, np.float64)]
    assert runs[0][3] == [(22, 3), (40, 4), (40, 4)]


def test_sweep_leaves_out_numpy_ma():
    # np.unique imports numpy.ma on first use: 12 ms in every fresh table process.
    probe = (
        "import sys, numpy; eager = 'numpy.ma' in sys.modules; import twodist.lrs as lrs; "
        "lrs.table(7, 8); print(eager, 'numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    eager, loaded = proc.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.ma itself")
    assert loaded == "False"
