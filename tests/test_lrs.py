import math
import operator
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import twodist.bound_polys as bound_polys
import twodist.lrs as lrs
from test_golden_windows import load as load_golden_windows, record
from twodist.bound_polys import DEFAULT_TOL, MAX_TOL, _forms, candidate_values
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
    # misses the crossing floors these to 274 and 1126.
    sl = k_slice(22, 3)
    assert sl.omega_hat_nk == 275 and abs(sl.a_star - 1.0 / 6) < 1e-12
    sl = k_slice(46, 4)
    assert omega_hat_nk(46, 4) == 1127 and abs(sl.a_star - 1.0 / 8) < 1e-12


def _exact_forms(n, k):
    x = lrs._RatFn([0, 1])
    return _forms(Fraction(n), x, (k * x - 1) / (k - 1))


def _at(poly, a):
    return sum(c * a**i for i, c in enumerate(poly))


def test_exact_forms_match_float_forms():
    # The sweep runs the closed forms on exact rational functions of a; they
    # must be the same functions candidate_values evaluates in floating point.
    for n, k in [(7, 2), (22, 3), (25, 4)]:
        forms = _exact_forms(n, k)
        assert [len(f.value.num) - 1 for f in forms] == [2, 4, 3, 6, 4]  # shared denominators kept
        lo, hi = interval(k)
        for a in np.linspace(lo, hi, 9)[1:-1]:
            floats = candidate_values(n, a, b_k(k, a))[:, 0]
            for form, want in zip(forms, floats):
                if math.isfinite(want):
                    got = _at(form.value.num, Fraction(a)) / _at(form.value.den, Fraction(a))
                    assert abs(float(got) - want) <= 1e-12 * abs(want), (n, k, a)


def test_three_way_crossings_are_exact_integers():
    for n, k, a, value in [(22, 3, Fraction(1, 6), 275), (46, 4, Fraction(1, 8), 1127)]:
        forms = _exact_forms(n, k)
        for i in (1, 3, 4):
            v = forms[i - 1].value
            assert _at(v.num, a) / _at(v.den, a) == value, (n, i)


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


def test_slice_validation():
    with pytest.raises(ValueError):
        k_slice(3, 2)
    with pytest.raises(ValueError):
        k_slice(10, 1)
    with pytest.raises(ValueError):
        k_slice(10, 3)  # k_max(10) == 2
    with pytest.raises(ValueError):
        k_slice(10, 2, math.nan)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("entry, args", [
    (k_slice, (23, 3)), (omega_hat, (23,)), (g_upper, (23,)), (omega_hat_nk, (40, 4)),
], ids=["k_slice", "omega_hat", "g_upper", "omega_hat_nk"])
def test_sweep_takes_numpy_integers(entry, args, dtype):
    # Fraction(np.int64) kept numpy integers in the exact coefficients,
    # which overflowed to "Python int too large to convert to C long".
    k_slice.cache_clear()
    expected = entry(*args)
    for i in range(len(args)):
        k_slice.cache_clear()
        assert entry(*args[:i], dtype(args[i]), *args[i + 1:]) == expected
    k_slice.cache_clear()
    with pytest.raises(TypeError):
        entry(*args[:-1], float(args[-1]))


@pytest.mark.parametrize("entry", [
    lambda tol: k_slice(22, 3, tol),
    lambda tol: omega_hat(22, tol),
    lambda tol: g_upper(22, tol),
    lambda tol: table(7, 9, tol),
    lambda tol: profile(22, 3, 5, tol),
    lambda tol: q_bound(22, 3, 0.1, tol),
], ids=["k_slice", "omega_hat", "g_upper", "table", "profile", "q_bound"])
def test_tolerance_outside_range_is_rejected(entry):
    # A negative tol let (22, 3) report phi = 4.3e14 as conclusive, and
    # tol = 0.5 gave all-inf table rows: both with no error.
    for tol in (-1e-3, -1e-12, 0.5, 2 * MAX_TOL, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"tolerance must satisfy 0 <= tol <= 1e-06"):
            entry(tol)
    entry(MAX_TOL)


def test_one_batch_equals_the_golden_windows(monkeypatch):
    # Every window of n = 7..60 in one _sweep, in order and shuffled, must
    # give each window the record it has when swept alone (k_slice, whose
    # single window is built on _RatFn); the batch is built on _RatFns.
    batch_polys, batched = lrs._batch_polys, []
    monkeypatch.setattr(
        lrs, "_batch_polys", lambda ws, tol: batched.append(len(ws)) or batch_polys(ws, tol)
    )
    want = {(w["n"], w["k"]): w for w in load_golden_windows()}
    windows = list(want)
    shuffled = [windows[i] for i in np.random.default_rng(10).permutation(len(windows))]
    for batch in (windows, shuffled):
        slices = lrs._sweep(batch, DEFAULT_TOL)
        assert [(sl.n, sl.k) for sl in slices] == batch
        for sl in slices:
            assert record(sl) == want[(sl.n, sl.k)]
    assert batched == [158, 158]
    assert any(w["inf_ranges"] for w in want.values())


@pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL, MAX_TOL])
def test_batch_polys_equal_the_window_polys(tol):
    # The per-window engine is the reference: same domain and extremum
    # lists, in order, of the same _lowest tuples, for every window.
    windows = [(n, k) for n in range(7, 61) for k in range(2, k_max(n) + 1)]
    assert lrs._batch_polys(windows, tol) == [lrs._window_polys(n, k, tol) for n, k in windows]


def test_batch_same_denominator_shortcut_fails_closed():
    # Each is a / (a + c) in two windows, c from its pair of shifts: the
    # denominators agree in both windows (f, f), in neither (f, h) or in one
    # only (f, g), where no single branch is right for the whole batch.
    shifts = {"f": (1, 1), "g": (1, 2), "h": (2, 2)}
    x, one = lrs._RatFns.variable(2), lrs._RatFn([0, 1])
    batch = {name: x / (x + lrs._Rationals.of(c)) for name, c in shifts.items()}
    for op in (operator.add, operator.sub, operator.truediv):
        with pytest.raises(ValueError, match="1 of 2 windows"):
            op(batch["f"], batch["g"])
        for u, v in (("f", "f"), ("f", "h")):
            got = op(batch[u], batch[v])
            for w in range(2):
                want = op(one / (one + shifts[u][w]), one / (one + shifts[v][w]))
                assert (lrs._columns(got._num)[w], lrs._columns(got._den)[w]) == (want._num, want._den)
    # Equality is of rational polynomials, not of arrays: 2(a + c) / 2 is a + c.
    num, den = batch["f"]._den
    assert lrs._RatFns._same((num, den), (2 * num, 2 * den))


_WINDOW_VALUES = [Fraction(v) for v in ("3/4", "-5/12", 0, 7, "-1/3", -2)]
_DIVISORS = [Fraction(v) for v in ("2/9", -3, "-7/4", 1, "11/5", "-1/60")]


def _per_window(r) -> list[Fraction]:
    assert all(d > 0 for d in r.denominator)
    return [Fraction(p, q) for p, q in zip(r.numerator, r.denominator)]


def test_rationals_match_fractions_window_by_window():
    # Each window's rational is the Fraction arithmetic gives, in both
    # operand orders, with ints, Fractions and _Rationals, the denominator
    # kept positive (negative divisors included).
    x, y = lrs._Rationals.of(_WINDOW_VALUES), lrs._Rationals.of(_DIVISORS)
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
    # A _RatFn operand is left to _RatFn, which reads x as a scalar operand.
    batch = lrs._RatFns.variable(len(_WINDOW_VALUES))
    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
        for other in (lrs._RatFn([0, 1]), batch):
            assert getattr(x, f"__{name}__")(other) is NotImplemented


@pytest.mark.parametrize("f", [Fraction(3, 4), Fraction(-5, 12), Fraction(7), Fraction(-1, 60)])
def test_batch_scale_reads_a_fraction_and_rationals_alike(f):
    # The same f in every window, as a Fraction, as _Rationals and as
    # _Rationals holding it unreduced (6f / 6) scales to the same columns.
    x = lrs._RatFns.variable(3)
    poly = (x * x - lrs._Rationals.of([2, -3, Fraction(5, 2)]) * x + Fraction(1, 3))._num
    unreduced = (np.array([6 * part] * 3, dtype=object) for part in (f.numerator, f.denominator))
    held = [lrs._Rationals.of([f] * 3), lrs._Rationals(*unreduced)]
    want = lrs._columns(lrs._RatFns._scale(poly, f))
    for r in held:
        assert lrs._columns(lrs._RatFns._scale(poly, r)) == want


def test_batch_products_take_reduced_operands(monkeypatch):
    # The value polynomials are reduced before the extremum products, so no
    # operand coefficient of a batch product over 7..40 reaches 64 bits
    # (50 at most); unreduced, they reached 104.
    mul, widest = lrs._RatFns._mul, [0]

    def measuring(p, q):
        for c, d in (p, q):
            widest[0] = max(widest[0], *(abs(v).bit_length() for v in [*c.ravel(), *d.ravel()]))
        return mul(p, q)

    monkeypatch.setattr(lrs._RatFns, "_mul", staticmethod(measuring))
    lrs._batch_polys([w for n in range(7, 41) for w in lrs._windows(n)], DEFAULT_TOL)
    assert 0 < widest[0] < 64


def test_table_equals_rows_from_omega_hat():
    for row in table(7, 60):
        w, ks = omega_hat(row.n)
        assert row == TableRow(row.n, w, rho(row.n), ks, max(w, rho(row.n)), math.isfinite(w))


def test_zero_tolerance_table_matches_default():
    # a + b = 0 exactly at the right end 1/(2k - 1) of every window; its float
    # root used to land an ulp inside and cut off a sliver piece whose
    # candidate set was read at the degenerate point (n = 15 gave 398).
    zero, default = table(7, 60, tol=0.0), table(7, 60)
    assert [r.omega_hat for r in zero] == [r.omega_hat for r in default]
    assert zero == default


def _polyroots_inside(poly, lo, hi):
    """Reference root finder, one polynomial at a time: sorted float.hex of
    the npoly.polyroots roots that pass the same filters as the sweep's."""
    c, d = poly
    if len(c) < 2:
        return []
    r = npoly.polyroots(np.array([x / d for x in c]))
    r = r.real[np.abs(r.imag) <= lrs.ROOT_IMAG_TOL * np.maximum(1.0, np.abs(r.real))]
    return sorted(x.hex() for x in r[(r > lo) & (r < hi)].tolist())


def test_batched_roots_match_polyroots_bit_for_bit():
    found = 0
    for n in range(7, 61):
        for k in range(2, k_max(n) + 1):
            lo, hi = interval(k)
            domain, extrema = lrs._window_polys(n, k, DEFAULT_TOL)
            polys = list(dict.fromkeys(domain + extrema))
            flat = [x / d for c, d in polys for x in c]
            roots, owner = lrs._real_roots(flat, [len(c) for c, _ in polys], lo, hi)
            for i, poly in enumerate(polys):
                got = sorted(x.hex() for x in roots[owner == i].tolist())
                assert got == _polyroots_inside(poly, lo, hi), (n, k, i)
            found += roots.size
    assert found > 1000


def test_cold_table_solves_each_degree_once_per_window(monkeypatch):
    windows = [(n, k) for n in range(7, 41) for k in range(2, k_max(n) + 1)]
    degrees = 0
    for n, k in windows:
        domain, extrema = lrs._window_polys(n, k, DEFAULT_TOL)
        degrees += len({len(c) - 1 for c, _ in domain + extrema if len(c) > 2})
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
    exact = lrs._RatFn([x])
    assert (lrs._pscale(lrs._ONE, Fraction(x)), lrs._ONE) == (exact._num, exact._den)
    f = lrs._RatFn([Fraction(1, 2), -3], [2, 0, Fraction(5, 7)])
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
    return lrs._RatFn(num, den)


def test_scalar_and_negation_paths_match_the_general_path():
    rng = np.random.default_rng(2026)
    scalars = [0, 1, -1, 3, -17, Fraction(2, 3), Fraction(-7, 4), Fraction(5, 11)]
    for _ in range(60):
        f = _random_ratfn(rng)
        for x in scalars:
            c = lrs._RatFn([x])
            pairs = [
                (f + x, f + c), (x + f, c + f), (f - x, f - c), (x - f, c - f),
                (f * x, f * c), (x * f, c * f), (-f, f * lrs._RatFn([-1])),
            ]
            if x != 0:
                # f / x is f times the constant 1/x; f / _RatFn([x]) would
                # instead fold x into the denominator.
                pairs.append((f / x, f * lrs._RatFn([1 / Fraction(x)])))
            for got, want in pairs:
                assert (got._num, got._den) == (want._num, want._den), (f.num, f.den, x)


def _count_eigvals(monkeypatch) -> list:
    eigvals, shapes = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: shapes.append(m.shape) or eigvals(m))
    return shapes


def _distinct_degrees(windows) -> int:
    """Distinct polynomial degrees of at least 2 over all windows together."""
    degrees = set()
    for n, k in windows:
        domain, extrema = lrs._window_polys(n, k, DEFAULT_TOL)
        degrees |= {len(c) - 1 for c, _ in domain + extrema if len(c) > 2}
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


_SMALLEST_BATCH = [(n, 2) for n in range(7, 7 + lrs.BATCH_MIN_WINDOWS)]


@pytest.mark.parametrize(
    "windows, batched",
    [
        ([(23, 3)], False),
        (lrs._windows(60), False),
        (_SMALLEST_BATCH[:-1], False),
        (_SMALLEST_BATCH, True),
        ([w for n in range(7, 41) for w in lrs._windows(n)], True),
    ],
    ids=["one window", "one n", "below the batch size", "smallest batch", "7..40"],
)
def test_sweep_evaluates_the_float_forms_once(monkeypatch, windows, batched):
    # Both names of _forms are counted: lrs imports it for the exact
    # rational functions, and bound_polys evaluates it on floats.  A batch
    # builds its exact polynomials in one _RatFns pass, a smaller sweep in
    # one _RatFn pass per window; the largest n <= 60 has 4 windows.
    operands = []
    for module in (lrs, bound_polys):
        monkeypatch.setattr(module, "_forms", lambda n, a, b: operands.append(type(a)) or _forms(n, a, b))
    lrs._sweep(windows, DEFAULT_TOL)
    exact = [t for t in operands if t is not np.ndarray]
    assert exact == ([lrs._RatFns] if batched else [lrs._RatFn] * len(windows))
    assert operands.count(np.ndarray) == 1


def test_cold_table_stays_cold(monkeypatch):
    # A memo of roots or of exact polynomials that outlived a call would make
    # the second table solve smaller stacks or multiply fewer polynomials.
    # table(7, 40) is one _RatFns batch and table(40, 40) three _RatFn
    # windows, so the products of both engines are counted.
    shapes = _count_eigvals(monkeypatch)
    products = []

    def counting(cls):
        mul = cls._mul
        return staticmethod(lambda p, q: products.append(cls) or mul(p, q))

    for cls in (lrs._RatFn, lrs._RatFns):
        monkeypatch.setattr(cls, "_mul", counting(cls))
    runs = []
    for _ in range(2):
        k_slice.cache_clear()
        del shapes[:], products[:]
        tables = table(7, 40), table(40, 40)
        runs.append((tables, list(shapes), products.count(lrs._RatFn), products.count(lrs._RatFns)))
    assert runs[0] == runs[1]
    assert runs[0][1] and runs[0][2] and runs[0][3]


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
