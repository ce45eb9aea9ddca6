import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from twodist.gegenbauer import (
    GegenbauerExpansion,
    as_monomial,
    from_gegenbauer,
    gegenbauer_eval,
    gegenbauer_poly,
    to_gegenbauer,
)


# Independent closed-form oracles for the low-degree members of the family.
def _g2(n, t):
    return (n * t * t - 1.0) / (n - 1.0)


def _g3(n, t):
    return ((n + 2.0) * t**3 - 3.0 * t) / (n - 1.0)


def _g4(n, t):
    return ((n + 2.0) * (n + 4.0) * t**4 - 6.0 * (n + 2.0) * t**2 + 3.0) / (n * n - 1.0)


def test_degree_zero_is_constant_one():
    assert gegenbauer_eval(11, 0, 0.37) == 1.0
    assert gegenbauer_eval(2, 0, -0.9) == 1.0


def test_value_at_one_example():
    assert abs(gegenbauer_eval(9, 5, 1.0) - 1.0) < 1e-12


def test_quadratic_example():
    # (n t^2 - 1)/(n - 1) at n=7, t=0.5 -> 0.75/6
    assert abs(gegenbauer_eval(7, 2, 0.5) - 0.125) < 1e-15


def test_normalization_at_one():
    for n in range(2, 51):
        for k in range(0, 11):
            assert abs(gegenbauer_eval(n, k, 1.0) - 1.0) < 1e-12, (n, k)


def test_matches_closed_forms_at_random_t():
    rng = np.random.default_rng(0)
    t = rng.uniform(-1.0, 1.0, 100)
    for n in (2, 3, 5, 7, 11, 23, 40):
        assert np.max(np.abs(gegenbauer_eval(n, 2, t) - _g2(n, t))) < 1e-12
        assert np.max(np.abs(gegenbauer_eval(n, 3, t) - _g3(n, t))) < 1e-12
        assert np.max(np.abs(gegenbauer_eval(n, 4, t) - _g4(n, t))) < 1e-12


def test_poly_agrees_with_recurrence_eval():
    rng = np.random.default_rng(1)
    t = rng.uniform(-1.0, 1.0, 50)
    for n in (2, 5, 13, 30):
        for k in range(0, 9):
            coeffs = gegenbauer_poly(n, k)
            assert np.max(np.abs(npoly.polyval(t, coeffs) - gegenbauer_eval(n, k, t))) < 1e-11


def test_poly_examples():
    assert np.allclose(gegenbauer_poly(8, 1), [0.0, 1.0])
    assert np.allclose(gegenbauer_poly(5, 2), [-0.25, 0.0, 1.25], atol=1e-15)
    assert np.allclose(
        gegenbauer_poly(7, 4), [3.0 / 48, 0.0, -54.0 / 48, 0.0, 99.0 / 48], atol=1e-14
    )


def test_to_gegenbauer_t_squared():
    for n in range(2, 31):
        e = to_gegenbauer(n, [0.0, 0.0, 1.0])
        assert np.allclose(e.coeffs, [1.0 / n, 0.0, (n - 1.0) / n], atol=1e-14)


def test_to_gegenbauer_quadratic_pair_formula():
    # (t - a)(t - b) -> f0 = ab + 1/n, f1 = -(a+b), f2 = (n-1)/n
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 41))
        b, a = np.sort(rng.uniform(-1.0, 1.0, 2))
        e = to_gegenbauer(n, npoly.polyfromroots([a, b]))
        assert abs(e.coeffs[0] - (a * b + 1.0 / n)) < 1e-12
        assert abs(e.coeffs[1] + (a + b)) < 1e-12
        assert abs(e.coeffs[2] - (n - 1.0) / n) < 1e-12


def test_basis_elements_expand_to_unit_vectors():
    for n in (2, 7, 19):
        for k in range(0, 7):
            e = to_gegenbauer(n, gegenbauer_poly(n, k))
            expected = np.zeros(k + 1)
            expected[k] = 1.0
            assert np.allclose(e.coeffs, expected, atol=1e-12)


def test_from_gegenbauer_examples():
    assert np.allclose(from_gegenbauer(GegenbauerExpansion(5, [1.0])), [1.0])
    # pure G_2 at n=7 -> (7 t^2 - 1)/6
    out = from_gegenbauer(GegenbauerExpansion(7, [0.0, 0.0, 1.0]))
    assert np.allclose(out, [-1.0 / 6, 0.0, 7.0 / 6], atol=1e-14)


def test_round_trip_random_polynomials():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 31))
        deg = int(rng.integers(0, 7))
        coeffs = rng.uniform(-2.0, 2.0, deg + 1)
        coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 1.0
        back = from_gegenbauer(to_gegenbauer(n, coeffs))
        assert len(back) == deg + 1
        assert np.max(np.abs(back - coeffs)) < 1e-10


def test_expansion_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        f = rng.uniform(-1.0, 1.0, int(rng.integers(1, 7)))
        f[-1] = 1.0
        again = to_gegenbauer(n, from_gegenbauer(GegenbauerExpansion(n, f)))
        assert np.max(np.abs(again.coeffs - f)) < 1e-10


def test_sum_rule_value_at_one():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 26))
        coeffs = rng.uniform(-2.0, 2.0, 5)
        e = to_gegenbauer(n, coeffs)
        assert abs(e.coeffs.sum() - npoly.polyval(1.0, coeffs)) < 1e-10


def test_expansion_call_matches_monomial_value():
    e = to_gegenbauer(9, [0.5, -1.0, 0.0, 2.0])
    t = np.linspace(-1, 1, 11)
    assert np.max(np.abs(e(t) - npoly.polyval(t, [0.5, -1.0, 0.0, 2.0]))) < 1e-12


def _term_sum(n, f, t):
    """f_k * gegenbauer_eval(n, k, t) summed over the nonzero f_k in index order."""
    total = np.zeros_like(t) if isinstance(t, np.ndarray) else 0.0
    for k, fk in enumerate(f):
        if fk != 0.0:
            total = total + fk * gegenbauer_eval(n, k, t)
    return total


def _bits(x):
    return [v.hex() for v in np.atleast_1d(x).tolist()]


def test_expansion_call_is_the_sum_of_its_terms():
    # One recurrence pass gives each G_k by the IEEE operations gegenbauer_eval
    # uses, on Python floats for a scalar t and on arrays otherwise, so the
    # sums agree bit for bit, overflow, NaN and infinite coefficients included.
    rng = np.random.default_rng(11)
    ts = np.array([-1.0, -0.5, -0.0, 0.0, 0.3, 1.0, 7.5, -1e3, 1e200, math.nan, math.inf])
    specials = np.array([0.0, math.nan, math.inf, -math.inf])
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(2, 61):
            for deg in range(9):
                f = rng.uniform(-2.0, 2.0, deg + 1)
                odd = rng.random(deg + 1) < 0.3
                f[odd] = rng.choice(specials, odd.sum())
                e = GegenbauerExpansion(n, f)
                whole = e(ts)
                assert _bits(whole) == _bits(_term_sum(n, f, ts)), (n, f)
                for t, want in zip(ts.tolist(), _bits(whole)):
                    got = e(t)
                    assert type(got) is float and got.hex() == want == _term_sum(n, f, t).hex(), (n, f, t)


def test_trailing_zeros_are_stripped():
    assert len(as_monomial([1.0, 2.0, 1e-15])) == 2
    assert as_monomial([1e-13, -1e-12, 0.0]).tolist() == [0.0]
    for bad in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            as_monomial(bad)
    out = from_gegenbauer(GegenbauerExpansion(7, [0.5, 0.0, 0.0]))
    assert len(out) == 1


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        gegenbauer_eval(1, 2, 0.5)
    with pytest.raises(ValueError):
        gegenbauer_poly(1, 2)
    with pytest.raises(ValueError):
        to_gegenbauer(1, [0.0, 1.0])
    with pytest.raises(ValueError):
        GegenbauerExpansion(1, [1.0])


def test_expansion_rejects_what_it_cannot_evaluate():
    # [] reported degree -1 and [[...]] degree 0; delsarte_check then failed
    # with IndexError and numpy's "truth value ... ambiguous" error.
    for bad in ([], [[0.1, 0.0, 0.9]]):
        with pytest.raises(ValueError, match="coefficient array"):
            GegenbauerExpansion(7, bad)
    e = GegenbauerExpansion(7, 0.5)
    assert e.degree == 0 and e.coeffs.tolist() == [0.5]
    assert GegenbauerExpansion(7, [0.5, 0.0, 0.0]).degree == 2  # trailing zeros are kept


def test_rejects_negative_degree():
    with pytest.raises(ValueError):
        gegenbauer_eval(5, -1, 0.5)
    with pytest.raises(ValueError):
        gegenbauer_poly(5, -1)
