from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from cyclic_derangements.counting import derangement_count, derangement_egf
from cyclic_derangements.polynomials import BivariatePolynomial, InexactDivisionError
from cyclic_derangements.series import (
    TruncatedSeries,
    ZeroConstantTermError,
    coefficient_as_polynomial,
    q_egf_divide,
    series_divide,
    series_exp_linear,
    series_from_coefficients,
    series_scale,
    series_sub,
)

Q = BivariatePolynomial.q()


def convolve(a, b):
    """Reference product of two scaled series: the binomial convolution."""
    zero = a.coeffs[0] * 0
    return TruncatedSeries(
        a.order,
        tuple(
            sum((comb(k, j) * a.coeffs[j] * b.coeffs[k - j] for j in range(k + 1)), zero)
            for k in range(a.order + 1)
        ),
    )


def series_of(coefficients, order, constant=None):
    """Series whose constant term is drawn from ``constant`` (by default as the rest)."""
    rest = st.lists(coefficients, min_size=order, max_size=order)
    return st.tuples(coefficients if constant is None else constant, rest).map(
        lambda parts: TruncatedSeries(order, (parts[0], *parts[1]))
    )


INTEGERS = st.integers(-6, 6)
ZQ = st.lists(INTEGERS, max_size=4).map(BivariatePolynomial.from_q_coefficients)
UNITS = st.sampled_from((1, -1))


def at_q(series, q_value):
    """The integer series of a Z[q] series at q = q_value."""
    return TruncatedSeries(series.order, tuple(c.evaluate(q_value) for c in series.coeffs))


def test_construction_checks_length():
    with pytest.raises(ValueError):
        TruncatedSeries(3, (1,))


def test_exp_series_coefficients():
    assert series_exp_linear(2, 5).coeffs == tuple(2**k for k in range(6))
    assert series_exp_linear(Q, 3).coefficient(2) == Q**2


def test_from_coefficients_pads_with_matching_zero():
    assert series_from_coefficients([3, 1], 4).coeffs == (3, 1, 0, 0, 0)
    s = series_from_coefficients([BivariatePolynomial.one()], 2)
    assert s.coefficient(2) == BivariatePolynomial.zero()
    assert isinstance(s.coefficient(2), BivariatePolynomial)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        series_sub(series_exp_linear(1, 3), series_exp_linear(1, 4))
    with pytest.raises(ValueError):
        series_divide(series_exp_linear(1, 3), series_exp_linear(1, 4))


@given(series_of(INTEGERS, 6), series_of(INTEGERS, 6, UNITS))
def test_divide_inverts_multiply(a, b):
    assert series_divide(convolve(a, b), b) == a
    assert convolve(series_divide(a, b), b) == a


def test_divide_requires_invertible_constant():
    numerator = series_exp_linear(3, 3)
    with pytest.raises(ZeroConstantTermError):
        series_divide(numerator, series_from_coefficients([0, 1], 3))
    # -1 is a unit of Z, 2 is not
    minus_one = series_from_coefficients([-1], 3)
    assert series_divide(numerator, minus_one) == series_scale(numerator, -1)
    with pytest.raises(InexactDivisionError):
        series_divide(numerator, series_from_coefficients([2], 3))


def test_geometric_series_division():
    # 1 / (1 - x) = sum x^k: every scaled coefficient is k!
    order = 6
    one = series_from_coefficients([1], order)
    geo = series_divide(one, series_from_coefficients([1, -1], order))
    assert geo.coeffs == tuple(factorial(k) for k in range(order + 1))


def test_derangement_egf_coefficients_are_the_counts():
    for r in range(1, 6):
        assert derangement_egf(r, 12).coeffs == tuple(derangement_count(r, n) for n in range(13))


def test_scale_and_sub():
    a = series_exp_linear(1, 3)
    assert series_sub(series_scale(a, 2), a).coeffs == a.coeffs


def test_coefficient_as_polynomial_over_rational_functions():
    p = coefficient_as_polynomial(series_exp_linear(Q, 3), 2)  # 2! * q^2/2! = q^2
    assert p.q_coefficient_list() == [0, 0, 1]
    assert coefficient_as_polynomial(series_exp_linear(3, 4), 2) == BivariatePolynomial.constant(9)


def test_coefficient_as_polynomial_rejects_residual_denominator():
    # exp(x) / (1 - q): the numerator lacks the factor 1 - q, so the
    # quotient has a denominator left over and must not come out at all
    numerator = series_exp_linear(BivariatePolynomial.one(), 2)
    denominator = series_from_coefficients([1 - Q], 2)
    with pytest.raises(InexactDivisionError):
        q_egf_divide(numerator, denominator)


# -- over Z[q] -------------------------------------------------------------------------


@given(series_of(ZQ, 5), series_of(ZQ, 5, UNITS.map(BivariatePolynomial.constant)))
def test_egf_mul_and_divide_over_zq(a, b):
    assert series_divide(convolve(a, b), b) == a
    # evaluating at q = 2 commutes with the division
    assert at_q(series_divide(a, b), 2) == series_divide(at_q(a, 2), at_q(b, 2))


def test_egf_divide_needs_invertible_constant_term():
    numerator = series_exp_linear(Q, 3)
    with pytest.raises(ZeroConstantTermError):
        series_divide(numerator, series_from_coefficients([0 * Q, Q], 3))
    # a constant term -1 is a unit of Z[q]; 2 is not
    minus_one = series_from_coefficients([BivariatePolynomial.constant(-1)], 3)
    assert series_divide(numerator, minus_one) == series_scale(numerator, -1)
    two = series_from_coefficients([BivariatePolynomial.constant(2)], 3)
    with pytest.raises(InexactDivisionError):
        series_divide(numerator, two)


def test_q_egf_divide_takes_out_one_minus_q_once():
    u = 1 - Q
    reduced_numerator = series_exp_linear(Q + 2, 4)
    reduced_denominator = series_from_coefficients([BivariatePolynomial.one(), Q, 3 * Q], 4)
    expected = series_divide(reduced_numerator, reduced_denominator)
    assert q_egf_divide(
        series_scale(reduced_numerator, u), series_scale(reduced_denominator, u)
    ) == expected


def test_to_json_exact_strings():
    assert series_from_coefficients([1, -2], 2).to_json() == {
        "order": 2,
        "coefficients": ["1", "-2", "0"],
    }
    assert series_exp_linear(Q, 2).to_json()["coefficients"][2] == str(Q**2)
