from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from cyclic_derangements.counting import derangement_count, derangement_egf
from cyclic_derangements.polynomials import BivariatePolynomial, InexactDivisionError
from cyclic_derangements.series import (
    ZeroConstantTermError,
    coefficient_as_polynomial,
    q_egf_divide,
    series_divide,
    series_exp_sum,
)

Q = BivariatePolynomial.q()


def convolve(a, b):
    """Reference product of two scaled series: the binomial convolution."""
    zero = a[0] * 0
    return tuple(
        sum((comb(k, j) * a[j] * b[k - j] for j in range(k + 1)), zero)
        for k in range(len(a))
    )


def series_of(coefficients, order, constant=None):
    """Series whose constant term is drawn from ``constant`` (by default as the rest)."""
    rest = st.lists(coefficients, min_size=order, max_size=order)
    return st.tuples(coefficients if constant is None else constant, rest).map(
        lambda parts: (parts[0], *parts[1])
    )


INTEGERS = st.integers(-6, 6)
ZQ = st.lists(INTEGERS, max_size=4).map(BivariatePolynomial.from_q_coefficients)
UNITS = st.sampled_from((1, -1))


def at_q(series, q_value):
    """The integer series of a Z[q] series at q = q_value."""
    return tuple(c.evaluate(q_value) for c in series)


def test_construction_checks_length():
    assert len(series_exp_sum([(1, 2)], 0)) == 1
    assert len(series_exp_sum([(1, 2), (3, 0)], 4)) == 5
    with pytest.raises(ValueError):
        series_exp_sum([(1, 2)], -1)


def test_exp_series_coefficients():
    assert series_exp_sum([(1, 2)], 5) == tuple(2**k for k in range(6))
    assert series_exp_sum([(1, Q)], 3)[2] == Q**2
    # exp(0 x) is the constant 1; the pairs add term by term
    assert series_exp_sum([(3, 0)], 3) == (3, 0, 0, 0)
    assert series_exp_sum([(2, 1), (-1, 1)], 3) == (1, 1, 1, 1)
    assert series_exp_sum([(1, 0), (-Q, 2)], 2) == (1 - Q, -2 * Q, -4 * Q)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        series_divide(series_exp_sum([(1, 1)], 3), series_exp_sum([(1, 1)], 4))
    with pytest.raises(ValueError, match="empty"):
        series_divide((), ())


@given(series_of(INTEGERS, 6), series_of(INTEGERS, 6, UNITS))
def test_divide_inverts_multiply(a, b):
    assert series_divide(convolve(a, b), b) == a
    assert convolve(series_divide(a, b), b) == a


def test_divide_requires_invertible_constant():
    numerator = series_exp_sum([(1, 3)], 3)
    with pytest.raises(ZeroConstantTermError):
        series_divide(numerator, (0, 1, 0, 0))
    # -1 is a unit of Z, 2 is not
    assert series_divide(numerator, (-1, 0, 0, 0)) == series_exp_sum([(-1, 3)], 3)
    with pytest.raises(InexactDivisionError):
        series_divide(numerator, (2, 0, 0, 0))


def test_geometric_series_division():
    # 1 / (1 - x) = sum x^k: every scaled coefficient is k!
    order = 6
    one = series_exp_sum([(1, 0)], order)
    geo = series_divide(one, (1, -1, *[0] * (order - 1)))
    assert geo == tuple(factorial(k) for k in range(order + 1))


def test_derangement_egf_coefficients_are_the_counts():
    for r in range(1, 6):
        assert derangement_egf(r, 12) == tuple(derangement_count(r, n) for n in range(13))


def test_coefficient_as_polynomial_over_rational_functions():
    p = coefficient_as_polynomial(series_exp_sum([(1, Q)], 3), 2)  # 2! * q^2/2! = q^2
    assert p.q_coefficient_list() == [0, 0, 1]
    assert coefficient_as_polynomial(series_exp_sum([(1, 3)], 4), 2) == BivariatePolynomial.constant(9)


def test_coefficient_as_polynomial_rejects_residual_denominator():
    # exp(x) / (1 - q): the numerator lacks the factor 1 - q, so the
    # quotient has a denominator left over and must not come out at all
    with pytest.raises(InexactDivisionError):
        q_egf_divide([(BivariatePolynomial.one(), 1)], [(1 - Q, 0)], 2)


# -- over Z[q] -------------------------------------------------------------------------


@given(series_of(ZQ, 5), series_of(ZQ, 5, UNITS.map(BivariatePolynomial.constant)))
def test_egf_mul_and_divide_over_zq(a, b):
    assert series_divide(convolve(a, b), b) == a
    # evaluating at q = 2 commutes with the division
    assert at_q(series_divide(a, b), 2) == series_divide(at_q(a, 2), at_q(b, 2))


def test_egf_divide_needs_invertible_constant_term():
    numerator = series_exp_sum([(1, Q)], 3)
    zero = BivariatePolynomial.zero()
    with pytest.raises(ZeroConstantTermError):
        series_divide(numerator, (zero, Q, zero, zero))
    # a constant term -1 is a unit of Z[q]; 2 is not
    minus_one = series_exp_sum([(BivariatePolynomial.constant(-1), 0)], 3)
    assert series_divide(numerator, minus_one) == series_exp_sum([(-1, Q)], 3)
    two = series_exp_sum([(BivariatePolynomial.constant(2), 0)], 3)
    with pytest.raises(InexactDivisionError):
        series_divide(numerator, two)


def test_q_egf_divide_takes_out_one_minus_q_once():
    u = 1 - Q
    numerator = [(1, Q + 2)]
    denominator = [(1, 0), (Q, 3), (-Q, 1)]
    expected = series_divide(series_exp_sum(numerator, 4), series_exp_sum(denominator, 4))
    assert q_egf_divide(
        [(u * c, a) for c, a in numerator], [(u * c, a) for c, a in denominator], 4
    ) == expected
