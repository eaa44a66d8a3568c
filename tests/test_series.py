from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from cyclic_derangements.polynomials import BivariatePolynomial, InexactDivisionError
from cyclic_derangements.series import (
    NonPolynomialCoefficientError,
    TruncatedSeries,
    ZeroConstantTermError,
    coefficient_as_integer,
    coefficient_as_polynomial,
    q_egf_divide,
    series_add,
    series_divide,
    series_exp_linear,
    series_from_coefficients,
    series_mul,
    series_scale,
    series_sub,
)

F = Fraction


def rational_series(order=6):
    return st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
        min_size=order + 1,
        max_size=order + 1,
    ).map(lambda cs: TruncatedSeries(order, tuple(cs)))


def test_construction_checks_length():
    with pytest.raises(ValueError):
        TruncatedSeries(3, (F(1),))


def test_exp_series_coefficients():
    e = series_exp_linear(F(2), 5)
    for k in range(6):
        assert e.coefficient(k) == F(2**k, factorial(k))


def test_from_coefficients_pads_with_matching_zero():
    s = series_from_coefficients([F(3), F(1)], 4)
    assert s.coeffs == (F(3), F(1), F(0), F(0), F(0))
    one = BivariatePolynomial.one()
    t = series_from_coefficients([one], 2, egf=True)
    assert t.coefficient(2) == BivariatePolynomial.zero()


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        series_add(series_exp_linear(F(1), 3), series_exp_linear(F(1), 4))


@given(rational_series(), rational_series())
def test_mul_commutes_and_distributes(a, b):
    assert series_mul(a, b).coeffs == series_mul(b, a).coeffs
    c = series_exp_linear(F(1), a.order)
    lhs = series_mul(series_add(a, b), c)
    rhs = series_add(series_mul(a, c), series_mul(b, c))
    assert lhs.coeffs == rhs.coeffs


@given(rational_series())
def test_divide_inverts_multiply(a):
    b = series_from_coefficients([F(2), F(-1), F(1, 3)], a.order)
    assert series_divide(series_mul(a, b), b).coeffs == a.coeffs


def test_divide_requires_invertible_constant():
    order = 4
    numerator = series_exp_linear(F(1), order)
    bad = series_from_coefficients([F(0), F(1)], order)
    with pytest.raises(ZeroConstantTermError):
        series_divide(numerator, bad)


def test_geometric_series_division():
    # 1 / (1 - x): all coefficients 1
    order = 6
    one = series_from_coefficients([F(1)], order)
    den = series_from_coefficients([F(1), F(-1)], order)
    geo = series_divide(one, den)
    assert geo.coeffs == tuple(F(1) for _ in range(order + 1))


def test_scale_and_sub():
    order = 3
    a = series_exp_linear(F(1), order)
    doubled = series_scale(a, F(2))
    assert series_sub(doubled, a).coeffs == a.coeffs


def test_coefficient_as_integer():
    s = series_exp_linear(F(3), 4)
    assert coefficient_as_integer(s, 2) == 9  # 2! * 9/2
    bad = series_from_coefficients([F(1, 3)], 2)
    with pytest.raises(NonPolynomialCoefficientError):
        coefficient_as_integer(bad, 0)


def test_coefficient_as_polynomial_over_rational_functions():
    q = BivariatePolynomial.q()
    s = series_exp_linear(q, 3, egf=True)
    p = coefficient_as_polynomial(s, 2)  # 2! * q^2/2! = q^2
    assert p.q_coefficient_list() == [0, 0, 1]
    ordinary = series_from_coefficients([q, q], 3)
    assert coefficient_as_polynomial(ordinary, 1) == q


def test_coefficient_as_polynomial_rejects_residual_denominator():
    # exp(x) / (1 - q): the numerator lacks the factor 1 - q, so the
    # quotient has a denominator left over and must not come out at all
    one = BivariatePolynomial.one()
    numerator = series_exp_linear(one, 2, egf=True)
    denominator = series_from_coefficients([1 - BivariatePolynomial.q()], 2, egf=True)
    with pytest.raises(InexactDivisionError):
        q_egf_divide(numerator, denominator)


# -- EGF form over Z[q] ---------------------------------------------------------------


def zq_egf_series(order=5):
    polys = st.lists(st.integers(-6, 6), max_size=4).map(
        BivariatePolynomial.from_q_coefficients
    )
    return st.lists(polys, min_size=order + 1, max_size=order + 1).map(
        lambda cs: TruncatedSeries(order, tuple(cs), egf=True)
    )


def at_q(series, q_value):
    """The ordinary Fraction series of an EGF-form series at q = q_value."""
    return TruncatedSeries(
        series.order,
        tuple(Fraction(c.evaluate(q_value), factorial(k)) for k, c in enumerate(series.coeffs)),
    )


@given(zq_egf_series(), zq_egf_series())
def test_egf_mul_and_divide_over_zq(a, b):
    product = series_mul(a, b)
    assert at_q(product, 2).coeffs == series_mul(at_q(a, 2), at_q(b, 2)).coeffs
    unit = TruncatedSeries(b.order, (BivariatePolynomial.one(),) + b.coeffs[1:], egf=True)
    assert series_divide(series_mul(a, unit), unit) == a


def test_egf_divide_needs_invertible_constant_term():
    q = BivariatePolynomial.q()
    numerator = series_exp_linear(q, 3, egf=True)
    with pytest.raises(ZeroConstantTermError):
        series_divide(numerator, series_from_coefficients([0 * q, q], 3, egf=True))
    # a constant term -1 is a unit of Z[q]; 2 is not
    minus_one = series_from_coefficients([BivariatePolynomial.constant(-1)], 3, egf=True)
    assert series_divide(numerator, minus_one) == series_scale(numerator, -1)
    two = series_from_coefficients([BivariatePolynomial.constant(2)], 3, egf=True)
    with pytest.raises(InexactDivisionError):
        series_divide(numerator, two)
    with pytest.raises(ValueError):
        series_divide(numerator, series_exp_linear(F(1), 3))


def test_q_egf_divide_takes_out_one_minus_q_once():
    q = BivariatePolynomial.q()
    u = 1 - q
    reduced_numerator = series_exp_linear(q + 2, 4, egf=True)
    reduced_denominator = series_from_coefficients([BivariatePolynomial.one(), q, 3 * q], 4, egf=True)
    expected = series_divide(reduced_numerator, reduced_denominator)
    assert q_egf_divide(
        series_scale(reduced_numerator, u), series_scale(reduced_denominator, u)
    ) == expected
    assert expected.to_json()["egf"] is True


def test_to_json_exact_strings():
    s = series_from_coefficients([F(1, 3), F(-2)], 2)
    assert s.to_json() == {
        "order": 2,
        "coefficients": ["1/3", "-2", "0"],
    }
