"""Truncated power series over exact coefficients.

A ``TruncatedSeries`` holds coefficients c_0..c_N of sum c_k x^k, or, in
EGF form (``egf=True``), the scaled coefficients k! c_k of the same sum.
Coefficients are rationals (``Fraction``) or integer polynomials in q
(``BivariatePolynomial``).  The q-exponential generating functions live
over Z[q] in EGF form, where k! c_k is a polynomial although c_k is not,
so no rational function ever appears.  Arithmetic never reads beyond
order N, so truncation is exact by construction.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .polynomials import BivariatePolynomial


class ZeroConstantTermError(ZeroDivisionError):
    """Series division by a series whose constant term is zero."""


class NonPolynomialCoefficientError(ArithmeticError):
    """A coefficient expected to reduce to an integer polynomial did not."""


@dataclass(frozen=True)
class TruncatedSeries:
    order: int
    coeffs: tuple
    egf: bool = False

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")

    def coefficient(self, k):
        return self.coeffs[k]

    def to_json(self):
        """Exact textual coefficients c_0..c_N (k! c_k in EGF form)."""
        out = {"order": self.order, "coefficients": [str(c) for c in self.coeffs]}
        if self.egf:
            out["egf"] = True
        return out


def _with(a, coeffs):
    return TruncatedSeries(a.order, tuple(coeffs), a.egf)


def series_from_coefficients(coeffs, order, egf=False):
    """Pad or truncate an explicit coefficient list to the given order."""
    cs = list(coeffs)
    if not cs:
        raise ValueError("at least one coefficient is required")
    zero = cs[0] * 0
    while len(cs) <= order:
        cs.append(zero)
    return TruncatedSeries(order, tuple(cs[: order + 1]), egf)


def series_exp_linear(c, order, egf=False):
    """exp(c*x) truncated: coefficients c^k / k!, or c^k in EGF form."""
    coeffs = []
    power = c**0
    for k in range(order + 1):
        coeffs.append(power if egf else power / factorial(k))
        power = power * c
    return TruncatedSeries(order, tuple(coeffs), egf)


def _check_orders(a, b):
    if a.order != b.order:
        raise ValueError("series orders differ; truncate explicitly first")
    if a.egf != b.egf:
        raise ValueError("one series is in EGF form and the other is not")


def series_add(a, b):
    _check_orders(a, b)
    return _with(a, (x + y for x, y in zip(a.coeffs, b.coeffs)))


def series_sub(a, b):
    _check_orders(a, b)
    return _with(a, (x - y for x, y in zip(a.coeffs, b.coeffs)))


def series_scale(a, c):
    return _with(a, (c * x for x in a.coeffs))


def series_mul(a, b):
    """Cauchy product; in EGF form the binomial convolution."""
    _check_orders(a, b)
    zero = a.coeffs[0] * 0
    out = [zero] * (a.order + 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j in range(a.order + 1 - i):
            y = b.coeffs[j]
            if y:
                term = x * y
                out[i + j] = out[i + j] + (term * comb(i + j, i) if a.egf else term)
    return _with(a, out)


def series_divide(a, b):
    """Coefficients of a/b; the divisor's constant term must be invertible.

    In EGF form the quotient's scaled coefficients follow from
    a_k = sum_j C(k,j) out_j b_{k-j}.  A polynomial constant term must
    divide exactly (InexactDivisionError otherwise); a constant term 1,
    which the q-EGFs have, needs no division at all.
    """
    _check_orders(a, b)
    if not b.coeffs[0]:
        raise ZeroConstantTermError("divisor has zero constant term")
    b0 = b.coeffs[0]
    out = []
    for k in range(a.order + 1):
        acc = a.coeffs[k]
        for j in range(k):
            term = out[j] * b.coeffs[k - j]
            acc = acc - (term * comb(k, j) if a.egf else term)
        if b0 != 1:
            acc = acc.exact_div(b0) if isinstance(acc, BivariatePolynomial) else acc / b0
        out.append(acc)
    return _with(a, out)


def q_egf_divide(numerator, denominator):
    """numerator / denominator for q-EGFs whose coefficients all carry 1 - q.

    The factor is divided out of every coefficient of both, exactly and
    checked: a coefficient it does not divide raises InexactDivisionError.
    """
    factor = 1 - BivariatePolynomial.q()

    def reduced(s):
        return _with(s, (c.exact_div(factor) for c in s.coeffs))

    return series_divide(reduced(numerator), reduced(denominator))


def coefficient_as_integer(series, k):
    """k! * c_k for a rational series, asserted to be an integer."""
    value = series.coefficient(k)
    if not series.egf:
        value = value * factorial(k)
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator != 1:
        raise NonPolynomialCoefficientError(
            f"coefficient {k} scaled by {k}! is {value}, not an integer"
        )
    return int(value)


def coefficient_as_polynomial(series, k):
    """k! * c_k as an integer polynomial in q.

    Over Fractions it must be an integer; a non-integral value signals
    that the identity under test is violated.
    """
    value = series.coefficient(k)
    if isinstance(value, BivariatePolynomial):
        return value if series.egf else value * factorial(k)
    return BivariatePolynomial.constant(coefficient_as_integer(series, k))
