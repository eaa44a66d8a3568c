"""Truncated exponential generating functions over Z and Z[q].

A ``TruncatedSeries`` of order N stands for sum_k c_k x^k, truncated
after x^N, and holds the scaled coefficients k! c_k, each an ``int`` or
an integer polynomial in q (``BivariatePolynomial``).  The
q-exponential generating functions live here because k! c_k is a
polynomial although c_k is not, so no rational ever appears; products
are binomial convolutions of the scaled coefficients.  Arithmetic never
reads beyond order N, so truncation is exact by construction.
"""

from dataclasses import dataclass
from math import comb

from .polynomials import BivariatePolynomial, InexactDivisionError


class ZeroConstantTermError(ZeroDivisionError):
    """Series division by a series whose constant term is zero."""


@dataclass(frozen=True)
class TruncatedSeries:
    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")

    def coefficient(self, k):
        return self.coeffs[k]

    def to_json(self):
        """Exact textual scaled coefficients k! c_k for k = 0..N."""
        return {"order": self.order, "coefficients": [str(c) for c in self.coeffs]}


def _with(a, coeffs):
    return TruncatedSeries(a.order, tuple(coeffs))


def series_from_coefficients(coeffs, order):
    """Pad or truncate an explicit list of scaled coefficients to the given order."""
    cs = list(coeffs)
    if not cs:
        raise ValueError("at least one coefficient is required")
    zero = cs[0] * 0
    while len(cs) <= order:
        cs.append(zero)
    return TruncatedSeries(order, tuple(cs[: order + 1]))


def series_exp_linear(c, order):
    """exp(c*x) truncated: scaled coefficients c^k."""
    coeffs = []
    power = c**0
    for _ in range(order + 1):
        coeffs.append(power)
        power = power * c
    return TruncatedSeries(order, tuple(coeffs))


def _check_orders(a, b):
    if a.order != b.order:
        raise ValueError("series orders differ; truncate explicitly first")


def series_sub(a, b):
    _check_orders(a, b)
    return _with(a, (x - y for x, y in zip(a.coeffs, b.coeffs)))


def series_scale(a, c):
    return _with(a, (c * x for x in a.coeffs))


def series_divide(a, b):
    """Scaled coefficients of a/b; the divisor's constant term must be 1 or -1.

    The quotient's scaled coefficients follow from the binomial
    convolution a_k = sum_j C(k,j) out_j b_{k-j}.  A constant term 1 or
    -1, a unit of Z[q], is its own inverse; zero raises
    ZeroConstantTermError and any other value InexactDivisionError.
    """
    _check_orders(a, b)
    b0 = b.coeffs[0]
    if not b0:
        raise ZeroConstantTermError("divisor has zero constant term")
    if b0 not in (1, -1):
        raise InexactDivisionError(f"divisor constant term {b0} is not a unit")
    negate = b0 != 1
    out = []
    for k in range(a.order + 1):
        acc = a.coeffs[k]
        for j in range(k):
            acc = acc - out[j] * b.coeffs[k - j] * comb(k, j)
        out.append(-acc if negate else acc)
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


def coefficient_as_polynomial(series, k):
    """k! * c_k as an integer polynomial in q."""
    value = series.coefficient(k)
    if isinstance(value, BivariatePolynomial):
        return value
    return BivariatePolynomial.constant(value)
