"""Truncated exponential generating functions over Z and Z[q].

A series of order N, sum_k c_k x^k truncated after x^N, is the tuple of
its scaled coefficients k! c_k for k = 0..N, each an ``int`` or an
integer polynomial in q (``BivariatePolynomial``).  The q-exponential
generating functions live here because k! c_k is a polynomial although
c_k is not, so no rational ever appears.  Division never reads beyond
order N, so truncation is exact by construction.
"""

from math import comb

from .polynomials import BivariatePolynomial, InexactDivisionError


class ZeroConstantTermError(ZeroDivisionError):
    """Series division by a series whose constant term is zero."""


def series_exp_sum(terms, order):
    """Sum of c exp(a x) over the (c, a) pairs: scaled coefficients sum c a^k.

    exp(0 x) is the constant 1; each coefficient starts from the first term.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    columns = []
    for c, a in terms:
        column = [c]
        for _ in range(order):
            column.append(column[-1] * a)
        columns.append(column)
    return tuple(sum(rest, first) for first, *rest in zip(*columns))


def series_divide(a, b):
    """Scaled coefficients of a/b; the divisor's constant term must be 1 or -1.

    The quotient's scaled coefficients follow from the binomial
    convolution a_k = sum_j C(k,j) out_j b_{k-j}.  A constant term 1 or
    -1, a unit of Z[q], is its own inverse; zero raises
    ZeroConstantTermError and any other value InexactDivisionError.
    """
    if len(a) != len(b):
        raise ValueError("series orders differ; truncate explicitly first")
    if not b:
        raise ValueError("an empty series has no order")
    b0 = b[0]
    if not b0:
        raise ZeroConstantTermError("divisor has zero constant term")
    if b0 not in (1, -1):
        raise InexactDivisionError(f"divisor constant term {b0} is not a unit")
    negate = b0 != 1
    out = []
    for k, acc in enumerate(a):
        for j in range(k):
            acc = acc - out[j] * b[k - j] * comb(k, j)
        out.append(-acc if negate else acc)
    return tuple(out)


def q_egf_divide(numerator, denominator, order):
    """Quotient of two sums of exponentials whose coefficients all carry 1 - q.

    Both are ``series_exp_sum`` terms.  The factor is divided out of every
    coefficient of both, exactly and checked: a coefficient it does not
    divide raises InexactDivisionError.
    """
    factor = 1 - BivariatePolynomial.q()

    def reduced(terms):
        return tuple(c.exact_div(factor) for c in series_exp_sum(terms, order))

    return series_divide(reduced(numerator), reduced(denominator))


def coefficient_as_polynomial(series, k):
    """k! * c_k as an integer polynomial in q."""
    value = series[k]
    if isinstance(value, BivariatePolynomial):
        return value
    return BivariatePolynomial.constant(value)
