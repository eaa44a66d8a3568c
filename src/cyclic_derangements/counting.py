"""Counting derangements in C_r wr S_n, exactly, by every available route.

Plain counts d(r, n):

* inclusion-exclusion formula  r^n n! sum_{i=0..n} (-1)^i / (r^i i!)
* two-term recurrence   d_n = (rn - 1) d_{n-1} + r(n-1) d_{n-2}
* one-term recurrence   d_n = rn d_{n-1} + (-1)^n
* transform from the r = 1 counts   d_n = sum_i C(n,i) r^i (r-1)^{n-i} d_i^{(1)}
* exhaustive enumeration

q,t-refinements (q tracks the major index, t the exponent sum), the
descent/excedance Eulerian families, exponential generating function
cross-checks, an embedded table of published reference values (with one
deliberately reported discrepancy), and a rational certificate that
d(r,n) / (r^n n!) converges to exp(-1/r).
"""

from collections import Counter
from fractions import Fraction
from math import comb, factorial

from .polynomials import (
    BivariatePolynomial,
    q_factorial,
    q_integer,
    t_bracket,
)
from .series import (
    q_egf_divide,
    series_divide,
    series_exp_sum,
)
from .wreath import STANDARD, _statistics_tally, group_order


def _require_r(r):
    if r < 1:
        raise ValueError(f"modulus r must be at least 1, got {r}")


def _require_n(n):
    if n < 0:
        raise ValueError(f"size n must be nonnegative, got {n}")


# -- plain counts --------------------------------------------------------------


def derangement_count(r, n):
    """Inclusion-exclusion formula; the rational sum provably clears."""
    _require_r(r)
    _require_n(n)
    total = sum(
        Fraction((-1) ** i, r**i * factorial(i)) for i in range(n + 1)
    )
    value = total * r**n * factorial(n)
    # integrality is part of the identity; a failure here is a finding
    if value.denominator != 1:
        raise ArithmeticError(f"d({r}, {n}) came out as {value}, not an integer")
    return int(value)


def derangement_count_two_term(r, n):
    """d_n = (rn - 1) d_{n-1} + r(n-1) d_{n-2}, d_0 = 1, d_1 = r - 1."""
    _require_r(r)
    _require_n(n)
    if n == 0:
        return 1
    prev_prev, prev = 1, r - 1
    for k in range(2, n + 1):
        prev_prev, prev = prev, (r * k - 1) * prev + r * (k - 1) * prev_prev
    return prev


def derangement_count_one_term(r, n):
    """d_n = rn d_{n-1} + (-1)^n, d_0 = 1."""
    _require_r(r)
    _require_n(n)
    value = 1
    for k in range(1, n + 1):
        value = r * k * value + (-1) ** k
    return value


def derangement_count_mixed_transform(r, n):
    """d_n^{(r)} = sum_i C(n,i) r^i (r-1)^{n-i} d_i^{(1)}; needs r >= 2."""
    _require_n(n)
    if r < 2:
        raise ValueError(
            "the transform degenerates at r = 1; use derangement_count"
        )
    classical = [derangement_count(1, i) for i in range(n + 1)]
    return sum(
        comb(n, i) * r**i * (r - 1) ** (n - i) * classical[i]
        for i in range(n + 1)
    )


def derangement_count_enumerated(r, n, bound=None):
    """Count by exhaustive enumeration (subject to the cardinality bound)."""
    return sum(_statistics_tally(r, n, derangements_only=True, bound=bound).values())


def fixed_point_count(r, n, k):
    """Number of elements with exactly k fixed points: C(n,k) d_{n-k}."""
    _require_r(r)
    _require_n(n)
    if not 0 <= k <= n:
        return 0
    return comb(n, k) * derangement_count(r, n - k)


COUNT_METHODS = {
    "formula": derangement_count,
    "two-term": derangement_count_two_term,
    "one-term": derangement_count_one_term,
    "transform": derangement_count_mixed_transform,
    "brute-force": derangement_count_enumerated,
}


def count_by_method(method, r, n, bound=None):
    """d(r, n) by the named route; only brute-force takes the enumeration bound."""
    fn = COUNT_METHODS.get(method)
    if fn is None:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(COUNT_METHODS)}")
    if method == "brute-force":
        return fn(r, n, bound)
    return fn(r, n)


# Published reference values for r <= 5, n <= 6, kept verbatim for
# comparison.  The (r=3, n=2) cell circulates as 12, but the formula,
# all recurrences, and exhaustive enumeration agree on 13; the cell is
# reported as a discrepancy, never silently normalized.
REFERENCE_COUNTS = {
    1: (1, 0, 1, 2, 9, 44, 265),
    2: (1, 1, 5, 29, 233, 2329, 27949),
    3: (1, 2, 12, 116, 1393, 20894, 376093),
    4: (1, 3, 25, 299, 4785, 95699, 2296777),
    5: (1, 4, 41, 614, 12281, 307024, 9210721),
}


def reference_discrepancies():
    """Cells {"r", "n", "reference", "computed"} where table and formula differ."""
    out = []
    for r, row in sorted(REFERENCE_COUNTS.items()):
        for n, ref in enumerate(row):
            computed = derangement_count(r, n)
            if computed != ref:
                out.append({"r": r, "n": n, "reference": ref, "computed": computed})
    return out


# -- q,t-refinements -----------------------------------------------------------


def distribution(elements, key):
    """Sum of q^i t^j over the elements, where (i, j) = key(element)."""
    return BivariatePolynomial(Counter(map(key, elements)))


def _enumerated(r, n, order, derangements_only, bound, key):
    """Sum of q^i t^j over the enumerated elements, (i, j) = key(wreath.Statistics).

    Every element is visited by the integer walk of ``wreath``, which
    reads exc in the standard order whatever ``order`` is.
    """
    terms = Counter()
    tally = _statistics_tally(r, n, order, derangements_only, bound)
    for statistics, count in tally.items():
        terms[key(statistics)] += count
    return BivariatePolynomial(terms)


def group_qt_closed(r, n):
    """sum over the whole group of q^maj t^sgn = [r]_t^n [n]_q!."""
    _require_r(r)
    _require_n(n)
    return t_bracket(r) ** n * q_factorial(n)


def group_qt_bruteforce(r, n, order=STANDARD, bound=None):
    return _enumerated(r, n, order, False, bound, lambda s: (s.maj, s.sgn))


def qt_derangement_formula(r, n):
    """[r]_t^n [n]_q! sum_i (-1)^i q^C(i,2) / ([r]_t^i [i]_q!).

    The i-th quotient is the previous one divided by [r]_t and then by
    [i]_q, each an exact division in Z[q,t] with its remainder checked, so
    together they divide by [r]_t^i [i]_q!; a residue would signal an
    identity violation and raises InexactDivisionError.
    """
    _require_r(r)
    _require_n(n)
    bracket = t_bracket(r)
    quotient = bracket**n * q_factorial(n)
    total = quotient
    for i in range(1, n + 1):
        quotient = quotient.exact_div(bracket).exact_div(q_integer(i))
        total = total + BivariatePolynomial.monomial((-1) ** i, comb(i, 2)) * quotient
    return total


def qt_derangement_two_term(r, n):
    """d_n = ([r]_t [n]_q - q^{n-1}) d_{n-1} + q^{n-1} [r]_t [n-1]_q d_{n-2}."""
    _require_r(r)
    _require_n(n)
    bracket = t_bracket(r)
    if n == 0:
        return BivariatePolynomial.one()
    prev_prev = BivariatePolynomial.one()
    prev = bracket - 1
    for k in range(2, n + 1):
        q_power = BivariatePolynomial.monomial(1, k - 1)
        current = (bracket * q_integer(k) - q_power) * prev + (
            q_power * bracket * q_integer(k - 1)
        ) * prev_prev
        prev_prev, prev = prev, current
    return prev


def qt_derangement_one_term(r, n):
    """d_n = [r]_t [n]_q d_{n-1} + (-1)^n q^C(n,2)."""
    _require_r(r)
    _require_n(n)
    bracket = t_bracket(r)
    value = BivariatePolynomial.one()
    for k in range(1, n + 1):
        value = bracket * q_integer(k) * value + BivariatePolynomial.monomial(
            (-1) ** k, comb(k, 2)
        )
    return value


def qt_derangement_bruteforce(r, n, order=STANDARD, bound=None):
    return _enumerated(r, n, order, True, bound, lambda s: (s.maj, s.sgn))


# -- Eulerian / excedance polynomials -------------------------------------------


def exc_derangement_poly(r, n):
    """Excedance polynomial over derangements, by the recurrence

    D_n = (n-1) r q (D_{n-1} + D_{n-2}) + (r-1) D_{n-1}
          + r q (1-q) D'_{n-1},  D_0 = 1, D_1 = r - 1.
    """
    return _exc_derangement_polys(r, n)[n]


def _exc_derangement_polys(r, n):
    """D_0..D_n from one pass of the recurrence of ``exc_derangement_poly``."""
    _require_r(r)
    _require_n(n)
    q = BivariatePolynomial.q()
    one = BivariatePolynomial.one()
    polys = [one, BivariatePolynomial.constant(r - 1)]
    for k in range(2, n + 1):
        prev_prev, prev = polys[-2:]
        polys.append(
            (k - 1) * r * q * (prev + prev_prev)
            + (r - 1) * prev
            + r * q * (one - q) * prev.derivative_q()
        )
    return polys[: n + 1]


def exc_derangement_bruteforce(r, n, bound=None):
    return _enumerated(r, n, STANDARD, True, bound, lambda s: (s.exc, 0))


def eulerian_by_excedances(r, n, bound=None):
    """A_n^{(r)}(q) = sum over the group of q^exc."""
    return _enumerated(r, n, STANDARD, False, bound, lambda s: (s.exc, 0))


def eulerian_by_descents(r, n, order=STANDARD, bound=None):
    """A_n^{(r)}(q) = sum over the group of q^(n - des)."""
    return _enumerated(r, n, order, False, bound, lambda s: (n - s.des, 0))


def eulerian_from_exc(r, n):
    """A_n^{(r)}(q) = sum_k C(n,k) q^k D_{n-k}^{(r)}(q), recurrence-based."""
    return _eulerian_from_polys(_exc_derangement_polys(r, n), n)


def _eulerian_from_polys(exc_polys, n):
    """A_n from D_0..D_m (m >= n) by the binomial convolution."""
    total = BivariatePolynomial.zero()
    for k in range(n + 1):
        total = total + BivariatePolynomial.monomial(comb(n, k), k) * exc_polys[n - k]
    return total


# -- exponential generating functions --------------------------------------------


def derangement_egf(r, order):
    """exp(-x) / (1 - r x) over Z: the scaled coefficients n! [x^n], all integers."""
    _require_r(r)
    denominator = (1, -r, *[0] * order)[: order + 1]
    return series_divide(series_exp_sum([(1, -1)], order), denominator)


def exc_derangement_egf(r, order):
    """(1-q) exp(x(r-1)) / (exp(qrx) - q exp(rx)) as a q-EGF over Z[q]."""
    _require_r(r)
    q = BivariatePolynomial.q()
    return q_egf_divide([(1 - q, r - 1)], [(1, q * r), (-q, r)], order)


def _eulerian_type_egf(numerator_rate, r, order):
    """(1-q) exp(x c (1-q)) / (1 - q exp(rx(1-q))) for c = numerator_rate."""
    _require_r(r)
    q = BivariatePolynomial.q()
    u = 1 - q
    return q_egf_divide([(u, u * numerator_rate)], [(1, 0), (-q, u * r)], order)


def eulerian_egf(r, order):
    """(1-q) exp(x(r-1)(1-q)) / (1 - q exp(rx(1-q))) as a q-EGF over Z[q].

    The numerator exponent carries the factor r-1.  Dropping it (see
    ``eulerian_egf_alternate``) gives a series that matches the
    excedance-based polynomials only at r = 2, which is exactly the
    discrepancy the verification suite demonstrates.
    """
    return _eulerian_type_egf(r - 1, r, order)


def eulerian_egf_alternate(r, order):
    """Same as ``eulerian_egf`` but with numerator exponent x(1-q).

    Retained as a negative control: at r = 1 it generates the classical
    descent-normalized Eulerian polynomials rather than the excedance
    normalization used throughout, and for r >= 3 it matches nothing.
    """
    return _eulerian_type_egf(1, r, order)


def _check_lines(label, expected, actual, render=str):
    """A line {"label", "passed"} per n; a failing one adds "expected", "actual"."""
    lines = []
    for n, (want, got) in enumerate(zip(expected, actual)):
        line = {"label": f"{label} n={n}", "passed": got == want}
        if got != want:
            line["expected"] = render(want)
            line["actual"] = render(got)
        lines.append(line)
    return lines


def egf_check_derangements(r, n_max):
    """n! [x^n] of exp(-x)/(1-rx) against the closed-form counts.

    Scaled, the division reduces to d_k = (-1)^k + k r d_{k-1}, the
    one-term recurrence ``verify.suite_counts`` also compares; kept as
    the paper's EGF and the one integer series through ``series_divide``.
    """
    return _check_lines(
        f"derangement-egf r={r}",
        [derangement_count(r, n) for n in range(n_max + 1)],
        derangement_egf(r, n_max),
    )


def egf_check_eulerian(r, n_max):
    """n! [x^n] of the Eulerian EGF against the convolution polynomials."""
    exc_polys = _exc_derangement_polys(r, n_max)
    return _check_lines(
        f"eulerian-egf r={r}",
        [_eulerian_from_polys(exc_polys, n) for n in range(n_max + 1)],
        eulerian_egf(r, n_max),
        BivariatePolynomial.text,
    )


def egf_check_exc_derangements(r, n_max):
    """n! [x^n] of the excedance EGF against the recurrence polynomials."""
    return _check_lines(
        f"exc-derangement-egf r={r}",
        _exc_derangement_polys(r, n_max),
        exc_derangement_egf(r, n_max),
        BivariatePolynomial.text,
    )


# -- probability certificate ------------------------------------------------------


def probability_gap_certificate(r, n):
    """Certify |d(r,n)/(r^n n!) - exp(-1/r)| < e / (r^{n+1} (n+1)!).

    Entirely rational: exp(-1/r) is bracketed by the partial sums of its
    alternating series to i = n + 30 and n + 31, and e is replaced by a
    rational lower bound (valid since e only appears on the larger side).
    Unlike an EGF check line, a passing line keeps "expected" (the bound)
    and "actual" (the certified gap).
    """
    _require_r(r)
    _require_n(n)
    ratio = Fraction(derangement_count(r, n), group_order(r, n))
    m = n + 30
    partial = sum(Fraction((-1) ** i, r**i * factorial(i)) for i in range(m + 1))
    next_term = Fraction((-1) ** (m + 1), r ** (m + 1) * factorial(m + 1))
    lo, hi = sorted((partial, partial + next_term))
    e_lower = sum(Fraction(1, factorial(k)) for k in range(20))
    allowed = e_lower * Fraction(1, r ** (n + 1) * factorial(n + 1))
    worst = max(abs(ratio - lo), abs(ratio - hi))
    return {
        "label": f"probability-gap r={r} n={n}",
        "passed": worst < allowed,
        "expected": f"< {allowed}",
        "actual": str(worst),
    }
