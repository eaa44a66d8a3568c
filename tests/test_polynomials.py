import random

import pytest
from hypothesis import given, strategies as st

from cyclic_derangements import polynomials
from cyclic_derangements.polynomials import (
    BivariatePolynomial,
    InexactDivisionError,
    is_palindromic,
    q_binomial,
    q_binomial_by_division,
    q_factorial,
    q_integer,
    reciprocal_check,
    t_bracket,
)


def bivariates(max_terms=6, max_deg=4, max_coeff=7):
    return st.dictionaries(
        st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)),
        st.integers(-max_coeff, max_coeff),
        max_size=max_terms,
    ).map(BivariatePolynomial)


# -- BivariatePolynomial --------------------------------------------------------


def test_zero_and_degree_conventions():
    z = BivariatePolynomial.zero()
    assert not z and z.q_degree == -1 and z.t_degree == -1
    assert not BivariatePolynomial({(2, 0): 0})
    one = BivariatePolynomial.one()
    assert one.q_degree == 0 and one.coefficient(0, 0) == 1


def test_arithmetic_known_product():
    q, t = BivariatePolynomial.q(), BivariatePolynomial.t()
    left = 1 + q * t
    right = q - t
    assert (left * right).terms() == [
        ((0, 1), -1),
        ((1, 0), 1),
        ((1, 2), -1),
        ((2, 1), 1),
    ]


@pytest.mark.parametrize("c", [0, 1, -1, 2**70, -(2**70)])
def test_int_scaling_equals_the_constant_product(c):
    q, t = BivariatePolynomial.q(), BivariatePolynomial.t()
    constant = BivariatePolynomial.constant(c)
    for poly in (BivariatePolynomial.zero(), 3 - q * t**2, (q - 2 * t) ** 4):
        expected = BivariatePolynomial(reference_mul(dict(poly.terms()), {(0, 0): c}))
        assert poly * c == c * poly == poly * constant == constant * poly == expected


@given(bivariates(), bivariates(), bivariates())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + BivariatePolynomial.zero() == a
    assert a * BivariatePolynomial.one() == a
    assert a - a == BivariatePolynomial.zero()


@given(bivariates(), st.integers(0, 4))
def test_power_matches_repeated_product(a, k):
    expected = BivariatePolynomial.one()
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@given(bivariates(), st.integers(-3, 3), st.integers(-3, 3))
def test_evaluate_is_ring_homomorphism(a, qv, tv):
    b = BivariatePolynomial.monomial(2, 1, 1) - 3
    assert (a * b).evaluate(qv, tv) == a.evaluate(qv, tv) * b.evaluate(qv, tv)
    assert (a + b).evaluate(qv, tv) == a.evaluate(qv, tv) + b.evaluate(qv, tv)


def test_derivative_q():
    q, t = BivariatePolynomial.q(), BivariatePolynomial.t()
    p = q**3 * t + 2 * q - 5 + t**2
    assert p.derivative_q() == 3 * q**2 * t + 2


@given(bivariates(), bivariates())
def test_exact_div_roundtrip(a, b):
    if not b:
        with pytest.raises(ZeroDivisionError):
            (a * b).exact_div(b)
    else:
        assert (a * b).exact_div(b) == a


def test_exact_div_rejects_remainders():
    q = BivariatePolynomial.q()
    with pytest.raises(InexactDivisionError):
        (q**2 + 1).exact_div(q + 1)


def test_exact_div_rejects_non_unit_leading_coefficient_and_high_degree():
    q, t = BivariatePolynomial.q(), BivariatePolynomial.t()
    assert (6 * q + 3).exact_div(2 * q + 1) == BivariatePolynomial.constant(3)
    for dividend, divisor in [
        (q**2 + q, 2 * q + 2),  # leading coefficient 2 does not divide 1
        (3 * q, BivariatePolynomial.constant(2)),
        (q, q**2),  # divisor q-degree above the dividend's
        (q * t, t**2),  # divisor t-degree above the dividend's
        (t**2 + q, t + q),
    ]:
        with pytest.raises(InexactDivisionError):
            dividend.exact_div(divisor)


def test_text_and_json_forms():
    q, t = BivariatePolynomial.q(), BivariatePolynomial.t()
    p = q + t + q * t + t**2 + q * t**2
    assert p.text() == "q + t + qt + t^2 + qt^2"
    assert BivariatePolynomial.zero().text() == "0"
    assert (q**2 - 3).text() == "-3 + q^2"
    assert p.to_json()[0] == {"q": 0, "t": 1, "c": "1"}


def test_q_coefficient_list_requires_t_free():
    q, t = BivariatePolynomial.q(), BivariatePolynomial.t()
    assert (1 + 2 * q**2).q_coefficient_list() == [1, 0, 2]
    with pytest.raises(ValueError):
        (q + t).q_coefficient_list()


# -- q-analogs ---------------------------------------------------------------------


def test_q_integer_and_factorial():
    q = BivariatePolynomial.q()
    assert not q_integer(0)
    assert q_integer(4) == 1 + q + q**2 + q**3
    assert q_factorial(3) == q_integer(1) * q_integer(2) * q_integer(3)
    assert q_factorial(0) == BivariatePolynomial.one()
    assert q_factorial(4).evaluate(1, 1) == 24


def test_t_bracket():
    t = BivariatePolynomial.t()
    assert t_bracket(1) == BivariatePolynomial.one()
    assert t_bracket(3) == 1 + t + t**2


def test_q_binomial_values():
    q = BivariatePolynomial.q()
    assert q_binomial(4, 2) == 1 + q + 2 * q**2 + q**3 + q**4
    assert q_binomial(5, 0) == BivariatePolynomial.one()
    assert not q_binomial(3, 5)
    for n in range(7):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)
            assert q_binomial(n, k) == q_binomial_by_division(n, k)


def test_reciprocal_and_palindromic():
    q = BivariatePolynomial.q()
    assert reciprocal_check(1 + 6 * q + q**2, 2)
    assert not reciprocal_check(2 + q, 1)
    assert is_palindromic(q + q**2)          # symmetric about its support
    assert is_palindromic(q + 3 * q**2 + q**3)
    assert not is_palindromic(2 + q)
    assert is_palindromic(BivariatePolynomial.zero())


@given(bivariates())
def test_derivative_q_of_product(a):
    b = BivariatePolynomial({(0, 0): -1, (2, 0): 3, (1, 1): 2})
    lhs = (a * b).derivative_q()
    rhs = a.derivative_q() * b + a * b.derivative_q()
    assert lhs == rhs


# -- differential checks against a schoolbook reference -----------------------
#
# The reference works on {(q_degree, t_degree): coefficient} dicts: the
# double loop for products, and long division that cancels the largest
# monomial of the remainder, by (q, t) degree, until none is left.


def reference_mul(a, b):
    out = {}
    for (aq, at), ac in a.items():
        for (bq, bt), bc in b.items():
            key = (aq + bq, at + bt)
            out[key] = out.get(key, 0) + ac * bc
    return {k: c for k, c in out.items() if c}


def reference_exact_div(p, d):
    """The quotient as a dict, or None when d does not divide p."""
    lead = max(d)
    rem = dict(p)
    quot = {}
    while rem:
        top = max(rem)
        dq, dt = top[0] - lead[0], top[1] - lead[1]
        c, residue = divmod(rem[top], d[lead])
        if dq < 0 or dt < 0 or residue:
            return None
        quot[(dq, dt)] = c
        for (bq, bt), bc in d.items():
            key = (bq + dq, bt + dt)
            rem[key] = rem.get(key, 0) - c * bc
            if not rem[key]:
                del rem[key]
    return quot


COEFFS = st.one_of(st.integers(-9, 9), st.integers(-(2**130), 2**130))


def term_dicts(max_deg=10, max_terms=40):
    """Zero, constant, q-only, t-only, sparse or dense polynomials as dicts.

    Dense rectangles of a few rows and columns are large enough for
    products to go through Kronecker packing.
    """

    def of_shape(shape):
        if shape == "dense":
            sides = st.tuples(st.integers(1, max_deg + 2), st.integers(1, max_deg + 2))
            return sides.flatmap(
                lambda hw: st.lists(COEFFS, min_size=hw[0] * hw[1], max_size=hw[0] * hw[1]).map(
                    lambda cs: {(k % hw[1], k // hw[1]): c for k, c in enumerate(cs)}
                )
            )
        q_top = 0 if shape in ("constant", "t-only") else max_deg
        t_top = 0 if shape in ("constant", "q-only") else max_deg
        keys = st.tuples(st.integers(0, q_top), st.integers(0, t_top))
        return st.dictionaries(keys, COEFFS, max_size=max_terms)

    shapes = st.sampled_from(("constant", "q-only", "t-only", "sparse", "dense"))
    return shapes.flatmap(of_shape).map(lambda d: {k: c for k, c in d.items() if c})


@given(term_dicts(), term_dicts())
def test_mul_matches_schoolbook_reference(a, b):
    product = BivariatePolynomial(a) * BivariatePolynomial(b)
    assert dict(product.terms()) == reference_mul(a, b)


def test_large_products_match_reference(monkeypatch):
    packed = []
    real_pack = polynomials._pack
    monkeypatch.setattr(polynomials, "_pack", lambda *args: packed.append(1) or real_pack(*args))
    rng = random.Random(5)
    shapes = [((1, 40), (1, 30)), ((6, 9), (5, 7)), ((12, 1), (3, 25)), ((1, 3), (20, 30))]
    for (ha, wa), (hb, wb) in shapes:
        a = {(k % wa, k // wa): rng.randrange(-(2**90), 2**90) for k in range(ha * wa)}
        b = {(k % wb, k // wb): rng.randrange(-(2**70), 2**70) for k in range(hb * wb)}
        product = BivariatePolynomial(a) * BivariatePolynomial(b)
        assert dict(product.terms()) == reference_mul(a, b)
    assert packed  # the large dense shapes went through Kronecker packing


@given(term_dicts(), term_dicts())
def test_exact_div_matches_reference_on_exact_quotients(a, d):
    if not d:
        return
    p = reference_mul(a, d)
    quotient = BivariatePolynomial(p).exact_div(BivariatePolynomial(d))
    assert dict(quotient.terms()) == reference_exact_div(p, d) == a


@given(term_dicts(), term_dicts(), term_dicts(max_deg=3, max_terms=4))
def test_exact_div_agrees_with_reference_on_perturbed_dividends(a, d, noise):
    if not d:
        return
    p = reference_mul(a, d)
    for key, c in noise.items():
        p[key] = p.get(key, 0) + c
    p = {k: c for k, c in p.items() if c}
    expected = reference_exact_div(p, d)
    dividend, divisor = BivariatePolynomial(p), BivariatePolynomial(d)
    if expected is None:
        with pytest.raises(InexactDivisionError):
            dividend.exact_div(divisor)
    else:
        assert dict(dividend.exact_div(divisor).terms()) == expected
