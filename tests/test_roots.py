from fractions import Fraction
from functools import cmp_to_key
from math import floor, gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cyclic_derangements import roots
from cyclic_derangements.counting import exc_derangement_poly
from cyclic_derangements.polynomials import BivariatePolynomial, InexactDivisionError
from cyclic_derangements.roots import (
    DEFAULT_TOLERANCE,
    NotSquarefreeError,
    SturmChain,
    is_log_concave,
    is_unimodal,
    isolate_roots,
    roots_report,
    verify_interlacing,
    verify_negative_distinct,
)


def poly(*coeffs):
    """The t-free polynomial with these ascending coefficients."""
    return BivariatePolynomial.from_q_coefficients(coeffs)


# (x - 1)(x + 2)(x + 5), ascending coefficients
CUBIC = poly(-10, 3, 6, 1)


def linear_product(roots):
    """prod (x - rho) for the given integer roots."""
    product = poly(1)
    for rho in roots:
        product = product * poly(-rho, 1)
    return product


# -- Sturm chains ------------------------------------------------------------------


def test_sturm_counts_roots_of_cubic():
    chain = SturmChain(CUBIC)
    assert chain.count_roots(None, None) == 3
    assert chain.count_roots(None, Fraction(0)) == 2
    assert chain.count_roots(Fraction(0), None) == 1
    assert chain.count_roots(Fraction(-3), Fraction(-1)) == 1
    assert chain.count_roots(Fraction(3), Fraction(9)) == 0


def test_sturm_interval_is_half_open():
    chain = SturmChain(CUBIC)
    # a root at the right endpoint is counted ...
    assert chain.count_roots(Fraction(-3), Fraction(-2)) == 1
    # ... but a root at the left endpoint is refused, not miscounted
    with pytest.raises(ValueError, match="left endpoint"):
        chain.count_roots(Fraction(-2), Fraction(0))
    with pytest.raises(ValueError, match="empty interval"):
        chain.count_roots(Fraction(1), Fraction(1))


def test_sturm_rejects_repeated_roots():
    with pytest.raises(NotSquarefreeError):
        SturmChain(poly(1, 2, 1))  # (x + 1)^2


def test_sturm_counts_roots_of_negated_cubic():
    chain = SturmChain(-CUBIC)
    assert chain.count_roots(None, None) == 3
    assert chain.count_roots(None, Fraction(0)) == 2
    assert chain.count_roots(Fraction(-3), Fraction(-2)) == 1
    assert chain.count_roots(Fraction(3), Fraction(9)) == 0


def test_sturm_chain_keeps_signs_past_a_negative_lead_and_a_two_degree_drop():
    # 3 + x - x^4: the chain member -x + 4 has a negative leading
    # coefficient and the step that divides by it drops two degrees, so
    # lc^(gap + 1) would be negative and flip every later sign
    chain = SturmChain(poly(3, 1, 0, 0, -1))
    assert [len(p) - 1 for p in chain.chain] == [4, 3, 1, 0]
    assert chain.chain[2][-1] < 0
    assert chain.count_roots(None, None) == 2
    assert chain.count_roots(None, Fraction(0)) == 1
    assert chain.count_roots(Fraction(1), Fraction(2)) == 1
    assert chain.count_roots(Fraction(-2), Fraction(-1)) == 1
    for p, q in zip(chain.chain, reference_chain([3, 1, 0, 0, -1])):
        assert len(p) == len(q) and p[-1] * q[-1] > 0  # same degree, same sign
        assert all(a * q[-1] == b * p[-1] for a, b in zip(p, q))  # proportional


def test_roots_input_must_be_a_t_free_bivariate_polynomial():
    q, t = BivariatePolynomial.q(), BivariatePolynomial.t()
    for entry in (SturmChain, isolate_roots, verify_negative_distinct, roots_report):
        with pytest.raises(ValueError):
            entry(q + t)
        with pytest.raises(TypeError):
            entry([3, 0, 1])
    with pytest.raises(TypeError):
        verify_interlacing([1, 1], poly(2, 3, 1))
    assert roots_report(3 + q**2)["coefficients"] == [3, 0, 1]


# The classical Sturm chain over Fraction, for comparison: p, p', then the
# negated Euclidean remainders.


def _fraction_remainder(a, b):
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        for j, y in enumerate(b, len(a) - len(b)):
            a[j] -= c * y
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def reference_chain(coeffs):
    chain = [[Fraction(c) for c in coeffs]]
    chain.append([k * c for k, c in enumerate(chain[0])][1:])
    while len(chain[-1]) > 1 and (rem := _fraction_remainder(chain[-2], chain[-1])):
        chain.append([-c for c in rem])
    return chain


def reference_count(chain, low, high):
    def variations(x):
        signs = [s for s in (sum(c * x**k for k, c in enumerate(p)) for p in chain) if s]
        return sum(a * b < 0 for a, b in zip(signs, signs[1:]))

    return variations(low) - variations(high)


integer_lists = st.lists(st.just(0) | st.integers(-20, 20), min_size=1, max_size=9).filter(
    lambda cs: cs[-1]
)


@given(integer_lists, integer_lists)
def test_remainder_is_a_positive_multiple_of_the_fraction_remainder(a, b):
    expected = _fraction_remainder([Fraction(c) for c in a], b)
    rem = roots._remainder(a, b)
    assert len(rem) == len(expected) < len(b)
    if rem:
        assert rem[-1] * expected[-1] > 0
        assert all(x * expected[-1] == y * rem[-1] for x, y in zip(rem, expected))
        assert gcd(*rem) == 1  # primitive


def test_share_a_root_known():
    a = linear_product([-1, 2]).q_coefficient_list()
    b = linear_product([-1, -3]).q_coefficient_list()
    c = linear_product([4, -3]).q_coefficient_list()
    assert roots._share_a_root(a, b) and roots._share_a_root(b, a)
    assert not roots._share_a_root(a, c)
    assert roots._share_a_root(b, c)
    assert not roots._share_a_root(a, [5])


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@settings(max_examples=200)
@given(integer_lists.filter(lambda cs: len(cs) > 1), rationals, rationals)
def test_sturm_count_matches_the_fraction_reference(coeffs, a, b):
    chain = reference_chain(coeffs)
    if len(chain[-1]) > 1:  # gcd(p, p') is not constant
        with pytest.raises(NotSquarefreeError):
            SturmChain(poly(*coeffs))
        return
    low, high = min(a, b), max(a, b)
    if low == high or sum(c * low**k for k, c in enumerate(coeffs)) == 0:
        return
    assert SturmChain(poly(*coeffs)).count_roots(low, high) == reference_count(
        chain, low, high
    )


@settings(max_examples=40)
@given(st.sets(st.integers(1, 25), min_size=1, max_size=5))
def test_sturm_root_count_matches_construction(magnitudes):
    chain = SturmChain(linear_product([-m for m in magnitudes]))
    assert chain.count_roots(None, None) == len(magnitudes)
    assert chain.count_roots(None, Fraction(0)) == len(magnitudes)


def test_cauchy_bound_encloses_roots():
    bound = roots._cauchy_bound(CUBIC.q_coefficient_list())
    assert bound == 11
    assert SturmChain(CUBIC).count_roots(-bound, bound) == 3


# -- root isolation ----------------------------------------------------------------


def test_isolation_recovers_rational_roots_exactly():
    exact, intervals = isolate_roots(CUBIC)
    assert exact == (-5, -2, 1)
    assert intervals == ()
    assert len(exact) + len(intervals) == 3
    assert isolate_roots(poly(-1, 2))[0] == (Fraction(1, 2),)


def test_isolation_boxes_irrational_roots():
    p = poly(-6, -2, 3, 1)  # (x^2 - 2)(x + 3)
    exact, intervals = isolate_roots(p)
    assert exact == (-3,)
    assert len(intervals) == 2
    for lo, hi in intervals:
        assert hi - lo <= DEFAULT_TOLERANCE
        assert p.evaluate(lo) * p.evaluate(hi) < 0


def test_isolation_honors_custom_tolerance():
    _, intervals = isolate_roots(poly(-2, 0, 1), tolerance=Fraction(1, 8))  # x^2 - 2
    assert all(hi - lo <= Fraction(1, 8) for lo, hi in intervals)
    with pytest.raises(NotSquarefreeError):
        isolate_roots(poly(1, 2, 1))


def test_isolation_refuses_a_tolerance_that_is_not_positive():
    # with tolerance 0 the bisection of x^2 - 2 would never stop
    for tolerance in (0, Fraction(-1, 8)):
        with pytest.raises(ValueError, match="tolerance"):
            isolate_roots(poly(-2, 0, 1), tolerance=tolerance)
    # refused before anything else is looked at, even the input type
    with pytest.raises(ValueError, match="tolerance"):
        isolate_roots([-2, 0, 1], tolerance=0)


def test_deflating_a_non_root_raises(monkeypatch):
    cubic = CUBIC.q_coefficient_list()
    with pytest.raises(InexactDivisionError):
        roots._deflate(cubic, Fraction(2))
    with pytest.raises(InexactDivisionError):
        roots._deflate(cubic, Fraction(1, 2))  # stops at a non-integral step
    assert roots._deflate(cubic, Fraction(1)) == [10, 7, 1]  # (x + 2)(x + 5)
    # Gauss's lemma: x - 1/2 leaves an integer quotient of 2x^2 + 3x - 2
    assert roots._deflate([2, -5, 2], Fraction(1, 2)) == [-4, 2]
    # with tolerance 1 the box of sqrt(2), a root of x^2 - 2, is (3/4, 3/2]
    # and its candidate is 1, which no bisection point 3 j / 2^k equals;
    # the box test misreads 1 = u / w as a root: deflation must refuse it
    real_sign_at = roots._sign_at
    assert isolate_roots(poly(-2, 0, 1), tolerance=1)[1][1] == (
        Fraction(3, 4), Fraction(3, 2)
    )
    monkeypatch.setattr(
        roots, "_sign_at", lambda coeffs, u, w: 0 if u == w else real_sign_at(coeffs, u, w)
    )
    with pytest.raises(InexactDivisionError):
        isolate_roots(poly(-2, 0, 1), tolerance=1)


def test_isolation_deflation_at_a_split_point_is_checked(monkeypatch):
    # bisection of (x - 1)(x + 3) starts at the midpoint 0 of the symmetric
    # Cauchy interval; a value that misreports 0 = u / w as a root must be
    # caught
    real_sign_at = roots._sign_at
    monkeypatch.setattr(
        roots, "_sign_at", lambda coeffs, u, w: 0 if u == 0 else real_sign_at(coeffs, u, w)
    )
    with pytest.raises(InexactDivisionError):
        isolate_roots(linear_product([1, -3]))


def test_isolation_recovers_rational_roots_from_boxes_at_any_coefficient_size():
    # coefficients past 10^16, and bisection lands on neither rational root
    exact, intervals = isolate_roots(poly(5, 7) * poly(3, 1) * poly(-2, 0, 10**16))
    assert exact == (-3, Fraction(-5, 7))
    assert len(intervals) == 2


def test_isolation_ignores_a_box_candidate_that_is_another_root():
    # (x - 1)(y^2 + 10 y - 1), y = x - 1: the box of the root 1.0990...
    # has the candidate floor(hi) = 1 left of it, which is the root 1 and
    # must not be deflated twice
    y = poly(-1, 1)
    exact, intervals = isolate_roots(y * (y * y + 10 * y - 1))
    assert exact == (1,)
    assert len(intervals) == 2


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 30), st.integers(-40, 40)), min_size=1, max_size=3
    ),
    st.integers(10**16, 10**20),
)
def test_isolation_recovers_every_rational_root_of_large_products(linears, big):
    # prod (p x + q) times K x^2 - 2, whose roots are irrational unless
    # 2K is a square
    rational = sorted({Fraction(-q, p) for p, q in linears})
    assume(len(rational) == len(linears) and isqrt(2 * big) ** 2 != 2 * big)
    product = poly(-2, 0, big)
    for p, q in linears:
        product = product * poly(q, p)
    exact, intervals = isolate_roots(product)
    assert list(exact) == rational
    assert len(intervals) == 2


# The Fraction bisection that the integer grid cells replaced, kept as the
# reference: every midpoint and width test is exact rational arithmetic.


def _fraction_sign_at(coeffs, x):
    return roots._sign(sum(c * x**k for k, c in enumerate(coeffs)))


def _fraction_halve(work, lo, hi, sign_hi):
    mid = (lo + hi) / 2
    sign = _fraction_sign_at(work, mid)
    if sign == 0:
        return mid, mid, 0
    if sign == sign_hi:
        return lo, mid, sign
    return mid, hi, sign_hi


def reference_isolate(work, tolerance):
    """(exact roots, boxes (lo, hi, sign at hi), deflated work) by Fraction bisection."""
    exact = []
    while len(work) > 1:
        chain = SturmChain(BivariatePolynomial.from_q_coefficients(work))
        lead = abs(chain.chain[0][-1])
        bound = roots._cauchy_bound(work)
        variations = chain.variations_at(-bound)
        total = variations - chain.variations_at(bound)
        pending = []
        if total:
            pending.append((-bound, bound, _fraction_sign_at(work, bound), total, variations))
        boxes, found = [], []
        while pending:
            a, b, sign_b, count, variations = pending.pop()
            if count == 1:
                while b - a > tolerance:
                    a, b, sign_b = _fraction_halve(work, a, b, sign_b)
                box = a, b, sign_b
                while (b - a) * lead >= 1:
                    a, b, sign_b = _fraction_halve(work, a, b, sign_b)
                root = Fraction(floor(b * lead), lead)
                if a <= root and _fraction_sign_at(work, root) == 0:
                    found.append(root)
                else:
                    boxes.append(box)
                continue
            mid = (a + b) / 2
            sign = _fraction_sign_at(work, mid)
            if sign == 0:
                found.append(mid)
                break
            at_mid = chain.variations_at(mid)
            left = variations - at_mid
            if left:
                pending.append((a, mid, sign, left, variations))
            if count - left:
                pending.append((mid, b, sign_b, count - left, at_mid))
        if not found:
            return sorted(exact), sorted(boxes), work
        for root in found:
            exact.append(root)
            work = roots._deflate(work, root)
    return sorted(exact), [], work


TOLERANCES = (Fraction(1, 2**40), Fraction(1, 2**60), 1, 2, Fraction(1, 8), Fraction(3, 7))

# ascending coefficients of p x + q and of a x^2 + b x + c; repeats make
# products that are not squarefree
linear_factors = st.tuples(st.integers(-30, 30), st.integers(1, 12))
quadratic_factors = st.tuples(
    st.integers(-40, 40), st.integers(-20, 20), st.sampled_from([1, 2, 3, 10**16])
)


@settings(max_examples=100, deadline=None)
@given(st.lists(linear_factors | quadratic_factors, min_size=1, max_size=4))
@example([(0, 1), (-2, 1), (2, 1), (-2, 0, 1)])  # the first split point 0 is a root
@example([(-1, 8), (-2, 0, 1)])  # at tolerance 2 or 1, cells pass 1/L = 1/8 deeper
@example([(5, 7), (3, 1), (-2, 0, 10**16)])  # 1/L lies below 2^-40 as well
@example([(3, 1), (3, 1), (-2, 0, 1)])  # not squarefree
def test_isolation_matches_the_fraction_bisection(factors):
    product = poly(1)
    for factor in factors:
        product = product * poly(*factor)
    coeffs = product.q_coefficient_list()
    for tolerance in TOLERANCES:
        try:
            expected = reference_isolate(coeffs, tolerance)
        except NotSquarefreeError:
            with pytest.raises(NotSquarefreeError):
                isolate_roots(product, tolerance)
            continue
        assert roots._isolate(coeffs, tolerance) == expected
        exact, boxes, _ = expected
        assert isolate_roots(product, tolerance) == (
            tuple(exact), tuple((lo, hi) for lo, hi, _ in boxes)
        )


def test_isolation_json_shape():
    body = roots_report(poly(-1, 2))
    out = {k: body[k] for k in ("degree", "real_roots", "exact_roots", "intervals")}
    assert out == {
        "degree": 1,
        "real_roots": 1,
        "exact_roots": ["1/2"],
        "intervals": [],
    }


@settings(max_examples=25)
@given(st.sets(st.integers(1, 40), min_size=1, max_size=4))
def test_isolation_separates_all_roots(magnitudes):
    roots = sorted(-m for m in magnitudes)
    exact, intervals = isolate_roots(linear_product(roots))
    assert sorted(exact) == roots
    assert intervals == ()


# -- negativity certificates ---------------------------------------------------------


def test_negativity_passes_on_negative_distinct():
    report = verify_negative_distinct(poly(3, 4, 1))  # (x + 1)(x + 3)
    assert report["passed"]
    counts = report["degree"], report["zero_root_multiplicity"], report["negative_roots"]
    assert counts == (2, 0, 2)


def test_negativity_tolerates_one_zero_root():
    p = poly(0, 3, 4, 1)  # x (x + 1)(x + 3)
    report = verify_negative_distinct(p)
    assert report["passed"]
    assert report["zero_root_multiplicity"] == 1
    assert report["negative_roots"] == 2
    strict = verify_negative_distinct(p, allow_zero_root=False)
    assert not strict["passed"]
    assert "multiplicity 1" in strict["detail"]


def test_negativity_failure_modes():
    positive = verify_negative_distinct(poly(-1, 1))  # root at +1
    assert not positive["passed"] and positive["negative_roots"] == 0
    repeated = verify_negative_distinct(poly(1, 2, 1))
    assert not repeated["passed"] and "repeated root" in repeated["detail"]
    double_zero = verify_negative_distinct(poly(0, 0, 1, 1))  # x^2 (x + 1)
    assert not double_zero["passed"] and "multiplicity 2" in double_zero["detail"]
    nothing = verify_negative_distinct(poly())
    assert not nothing["passed"] and nothing["degree"] == -1


def test_negativity_json_shape():
    out = verify_negative_distinct(poly(3, 4, 1))
    assert set(out) == {
        "passed", "detail", "degree", "zero_root_multiplicity", "negative_roots"
    }
    assert out["passed"] is True
    assert out["degree"] == 2
    assert out["zero_root_multiplicity"] == 0
    assert out["negative_roots"] == 2


@settings(max_examples=25)
@given(st.sets(st.integers(1, 40), min_size=1, max_size=5), st.booleans())
def test_negativity_certifies_constructed_products(magnitudes, with_zero):
    roots = [-m for m in magnitudes] + ([0] if with_zero else [])
    report = verify_negative_distinct(linear_product(roots))
    assert report["passed"]
    assert report["zero_root_multiplicity"] == int(with_zero)
    assert report["negative_roots"] == len(magnitudes)


# -- interlacing certificates --------------------------------------------------------


def test_interlacing_pass():
    report = verify_interlacing(poly(2, 1), poly(3, 4, 1))
    assert report["verdict"] == "pass"
    assert report["pattern"] == "LsL"
    assert report == {"verdict": "pass", "detail": "roots alternate strictly", "pattern": "LsL"}


def test_interlacing_with_matching_zero_roots():
    smaller = poly(0, 2, 1)  # x (x + 2)
    larger = poly(0, 3, 4, 1)  # x (x + 1)(x + 3)
    report = verify_interlacing(smaller, larger)
    assert report["verdict"] == "pass" and report["pattern"] == "LsL"


def test_interlacing_degree_zero_base_case():
    report = verify_interlacing(poly(1), poly(1, 1))
    assert report["verdict"] == "pass" and report["pattern"] == "L"


def test_interlacing_failure_modes():
    shared = verify_interlacing(poly(1, 1), poly(2, 3, 1))
    assert shared["verdict"] == "fail" and "share" in shared["detail"]
    step = verify_interlacing(poly(1, 1), poly(-10, 3, 6, 1))
    assert step["verdict"] == "fail" and "degree step" in step["detail"]
    zeros = verify_interlacing(poly(0, 1), poly(2, 3, 1))
    assert zeros["verdict"] == "fail" and "zero-root" in zeros["detail"]
    outside = verify_interlacing(poly(5, 1), poly(2, 3, 1))
    assert outside["verdict"] == "fail" and outside["pattern"] == "sLL"


@settings(max_examples=20)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10))
def test_interlacing_certifies_constructed_alternation(a, b, c):
    # roots -(a), -(a+b), -(a+b+c): smaller takes the middle one
    lo, mid, hi = -(a + b + c), -(a + b), -a
    report = verify_interlacing(linear_product([mid]), linear_product([lo, hi]))
    assert report["verdict"] == "pass", report["detail"]


def test_exc_family_interlaces():
    report = verify_interlacing(
        exc_derangement_poly(2, 4), exc_derangement_poly(2, 5)
    )
    assert report["verdict"] == "pass", report["detail"]


def test_interlacing_isolates_only_the_smaller_polynomial(monkeypatch):
    calls = []
    real_isolate = roots._isolate
    monkeypatch.setattr(
        roots, "_isolate", lambda p, *rest: calls.append(p) or real_isolate(p, *rest)
    )
    smaller, larger = exc_derangement_poly(3, 6), exc_derangement_poly(3, 7)
    assert verify_interlacing(smaller, larger)["verdict"] == "pass"
    assert calls == [smaller.q_coefficient_list()]


def test_interlacing_across_boxes_that_share_an_endpoint():
    # K^2 (x + 3)^2 - 2 has roots -3 -+ sqrt(2)/K, closer than two box widths
    K = 2**42
    smaller = poly(9 * K * K - 2, 6 * K * K, K * K)
    (_, left_hi), (right_lo, _) = isolate_roots(smaller)[1]
    assert left_hi == right_lo
    report = verify_interlacing(smaller, linear_product([-10, -1, -2]))
    assert report["verdict"] == "fail" and report["pattern"] == "LssLL"
    # a root of larger at -3, between the two roots of smaller
    report = verify_interlacing(smaller, poly(10, 1) * poly(3 * K, K) * poly(1, 1))
    assert report["verdict"] == "pass" and report["pattern"] == "LsLsL"


def test_interlacing_halves_a_box_holding_a_root_of_larger():
    # x^2 + 4x + 2 has roots -2 -+ sqrt(2); P/Q is a convergent of sqrt(2)
    # from above, so -2 + P/Q lies within 10^-19 right of the upper root
    P, Q = 1, 1
    while Q < 3 * 10**9 or P * P - 2 * Q * Q != 1:
        P, Q = P + 2 * Q, P + Q
    assert 0 < Fraction(P, Q) ** 2 - 2 < Fraction(1, 10**19)
    smaller = poly(2, 4, 1)
    near = Fraction(P - 2 * Q, Q)
    assert any(lo < near <= hi for lo, hi in isolate_roots(smaller)[1])
    factor = poly(2 * Q - P, Q)
    report = verify_interlacing(smaller, factor * poly(1, 1) * poly(5, 1))
    assert report["verdict"] == "pass" and report["pattern"] == "LsLsL"
    report = verify_interlacing(smaller, factor * poly(4, 1) * poly(5, 1))
    assert report["verdict"] == "fail" and report["pattern"] == "LLssL"


def test_interlacing_with_an_exact_root_inside_a_box():
    # (x + 1)(K^2 (x + 1)^2 - 2): bisection lands on -1 and deflates it, and
    # a box found afterwards still contains -1.  With K = 2^42 it is the box
    # of -1 - sqrt(2)/K, with K = 2^43 the box of -1 + sqrt(2)/K.
    for K, side in ((2**42, -1), (2**43, 1)):
        smaller = poly(1, 1) * poly(K * K - 2, 2 * K * K, K * K)
        exact, intervals = isolate_roots(smaller)
        assert exact == (-1,)
        (lo, hi), = [(lo, hi) for lo, hi in intervals if lo < -1 < hi]
        assert side * (lo + hi + 2) > 0  # the box leans to the side of its root
        # larger has roots -1 -+ 1/K, one on each side of -1; halving the box
        # pushes its end past the one between -1 and the box's root
        near = poly(K + 1, K) * poly(1, 2) * poly(10, 1)
        report = verify_interlacing(smaller, near * poly(K - 1, K))
        assert report["verdict"] == "pass" and report["pattern"] == "LsLsLsL"
        report = verify_interlacing(smaller, near * poly(3, 1))
        assert report["verdict"] == "fail" and report["pattern"] == "LLsLssL"


# Roots a + b sqrt(2) as integer pairs (a, b): an integer root m is (m, 0)
# and the factor x^2 - 2 p x + p^2 - 2 q^2 gives the pair (p, q), (p, -q).


def _sign_of_surd(a, b):
    """Sign of a + b sqrt(2), exactly."""
    if a * b >= 0:
        return (a > 0) - (a < 0) or (b > 0) - (b < 0)
    bigger = a if a * a > 2 * b * b else b
    return (bigger > 0) - (bigger < 0)


def _factor(p, q):
    return poly(-p, 1) if q == 0 else poly(p * p - 2 * q * q, -2 * p, 1)


def _product(factors):
    out = poly(1)
    for p, q in factors:
        out = out * _factor(p, q)
    return out


@st.composite
def interlacing_cases(draw):
    """Factors (p, q) of smaller and larger: distinct negative roots, degree step 1."""
    pairs = draw(
        st.lists(
            st.tuples(st.integers(-12, -2), st.integers(1, 8)).filter(
                lambda pq: pq[0] ** 2 > 2 * pq[1] ** 2
            ),
            unique=True,
            max_size=3,
        )
    )
    to_larger = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    # the integer roots make up the rest of the degree step
    need = 1 - 2 * (2 * sum(to_larger) - len(pairs))
    k = abs(need) + 2 * draw(st.integers(0, 2))
    integers = draw(st.lists(st.integers(-25, -1), unique=True, min_size=k, max_size=k))
    n_larger = (k + need) // 2
    larger = [(m, 0) for m in integers[:n_larger]]
    larger += [pq for pq, big in zip(pairs, to_larger) if big]
    smaller = [(m, 0) for m in integers[n_larger:]]
    smaller += [pq for pq, big in zip(pairs, to_larger) if not big]
    return smaller, larger


@settings(max_examples=60)
@given(interlacing_cases())
@example(([(-3, 0)], [(-4, 0), (-1, 0)]))  # L s L
@example(([(-4, 1)], [(-6, 0), (-5, 0), (-1, 0)]))  # L s L s L
@example(([(-4, 1)], [(-7, 0), (-6, 0), (-1, 0)]))  # L L s s L
@example(([(-20, 0), (-1, 0)], [(-5, 3), (-10, 0)]))  # s L L s L
def test_interlacing_pattern_matches_exact_root_order(case):
    smaller, larger = case
    tagged = []
    for owner, factors in (("s", smaller), ("L", larger)):
        for p, q in factors:
            tagged += [(p, q, owner), (p, -q, owner)] if q else [(p, 0, owner)]
    tagged.sort(key=cmp_to_key(lambda u, v: _sign_of_surd(u[0] - v[0], u[1] - v[1])))
    expected = "".join(owner for _, _, owner in tagged)
    report = verify_interlacing(_product(smaller), _product(larger))
    assert report["pattern"] == expected
    alternating = "L" + "sL" * (len(expected) // 2)
    assert report["verdict"] == ("pass" if expected == alternating else "fail")


# -- coefficient shape ------------------------------------------------------------


def test_log_concavity():
    assert is_log_concave([1, 3, 4, 3, 1])
    assert is_log_concave([0, 2, 3, 0])
    assert is_log_concave([])
    assert is_log_concave([7])
    assert not is_log_concave([1, 1, 3])
    assert not is_log_concave([1, 0, 2])  # support gap
    assert not is_log_concave([-1, 2])


def test_unimodality():
    assert is_unimodal([1, 3, 4, 3, 1])
    assert is_unimodal([2, 2, 1])
    assert is_unimodal([])
    assert not is_unimodal([1, 0, 2])
    assert not is_unimodal([1, 2, 1, 2])


def test_roots_report_shape():
    body = roots_report(poly(2, 3, 1))
    assert body["degree"] == 2
    assert body["zero_root_multiplicity"] == 0
    assert body["real_roots"] == 2
    assert body["exact_roots"] == ["-2", "-1"]
    assert body["intervals"] == []
    assert body["coefficients"] == [2, 3, 1]
    assert body["negative_distinct"]["passed"] is True
    assert body["log_concave"] is True
    assert body["unimodal"] is True


def test_roots_report_accepts_bivariate():
    body = roots_report(exc_derangement_poly(2, 3))
    assert body["degree"] == 2
    assert body["negative_distinct"]["passed"] is True
