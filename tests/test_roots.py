import hashlib
import json
from fractions import Fraction
from functools import cmp_to_key
from math import floor, gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cyclic_derangements import roots
from cyclic_derangements.counting import eulerian_from_exc, exc_derangement_poly
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
    # ... and one at the left endpoint is not
    assert chain.count_roots(Fraction(-2), Fraction(0)) == 0
    assert chain.count_roots(Fraction(-5), Fraction(-2)) == 1
    with pytest.raises(ValueError, match="empty interval"):
        chain.count_roots(Fraction(1), Fraction(1))


@pytest.mark.parametrize("low, high", [(-5, -2), (-4.5, 0.5), (-2, 1), (-6, 0.25)])
def test_sturm_counts_the_same_at_int_float_and_fraction_ends(low, high):
    # the roots of CUBIC are -5, -2 and 1; floats convert exactly
    chain = SturmChain(CUBIC)
    expected = chain.count_roots(Fraction(low), Fraction(high))
    assert chain.count_roots(low, high) == expected
    assert chain.count_roots(float(low), float(high)) == expected
    assert chain.count_roots(None, float(high)) == chain.count_roots(None, Fraction(high))


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
    if low == high:
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


def test_fujiwara_bound_is_a_power_of_two_above_a_root_at_a_power_of_two():
    assert roots._fujiwara_bound([-8, 1]) == 16  # the root 8 = 2^3
    assert roots._fujiwara_bound([1, 2]) == 1  # the root -1/2
    assert roots._fujiwara_bound(CUBIC.q_coefficient_list()) == 16
    assert roots._fujiwara_bound([0, 0, 3]) == 1  # a double root at 0


powers_of_two = st.builds(
    lambda sign, k: sign * Fraction(2) ** k, st.sampled_from([-1, 1]), st.integers(-10, 10)
)


@settings(max_examples=100)
@given(
    st.lists(rationals | powers_of_two, min_size=1, max_size=6),
    st.integers(1, 2**70),
)
def test_fujiwara_bound_strictly_encloses_the_roots_of_products(zeros, lead):
    product = poly(lead)
    for z in zeros:
        product = product * poly(-z.numerator, z.denominator)
    bound = roots._fujiwara_bound(product.q_coefficient_list())
    k = bound.numerator.bit_length() - bound.denominator.bit_length()
    assert bound == Fraction(2) ** k
    assert all(abs(z) < bound for z in zeros)


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
    # Cauchy interval; on the Sturm route, which narrows cells by signs at
    # midpoints, a value that misreports 0 = u / w as a root must be
    # caught (the certified route takes no sign at a split point)
    real_sign_at = roots._sign_at
    monkeypatch.setattr(
        roots, "_sign_at", lambda coeffs, u, w: 0 if u == 0 else real_sign_at(coeffs, u, w)
    )
    with pytest.raises(InexactDivisionError):
        roots._isolate(linear_product([1, -3]).q_coefficient_list(), DEFAULT_TOLERANCE)


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
    """(exact roots, boxes (lo, hi)) as sorted tuples, by Fraction bisection."""
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
                box = a, b
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
            return tuple(sorted(exact)), tuple(sorted(boxes))
        for root in found:
            exact.append(root)
            work = roots._deflate(work, root)
    return tuple(sorted(exact)), ()


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
@example([(1, 1), (-2, 0, 3)])  # the root -1 is a split point and a cell's open end
@example([(-1, 1), (-(10**9 + 1), 10**9)])  # near-double: 1 and 1 + 10^-9
@example([(10**12 - 2, -2 * 10**12, 10**12)])  # near-double: 1 -+ sqrt(2) 10^-6
@example([(5, 1), (-3, 0, 1)])  # the root -5 is a grid point at depth 5 (B = 16)
@example([(-1, 1), (3, 1)])  # both roots are grid points (B = 4)
@example([(1, 0, 1)])  # a complex pair and nothing else
@example([(2, 2, 1), (-2, 0, 1), (3, 1)])  # a complex pair beside real roots
def test_isolation_matches_the_fraction_bisection(factors):
    product = poly(1)
    for factor in factors:
        product = product * poly(*factor)
    assert_isolation_matches_the_reference(product)


def assert_isolation_matches_the_reference(product):
    """The Sturm route, the certified route and ``isolate_roots`` all give
    what the Fraction bisection gives, at every tolerance."""
    coeffs = product.q_coefficient_list()
    for tolerance in TOLERANCES:
        try:
            expected = reference_isolate(coeffs, tolerance)
        except NotSquarefreeError:
            with pytest.raises(NotSquarefreeError):
                isolate_roots(product, tolerance)
            continue
        assert roots._isolate(coeffs, tolerance) == expected
        assert roots._isolate(coeffs, tolerance, roots._approximations(coeffs)) == expected
        assert isolate_roots(product, tolerance) == expected


def count_sturm_chains(monkeypatch):
    """A list that gets one entry per Sturm chain ``roots`` builds from now on."""
    built = []

    class Counted(SturmChain):
        def __init__(self, poly):
            built.append(poly)
            super().__init__(poly)

    monkeypatch.setattr(roots, "SturmChain", Counted)
    return built


@pytest.mark.parametrize("r, n", [(2, 7), (1, 4)])
def test_isolation_deflates_the_root_minus_one_and_certifies_again(monkeypatch, r, n):
    # eulerian(2, 7) and eulerian(1, 4) have the root -1: the first pass
    # finds it, and the second runs on the approximations left over
    product = eulerian_from_exc(r, n)
    coeffs = product.q_coefficient_list()
    k = next(i for i, c in enumerate(coeffs) if c)
    product = poly(*coeffs[k:])
    assert -1 in isolate_roots(product)[0]
    built = count_sturm_chains(monkeypatch)
    assert_isolation_matches_the_reference(product)
    # only the Sturm route, once per pass and tolerance, built chains
    assert len(built) == 2 * len(TOLERANCES)


def test_certified_isolation_builds_no_sturm_chain(monkeypatch):
    coeffs = exc_derangement_poly(3, 8).q_coefficient_list()[1:]
    expected = roots._isolate(coeffs, DEFAULT_TOLERANCE)
    built = count_sturm_chains(monkeypatch)
    assert isolate_roots(poly(*coeffs)) == expected
    assert built == []


def count_calls(monkeypatch, name):
    """A list that gets one entry per call of ``roots.<name>`` from now on."""
    calls = []
    real = getattr(roots, name)
    monkeypatch.setattr(roots, name, lambda *args: calls.append(1) or real(*args))
    return calls


def test_isolation_narrows_each_root_once(monkeypatch):
    # exc(3, 8) without its zero root has no rational root, so one pass
    # makes every box: one jump on the certified route, one bisection run
    # on the Sturm route, for each
    coeffs = exc_derangement_poly(3, 8).q_coefficient_list()[1:]
    jumps = count_calls(monkeypatch, "_jump")
    exact, boxes = roots._isolate(coeffs, DEFAULT_TOLERANCE, roots._approximations(coeffs))
    assert exact == () and len(boxes) == len(coeffs) - 1
    assert len(jumps) == len(boxes)
    narrowings = count_calls(monkeypatch, "_narrow")
    assert roots._isolate(coeffs, DEFAULT_TOLERANCE) == (exact, boxes)
    assert len(narrowings) == len(boxes)


# Each way out of the certified route gives the reference output exactly.

FALLBACK_CASES = (
    exc_derangement_poly(3, 6).q_coefficient_list()[1:],
    poly(-6, -2, 3, 1).q_coefficient_list(),  # (x^2 - 2)(x + 3)
    (poly(5, 1) * poly(-3, 0, 1)).q_coefficient_list(),
)


def good_approximations(coeffs):
    return next(xs for xs in roots._approximations(coeffs) if xs)


def test_isolation_falls_back_to_sturm_when_the_approximations_fail(monkeypatch):
    def fail(coeffs, num, *rest):
        if num is float:
            raise OverflowError("out of float range")
        return None  # a run that did not settle

    monkeypatch.setattr(roots, "_laguerre", fail)
    built = count_sturm_chains(monkeypatch)
    for coeffs in FALLBACK_CASES:
        assert list(roots._approximations(coeffs)) == [None]
        assert roots._isolate(coeffs, DEFAULT_TOLERANCE, roots._approximations(coeffs)) == (
            reference_isolate(coeffs, DEFAULT_TOLERANCE)
        )
    assert len(built) == 5  # one per pass: two cases deflate a rational root first


def test_isolation_falls_back_to_sturm_when_the_signs_do_not_alternate(monkeypatch):
    built = count_sturm_chains(monkeypatch)
    for coeffs in FALLBACK_CASES:
        # increasing and distinct, but all left of the roots
        bunched = [Fraction(-100 + i) for i in range(len(coeffs) - 1)]
        assert roots._certificate(coeffs, roots._cauchy_bound(coeffs), [bunched]) is None
        assert roots._isolate(coeffs, DEFAULT_TOLERANCE, [bunched]) == (
            reference_isolate(coeffs, DEFAULT_TOLERANCE)
        )
    assert len(built) == 5  # one per pass: two cases deflate a rational root first


@pytest.mark.parametrize("newton", [True, False])
def test_isolation_recovers_from_jumps_that_miss(monkeypatch, newton):
    # approximations shifted by 2^-20 still certify, but name cells 2^-40
    # wide a long way from the roots: a miss is refined by Newton steps;
    # without them the jump fails and the pass, and every later one, runs
    # on the Sturm route
    steps = {name: count_calls(monkeypatch, name) for name in ("_newton", "_narrow")}
    if not newton:
        monkeypatch.setattr(roots, "_newton", lambda *args: steps["_newton"].append(1))
    built = count_sturm_chains(monkeypatch)
    for coeffs in FALLBACK_CASES:
        shifted = [x + Fraction(1, 2**20) for x in good_approximations(coeffs)]
        assert roots._certificate(coeffs, roots._cauchy_bound(coeffs), [shifted])
        assert roots._isolate(coeffs, DEFAULT_TOLERANCE, [shifted]) == (
            reference_isolate(coeffs, DEFAULT_TOLERANCE)
        )
    assert len(built) == (0 if newton else 5)  # one per pass without Newton
    assert steps["_newton"]
    assert bool(steps["_narrow"]) is not newton


def test_certified_isolation_takes_no_sign_at_a_split_point(monkeypatch):
    # exc(3, 8) has degree 7 and no rational root: signs at the 8
    # certificate points and 2 per jump, none for the splits of ``_cells``
    product = exc_derangement_poly(3, 8)
    expected = roots._isolate(product.q_coefficient_list(), DEFAULT_TOLERANCE)
    signs = count_calls(monkeypatch, "_sign_at")
    assert isolate_roots(product) == expected
    assert len(signs) == 8 + 2 * 7


def test_jumped_ranks_count_the_cells_at_or_left_of_a_point():
    # cells of the grid on (-1, 1]: (-1, 0] at w = 2 and (1/2, 1] at w = 4;
    # a point at a cell's right end counts that cell
    ranks = roots._jumped_ranks([(-2, 0, 2), (2, 4, 4)])
    points = [(-1, 1), (0, 1), (1, 4), (1, 2), (1, 1)]
    assert [ranks(u, w) for u, w in points] == [[0], [1], [1], [1], [2]]


@pytest.mark.parametrize("tolerance", [1, 2])
def test_certified_isolation_jumps_past_deep_where_roots_are_close(monkeypatch, tolerance):
    # the roots -sqrt 3 < -sqrt 2 < sqrt 2 < sqrt 3 of (x^2 - 2)(x^2 - 3) lie
    # closer than the cells at w = deep are wide, so each jump goes deeper
    # to fit in its certificate gap
    product = poly(-2, 0, 1) * poly(-3, 0, 1)
    coeffs = product.q_coefficient_list()
    jumps, real_jump = [], roots._jump

    def jump(work, gap, bn, bd, deep, x):
        cell = real_jump(work, gap, bn, bd, deep, x)
        jumps.append((deep, cell))
        return cell

    monkeypatch.setattr(roots, "_jump", jump)
    built = count_sturm_chains(monkeypatch)
    assert isolate_roots(product, tolerance) == reference_isolate(coeffs, tolerance)
    assert built == []
    assert len(jumps) == 4 and all(cell[2] > deep for deep, cell in jumps)


#: sha256 of json.dumps([exact roots, boxes]) of ``isolate_roots(exc(5, n))``,
#: every Fraction as its str, computed while each split of the certified
#: route still took a sign
ISOLATION_SHA256 = {
    64: "be04cadf9d0d53629f1e60aa37fb3945e64206fd43073f3615ac8fd39cbb67cb",
    80: "970c364df36ac23ffd5f9672b4c80ac6c5a7854d088687eaffc517e0f47522c2",
}


@pytest.mark.parametrize("n", sorted(ISOLATION_SHA256))
def test_isolation_of_exc_5_n_is_pinned(n):
    exact, boxes = isolate_roots(exc_derangement_poly(5, n))
    doc = json.dumps([[str(x) for x in exact], [[str(lo), str(hi)] for lo, hi in boxes]])
    assert hashlib.sha256(doc.encode()).hexdigest() == ISOLATION_SHA256[n]


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


def test_interlacing_builds_each_sturm_chain_once(monkeypatch):
    # the negativity checks build the chains, and the bisection reuses them
    built = count_sturm_chains(monkeypatch)
    counted = []
    real = SturmChain.count_roots
    monkeypatch.setattr(
        SturmChain, "count_roots", lambda self, *ends: counted.append(1) or real(self, *ends)
    )
    report = verify_interlacing(exc_derangement_poly(3, 6), exc_derangement_poly(3, 7))
    assert report["verdict"] == "pass", report["detail"]
    assert len(built) == len(counted) == 2


def test_exc_family_interlaces():
    report = verify_interlacing(
        exc_derangement_poly(2, 4), exc_derangement_poly(2, 5)
    )
    assert report["verdict"] == "pass", report["detail"]


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
