from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclic_derangements import roots
from cyclic_derangements.counting import exc_derangement_poly
from cyclic_derangements.polynomials import InexactDivisionError, QPoly
from cyclic_derangements.roots import (
    DEFAULT_TOLERANCE,
    NotSquarefreeError,
    SturmChain,
    cauchy_bound,
    is_log_concave,
    is_unimodal,
    isolate_roots,
    roots_report,
    verify_interlacing,
    verify_negative_distinct,
)

# (x - 1)(x + 2)(x + 5), ascending coefficients
CUBIC = QPoly((-10, 3, 6, 1))


def linear_product(roots):
    """prod (x - rho) for the given roots."""
    poly = QPoly((1,))
    for rho in roots:
        poly = poly * QPoly((-rho, 1))
    return poly


# -- Sturm chains ------------------------------------------------------------------


def test_sturm_counts_roots_of_cubic():
    chain = SturmChain(CUBIC)
    assert chain.count_real_roots() == 3
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
        SturmChain(QPoly((1, 2, 1)))  # (x + 1)^2


@settings(max_examples=40)
@given(st.sets(st.integers(1, 25), min_size=1, max_size=5))
def test_sturm_root_count_matches_construction(magnitudes):
    poly = linear_product([-m for m in magnitudes])
    chain = SturmChain(poly)
    assert chain.count_real_roots() == len(magnitudes)
    assert chain.count_roots(None, Fraction(0)) == len(magnitudes)


def test_cauchy_bound_encloses_roots():
    bound = cauchy_bound(CUBIC)
    assert bound == 11
    chain = SturmChain(CUBIC)
    assert chain.count_roots(-bound, bound) == 3
    with pytest.raises(ValueError):
        cauchy_bound(QPoly((7,)))


# -- root isolation ----------------------------------------------------------------


def test_isolation_recovers_rational_roots_exactly():
    isolation = isolate_roots(CUBIC)
    assert isolation.exact_roots == (-5, -2, 1)
    assert isolation.intervals == ()
    assert isolation.real_root_count == 3
    assert isolate_roots(QPoly((-1, 2))).exact_roots == (Fraction(1, 2),)


def test_isolation_boxes_irrational_roots():
    poly = QPoly((-6, -2, 3, 1))  # (x^2 - 2)(x + 3)
    isolation = isolate_roots(poly)
    assert isolation.exact_roots == (-3,)
    assert len(isolation.intervals) == 2
    for lo, hi in isolation.intervals:
        assert hi - lo <= DEFAULT_TOLERANCE
        assert poly.evaluate(lo) * poly.evaluate(hi) < 0


def test_isolation_honors_custom_tolerance():
    poly = QPoly((-2, 0, 1))  # x^2 - 2
    isolation = isolate_roots(poly, tolerance=Fraction(1, 8))
    assert all(hi - lo <= Fraction(1, 8) for lo, hi in isolation.intervals)
    with pytest.raises(NotSquarefreeError):
        isolate_roots(QPoly((1, 2, 1)))


def test_deflating_a_non_root_raises(monkeypatch):
    with pytest.raises(InexactDivisionError):
        roots._deflate(CUBIC, Fraction(2))
    assert roots._deflate(CUBIC, Fraction(1)) == linear_product([-2, -5])
    # the divisor search hands over a non-root: deflation must refuse it
    monkeypatch.setattr(roots, "_first_rational_root", lambda work: Fraction(3))
    with pytest.raises(InexactDivisionError):
        isolate_roots(CUBIC)


def test_isolation_deflation_at_a_split_point_is_checked(monkeypatch):
    # bisection of (x - 1)(x + 3) starts at the midpoint 0 of the symmetric
    # Cauchy interval; a value that misreports 0 as a root must be caught
    monkeypatch.setattr(roots, "_first_rational_root", lambda work: None)
    real_evaluate = QPoly.evaluate
    monkeypatch.setattr(
        QPoly, "evaluate", lambda self, x: 0 if x == 0 else real_evaluate(self, x)
    )
    with pytest.raises(InexactDivisionError):
        isolate_roots(linear_product([1, -3]))


def test_isolation_json_shape():
    out = isolate_roots(QPoly((-1, 2))).to_json()
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
    isolation = isolate_roots(linear_product(roots))
    assert sorted(isolation.exact_roots) == roots
    assert isolation.intervals == ()


# -- negativity certificates ---------------------------------------------------------


def test_negativity_passes_on_negative_distinct():
    report = verify_negative_distinct(QPoly((3, 4, 1)))  # (x + 1)(x + 3)
    assert report.passed
    assert (report.degree, report.zero_multiplicity, report.negative_roots) == (2, 0, 2)


def test_negativity_tolerates_one_zero_root():
    poly = QPoly((0, 3, 4, 1))  # x (x + 1)(x + 3)
    report = verify_negative_distinct(poly)
    assert report.passed
    assert report.zero_multiplicity == 1
    assert report.negative_roots == 2
    strict = verify_negative_distinct(poly, allow_zero_root=False)
    assert not strict.passed
    assert "multiplicity 1" in strict.detail


def test_negativity_failure_modes():
    positive = verify_negative_distinct(QPoly((-1, 1)))  # root at +1
    assert not positive.passed and positive.negative_roots == 0
    repeated = verify_negative_distinct(QPoly((1, 2, 1)))
    assert not repeated.passed and "repeated root" in repeated.detail
    double_zero = verify_negative_distinct(QPoly((0, 0, 1, 1)))  # x^2 (x + 1)
    assert not double_zero.passed and "multiplicity 2" in double_zero.detail
    nothing = verify_negative_distinct(QPoly(()))
    assert not nothing.passed and nothing.degree == -1


def test_negativity_json_shape():
    out = verify_negative_distinct(QPoly((3, 4, 1))).to_json()
    assert out["passed"] is True
    assert out["degree"] == 2
    assert out["zero_root_multiplicity"] == 0
    assert out["negative_roots"] == 2


@settings(max_examples=25)
@given(st.sets(st.integers(1, 40), min_size=1, max_size=5), st.booleans())
def test_negativity_certifies_constructed_products(magnitudes, with_zero):
    roots = [-m for m in magnitudes] + ([0] if with_zero else [])
    report = verify_negative_distinct(linear_product(roots))
    assert report.passed
    assert report.zero_multiplicity == int(with_zero)
    assert report.negative_roots == len(magnitudes)


# -- interlacing certificates --------------------------------------------------------


def test_interlacing_pass():
    report = verify_interlacing(QPoly((2, 1)), QPoly((3, 4, 1)))
    assert report.passed
    assert report.pattern == "LsL"
    assert report.to_json()["verdict"] == "pass"


def test_interlacing_with_matching_zero_roots():
    smaller = QPoly((0, 2, 1))  # x (x + 2)
    larger = QPoly((0, 3, 4, 1))  # x (x + 1)(x + 3)
    report = verify_interlacing(smaller, larger)
    assert report.passed and report.pattern == "LsL"


def test_interlacing_degree_zero_base_case():
    report = verify_interlacing(QPoly((1,)), QPoly((1, 1)))
    assert report.passed and report.pattern == "L"


def test_interlacing_failure_modes():
    shared = verify_interlacing(QPoly((1, 1)), QPoly((2, 3, 1)))
    assert not shared.passed and "share" in shared.detail
    step = verify_interlacing(QPoly((1, 1)), QPoly((-10, 3, 6, 1)))
    assert not step.passed and "degree step" in step.detail
    zeros = verify_interlacing(QPoly((0, 1)), QPoly((2, 3, 1)))
    assert not zeros.passed and "zero-root" in zeros.detail
    outside = verify_interlacing(QPoly((5, 1)), QPoly((2, 3, 1)))
    assert not outside.passed and outside.pattern == "sLL"


@settings(max_examples=20)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10))
def test_interlacing_certifies_constructed_alternation(a, b, c):
    # roots -(a), -(a+b), -(a+b+c): smaller takes the middle one
    lo, mid, hi = -(a + b + c), -(a + b), -a
    report = verify_interlacing(linear_product([mid]), linear_product([lo, hi]))
    assert report.passed, report.detail


def test_exc_family_interlaces():
    report = verify_interlacing(
        exc_derangement_poly(2, 4), exc_derangement_poly(2, 5)
    )
    assert report.passed, report.detail


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
    body = roots_report(QPoly((2, 3, 1)))
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
