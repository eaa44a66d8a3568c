from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclic_derangements import counting, verify
from cyclic_derangements.counting import (
    COUNT_METHODS,
    REFERENCE_COUNTS,
    count_by_method,
    derangement_count,
    derangement_count_enumerated,
    derangement_count_mixed_transform,
    derangement_count_one_term,
    derangement_count_two_term,
    derangement_egf,
    egf_check_derangements,
    egf_check_eulerian,
    egf_check_exc_derangements,
    eulerian_by_descents,
    eulerian_by_excedances,
    eulerian_egf_alternate,
    eulerian_from_exc,
    exc_derangement_bruteforce,
    exc_derangement_poly,
    fixed_point_count,
    group_qt_bruteforce,
    group_qt_closed,
    probability_gap_certificate,
    qt_derangement_bruteforce,
    qt_derangement_formula,
    qt_derangement_one_term,
    qt_derangement_two_term,
    reference_discrepancies,
)
from cyclic_derangements.polynomials import BivariatePolynomial
from cyclic_derangements.series import coefficient_as_polynomial
from cyclic_derangements.wreath import ALTERNATE, STANDARD, group_order

# frozen expected counts; all routes must reproduce these
EXPECTED_COUNTS = {
    1: [1, 0, 1, 2, 9, 44, 265],
    2: [1, 1, 5, 29, 233, 2329, 27949],
    3: [1, 2, 13, 116, 1393, 20894, 376093],
    4: [1, 3, 25, 299, 4785, 95699, 2296777],
    5: [1, 4, 41, 614, 12281, 307024, 9210721],
}


def test_counts_match_frozen_values():
    for r, row in EXPECTED_COUNTS.items():
        assert [derangement_count(r, n) for n in range(7)] == row


@given(st.integers(1, 6), st.integers(0, 9))
def test_recurrences_agree_with_formula(r, n):
    expected = derangement_count(r, n)
    assert derangement_count_two_term(r, n) == expected
    assert derangement_count_one_term(r, n) == expected
    if r >= 2:
        assert derangement_count_mixed_transform(r, n) == expected


def test_formula_raises_when_the_sum_is_not_integral(monkeypatch):
    # a wrong factorial breaks the identity; the integrality check must
    # raise, not be stripped as an assert would be under python -O
    monkeypatch.setattr(counting, "factorial", lambda k: k + 2)
    with pytest.raises(ArithmeticError, match="not an integer"):
        derangement_count(1, 1)


def test_transform_refuses_trivial_modulus():
    with pytest.raises(ValueError):
        derangement_count_mixed_transform(1, 3)


def test_enumerated_counts():
    for r, n in ((1, 5), (2, 4), (3, 3), (4, 2)):
        assert derangement_count_enumerated(r, n) == derangement_count(r, n)


def test_validation():
    with pytest.raises(ValueError):
        derangement_count(0, 2)
    with pytest.raises(ValueError):
        derangement_count(2, -1)


def test_fixed_point_counts_partition_group():
    for r, n in ((1, 6), (2, 5), (3, 4)):
        assert sum(fixed_point_count(r, n, k) for k in range(n + 1)) == group_order(r, n)
    assert fixed_point_count(2, 3, 5) == 0
    assert fixed_point_count(2, 3, 3) == 1


def test_count_methods():
    assert [count_by_method("formula", 3, n) for n in range(7)] == [
        1, 2, 13, 116, 1393, 20894, 376093,
    ]
    assert [count_by_method("brute-force", 2, n) for n in range(5)] == [1, 1, 5, 29, 233]
    assert set(COUNT_METHODS) == {
        "formula", "two-term", "one-term", "transform", "brute-force",
    }
    with pytest.raises(ValueError):
        count_by_method("magic", 2, 3)


def test_reference_discrepancy_is_exactly_one_cell():
    table_rows = {r: len(row) for r, row in REFERENCE_COUNTS.items()}
    assert table_rows == {1: 7, 2: 7, 3: 7, 4: 7, 5: 7}
    found = reference_discrepancies()
    assert len(found) == 1
    d = found[0]
    assert (d["r"], d["n"], d["reference"], d["computed"]) == (3, 2, 12, 13)


# -- q,t refinements -------------------------------------------------------------------


def test_qt_smallest_cases_literal():
    q, t = BivariatePolynomial.q(), BivariatePolynomial.t()
    assert qt_derangement_formula(2, 2) == q + t + q * t + t**2 + q * t**2
    assert qt_derangement_formula(1, 1).is_zero()
    assert qt_derangement_formula(2, 1) == t
    assert qt_derangement_formula(1, 0) == BivariatePolynomial.one()


def test_group_qt_closed_form_literal():
    q, t = BivariatePolynomial.q(), BivariatePolynomial.t()
    assert group_qt_closed(2, 2) == (1 + t) ** 2 * (1 + q)
    assert group_qt_closed(1, 3) == (1 + q) * (1 + q + q**2)


@given(st.integers(1, 4), st.integers(0, 6))
def test_qt_routes_agree(r, n):
    expected = qt_derangement_formula(r, n)
    assert qt_derangement_two_term(r, n) == expected
    assert qt_derangement_one_term(r, n) == expected
    assert expected.evaluate(1, 1) == derangement_count(r, n)


def test_qt_brute_force():
    for r, n in ((1, 5), (2, 3), (3, 3)):
        assert qt_derangement_bruteforce(r, n) == qt_derangement_formula(r, n)
        assert group_qt_bruteforce(r, n) == group_qt_closed(r, n)
    # the q,t-distribution does not depend on the letter order
    for r in (1, 2, 3):
        for n in range(5):
            expected = qt_derangement_formula(r, n)
            assert qt_derangement_bruteforce(r, n, order=ALTERNATE) == expected
            assert group_qt_bruteforce(r, n, order=ALTERNATE) == group_qt_closed(r, n)


def test_qt_specializes_to_classical_major_index():
    # at r=1 the exponent sum vanishes, leaving the maj refinement alone
    poly = qt_derangement_formula(1, 4)
    assert poly.is_t_free()
    assert poly == qt_derangement_bruteforce(1, 4)


# -- eulerian families ---------------------------------------------------------------


def test_eulerian_literal_anchors():
    q = BivariatePolynomial.q()
    assert eulerian_by_excedances(1, 2) == q + q**2
    assert eulerian_by_excedances(2, 2) == 1 + 6 * q + q**2
    assert eulerian_by_excedances(3, 1) == 2 + q
    assert eulerian_by_excedances(1, 0) == BivariatePolynomial.one()


def test_exc_derangement_literal_anchors():
    q = BivariatePolynomial.q()
    for r in range(1, 6):
        assert exc_derangement_poly(r, 0) == BivariatePolynomial.one()
        assert exc_derangement_poly(r, 1) == BivariatePolynomial.constant(r - 1)
        assert exc_derangement_poly(r, 2) == r * r * q + (r - 1) ** 2
        assert exc_derangement_poly(r, 3) == (
            BivariatePolynomial.monomial(r**3, 2)
            + (4 * r - 3) * r * r * q
            + (r - 1) ** 3
        )
    assert exc_derangement_poly(3, 3) == 27 * q**2 + 81 * q + 8


def test_eulerian_routes_agree():
    for r in (1, 2, 3):
        for n in range(5):
            exc = eulerian_by_excedances(r, n)
            for order in (STANDARD, ALTERNATE):
                assert exc == eulerian_by_descents(r, n, order=order)
            assert exc == eulerian_from_exc(r, n)
            assert exc_derangement_poly(r, n) == exc_derangement_bruteforce(r, n)


def test_eulerian_specializes_to_group_order():
    for r in (1, 2, 4):
        for n in range(6):
            assert eulerian_from_exc(r, n).evaluate(1, 1) == group_order(r, n)
            assert exc_derangement_poly(r, n).evaluate(1, 1) == derangement_count(r, n)


# -- generating functions ----------------------------------------------------------------


def test_derangement_egf_series():
    series = derangement_egf(2, 5)
    # scaled coefficients n! [x^n]: 1, 1, 5, 29, ...
    assert series[0] == 1
    assert series[3] == 29


def test_egf_checks_all_pass():
    for r in (1, 2, 3):
        assert all(line["passed"] for line in egf_check_derangements(r, 7))
        assert all(line["passed"] for line in egf_check_eulerian(r, 5))
        assert all(line["passed"] for line in egf_check_exc_derangements(r, 5))


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_q_egf_checks_pass_at_the_benchmark_order(r):
    # bench/checks.py requires order + 1 passing lines from each q-EGF check
    order = 20
    for check in (egf_check_eulerian, egf_check_exc_derangements):
        lines = check(r, order)
        assert len(lines) == order + 1
        assert all(line["passed"] for line in lines), [
            line["label"] for line in lines if not line["passed"]
        ]


def test_checkline_json_shape():
    line = egf_check_derangements(2, 2)[0]
    assert line == {"label": "derangement-egf r=2 n=0", "passed": True}


def test_a_failing_check_line_carries_and_reports_both_values():
    q = BivariatePolynomial.q()
    # a passing line is not rendered: text() of the int 1 would raise
    lines = counting._check_lines("toy", [1, q], [1, 1 + q], BivariatePolynomial.text)
    assert lines == [
        {"label": "toy n=0", "passed": True},
        {
            "label": "toy n=1",
            "passed": False,
            "expected": "q",
            "actual": "1 + q",
        },
    ]
    check = verify._collapse("egf", "toy-egf", {"r": 1}, lines)
    assert check == {
        "suite": "egf",
        "name": "toy-egf",
        "passed": False,
        "detail": "toy n=1: expected q, got 1 + q",
        "params": {"r": 1},
    }


def test_alternate_eulerian_egf_is_a_negative_control():
    matches = {}
    for r in (1, 2, 3):
        series = eulerian_egf_alternate(r, 4)
        matches[r] = all(
            coefficient_as_polynomial(series, n) == eulerian_from_exc(r, n)
            for n in range(5)
        )
    assert matches == {1: False, 2: True, 3: False}
    # at r=1 it generates the descent-normalized classical polynomials instead
    q = BivariatePolynomial.q()
    classical = coefficient_as_polynomial(eulerian_egf_alternate(1, 3), 2)
    assert classical == 1 + q
    assert eulerian_from_exc(1, 2) == q + q**2


def test_probability_certificates():
    for r in range(1, 6):
        for n in range(9):
            line = probability_gap_certificate(r, n)
            assert line["passed"], (r, n, line)


def test_probability_certificate_reports_a_small_margin():
    # the measured gap should already be within the first omitted-term bound
    honest = probability_gap_certificate(2, 6)
    assert honest["passed"]
    assert Fraction(honest["actual"]) < Fraction(2, 2**7 * 5040)
