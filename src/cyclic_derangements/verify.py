"""Self-contained verification suites over bounded grids.

Each suite cross-checks independent routes to the same quantity:
closed formulas against recurrences against exhaustive enumeration,
generating functions against their coefficient families, bijections by
multiset equality of the statistics they are claimed to preserve, and
root layouts against Sturm-chain certificates.  Every comparison is
exact; there are no floating-point tolerances anywhere.

The grids are sized so the whole battery runs in a few seconds; the
test suite re-runs the expensive cases at larger sizes.
"""

from collections import Counter
from math import comb

from . import counting, roots
from .polynomials import (
    BivariatePolynomial,
    is_palindromic,
    q_binomial,
    reciprocal_check,
)
from .series import coefficient_as_polynomial
from .stats import (
    derangement_part,
    descent_set,
    exponent_sum,
    major_index,
    shuffle_relabel,
    shuffles,
    subcedant_count,
)
from .wreath import SignedLetter, enumerate_group, group_order


def _check(suite, name, passed, detail, params):
    """One named verification with its exact outcome, as its JSON dict."""
    return {
        "suite": suite,
        "name": name,
        "passed": passed,
        "detail": detail,
        "params": params,
    }


def _agree(suite, name, params, pairs):
    """Check that every (label, value) pair carries the same value."""
    labels = [label for label, _ in pairs]
    values = [value for _, value in pairs]
    baseline = values[0]
    mismatched = [
        label for label, value in zip(labels[1:], values[1:]) if value != baseline
    ]
    if mismatched:
        detail = f"{', '.join(mismatched)} disagree with {labels[0]}"
    else:
        detail = f"{', '.join(labels)} agree"
    return _check(suite, name, not mismatched, detail, params)


def _agreements(suite, cells, *families):
    """One ``_agree`` check per cell and family, cell by cell.

    A cell is a params dict; a family is ``(name, routes)``, where
    ``routes(**params)`` returns the (label, value) pairs that must agree.
    """
    return [
        _agree(suite, name, params, routes(**params))
        for params in cells
        for name, routes in families
    ]


def _verdicts(suite, cells, *families):
    """As ``_agreements``, for judges whose ``judge(**params)`` is ``(passed, detail)``."""
    return [
        _check(suite, name, *judge(**params), params)
        for params in cells
        for name, judge in families
    ]


def _grid(rs, ns):
    return [{"r": r, "n": n} for r in rs for n in ns]


def _enumeration_grid(limit):
    """Cells for r = 1..5 and every n whose group order is at most ``limit``."""
    cells = []
    for r in range(1, 6):
        n = 0
        cells.append({"r": r, "n": n})
        while group_order(r, n + 1) <= limit:
            n += 1
            cells.append({"r": r, "n": n})
    return cells


# -- counts ----------------------------------------------------------------------


def _count_routes(r, n):
    pairs = [
        ("formula", counting.derangement_count(r, n)),
        ("two-term", counting.derangement_count_two_term(r, n)),
        ("one-term", counting.derangement_count_one_term(r, n)),
    ]
    if r >= 2:
        pairs.append(("transform", counting.derangement_count_mixed_transform(r, n)))
    return pairs


def suite_counts():
    checks = _agreements("counts", _grid(range(1, 6), range(9)), ("count-routes", _count_routes))
    checks += _agreements(
        "counts",
        _enumeration_grid(50_000),
        ("count-vs-enumeration", lambda r, n: [
            ("formula", counting.derangement_count(r, n)),
            ("enumerated", counting.derangement_count_enumerated(r, n)),
        ]),
    )
    checks += _agreements(
        "counts",
        _grid(range(1, 6), range(7)),
        ("fixed-point-partition", lambda r, n: [
            ("group-order", group_order(r, n)),
            ("sum-over-k", sum(counting.fixed_point_count(r, n, k) for k in range(n + 1))),
        ]),
    )
    discrepancies = counting.reference_discrepancies()
    expected = [{"r": 3, "n": 2, "reference": 12, "computed": 13}]
    checks.append(
        _check(
            "counts",
            "reference-table",
            discrepancies == expected,
            "published table matches except the documented (r=3, n=2) cell: "
            "reference 12, every computed route 13",
            {"discrepancies": discrepancies},
        )
    )
    return checks


# -- q,t refinements ---------------------------------------------------------------


def suite_qt():
    checks = _agreements(
        "qt",
        _grid(range(1, 5), range(7)),
        ("qt-routes", lambda r, n: [
            ("formula", counting.qt_derangement_formula(r, n)),
            ("two-term", counting.qt_derangement_two_term(r, n)),
            ("one-term", counting.qt_derangement_one_term(r, n)),
        ]),
        ("qt-specializes-to-count", lambda r, n: [
            ("count", counting.derangement_count(r, n)),
            ("qt(1,1)", counting.qt_derangement_formula(r, n).evaluate(1, 1)),
        ]),
    )
    checks += _agreements(
        "qt",
        _enumeration_grid(20_000),
        ("qt-vs-enumeration", lambda r, n: [
            ("formula", counting.qt_derangement_formula(r, n)),
            ("enumerated", counting.qt_derangement_bruteforce(r, n)),
        ]),
        ("group-qt-vs-enumeration", lambda r, n: [
            ("closed-form", counting.group_qt_closed(r, n)),
            ("enumerated", counting.group_qt_bruteforce(r, n)),
        ]),
    )
    return checks


# -- bijections ---------------------------------------------------------------------


def _statistics_multiset(words):
    return Counter((descent_set(w), exponent_sum(w)) for w in words)


def _fiber_check(r, n):
    fibers = {}
    for sigma in enumerate_group(r, n):
        fibers.setdefault(derangement_part(sigma), []).append(sigma)
    for alpha, members in fibers.items():
        m = alpha.size
        filler = tuple(
            SignedLetter(0, v)
            for v in range(subcedant_count(alpha) + 1, subcedant_count(alpha) + n - m + 1)
        )
        relabeled = shuffle_relabel(alpha, n)
        expected = _statistics_multiset(shuffles(relabeled, filler))
        actual = _statistics_multiset(members)
        if expected != actual:
            return False, f"fiber over {alpha} breaks at r={r} n={n}"
    return True, "descent sets and exponent sums match on every fiber"


def suite_bijections():
    fiber_cells = _grid((1,), range(6)) + _grid((2,), range(5)) + _grid((3,), range(4))
    checks = _verdicts("bijections", fiber_cells, ("fiber-statistics", _fiber_check))
    checks += _agreements(
        "bijections",
        _grid(range(1, 6), range(9)),
        ("fiber-counting-identity", lambda r, n: [
            ("group-order", group_order(r, n)),
            ("sum-over-fibers", sum(
                comb(n, k) * counting.derangement_count(r, n - k) for k in range(n + 1)
            )),
        ]),
    )
    word_pairs = [
        ((SignedLetter(0, 2), SignedLetter(0, 1)), (SignedLetter(0, 3),)),
        ((SignedLetter(1, 1),), (SignedLetter(0, 2), SignedLetter(0, 3))),
        (
            (SignedLetter(2, 3), SignedLetter(1, 1)),
            (SignedLetter(0, 2), SignedLetter(0, 4)),
        ),
        ((), (SignedLetter(1, 2), SignedLetter(0, 1))),
    ]
    for alpha, beta in word_pairs:
        total = counting.distribution(
            shuffles(alpha, beta), lambda w: (major_index(w), exponent_sum(w))
        )
        closed = q_binomial(len(alpha) + len(beta), len(alpha)) * (
            BivariatePolynomial.monomial(
                1,
                major_index(alpha) + major_index(beta),
                exponent_sum(alpha) + exponent_sum(beta),
            )
        )
        checks.append(
            _agree(
                "bijections",
                "shuffle-generating-function",
                {
                    "alpha": [l.text() for l in alpha],
                    "beta": [l.text() for l in beta],
                },
                [("enumerated", total), ("closed-form", closed)],
            )
        )
    return checks


# -- eulerian -------------------------------------------------------------------------


def _shape(r, n):
    """Degree n - 1, leading coefficient r^n and constant term (r - 1)^n."""
    poly = counting.exc_derangement_poly(r, n)
    passed = (
        poly.q_degree == n - 1
        and poly.coefficient(n - 1) == r**n
        and poly.coefficient(0) == (r - 1) ** n
    )
    return passed, (
        f"degree {poly.q_degree}, leading {poly.coefficient(n - 1)}, "
        f"constant {poly.coefficient(0)}"
    )


def suite_eulerian():
    checks = _agreements(
        "eulerian",
        _grid((1, 2, 3), range(5)),
        ("descent-excedance-equidistribution", lambda r, n: [
            ("excedance-route", counting.eulerian_by_excedances(r, n)),
            ("descent-route", counting.eulerian_by_descents(r, n)),
            ("convolution", counting.eulerian_from_exc(r, n)),
        ]),
        ("derangement-excedance-recurrence", lambda r, n: [
            ("recurrence", counting.exc_derangement_poly(r, n)),
            ("enumerated", counting.exc_derangement_bruteforce(r, n)),
        ]),
    )
    checks += _agreements(
        "eulerian",
        [{"r": r} for r in range(1, 6)],
        ("closed-forms-small-n", lambda r: [
            ("recurrence-n2", counting.exc_derangement_poly(r, 2)),
            ("literal-n2", BivariatePolynomial.monomial(r * r, 1) + (r - 1) ** 2),
        ]),
        ("closed-forms-small-n3", lambda r: [
            ("recurrence-n3", counting.exc_derangement_poly(r, 3)),
            ("literal-n3", BivariatePolynomial.monomial(r**3, 2)
             + BivariatePolynomial.monomial((4 * r - 3) * r * r, 1) + (r - 1) ** 3),
        ]),
    )
    checks += _verdicts(
        "eulerian", _grid(range(1, 5), range(2, 8)), ("degree-leading-constant", _shape)
    )
    checks += _verdicts(
        "eulerian",
        _grid((2,), range(1, 6)),
        ("self-reciprocal-r2", lambda r, n: (
            reciprocal_check(counting.eulerian_from_exc(r, n), n), f"q^{n} p(1/q) == p"
        )),
    )
    checks += _verdicts(
        "eulerian",
        _grid((1,), range(1, 7)),
        ("palindromic-r1", lambda r, n: (
            is_palindromic(counting.eulerian_from_exc(r, n)),
            "coefficients symmetric about the support midpoint",
        )),
    )
    skewed = counting.eulerian_from_exc(3, 1)
    checks.append(
        _check(
            "eulerian",
            "asymmetry-r3",
            not is_palindromic(skewed),
            f"{skewed.text()} is not palindromic, as expected for r > 2",
            {"r": 3, "n": 1},
        )
    )
    return checks


# -- generating functions ----------------------------------------------------------------


def _collapse(suite, name, params, lines):
    failing = [line for line in lines if not line["passed"]]
    if failing:
        first = failing[0]
        detail = f"{first['label']}: expected {first['expected']}, got {first['actual']}"
    else:
        detail = f"all {len(lines)} coefficients match"
    return _check(suite, name, not failing, detail, params)


def suite_egf():
    checks = []
    for r in (1, 2, 3):
        for name, egf_check, n_max in (
            ("derangement-egf", counting.egf_check_derangements, 7),
            ("eulerian-egf", counting.egf_check_eulerian, 5),
            ("exc-derangement-egf", counting.egf_check_exc_derangements, 5),
        ):
            params = {"r": r, "n_max": n_max}
            checks.append(_collapse("egf", name, params, egf_check(r, n_max)))

    def alternate_matches(r):
        series = counting.eulerian_egf_alternate(r, 4)
        return all(
            coefficient_as_polynomial(series, n) == counting.eulerian_from_exc(r, n)
            for n in range(5)
        )

    outcome = (not alternate_matches(1), alternate_matches(2), not alternate_matches(3))
    checks.append(
        _check(
            "egf",
            "alternate-numerator-only-matches-r2",
            all(outcome),
            "the variant without the r-1 factor in the numerator exponent "
            "reproduces the excedance family only at r=2 "
            f"(mismatch at r=1: {outcome[0]}, match at r=2: {outcome[1]}, "
            f"mismatch at r=3: {outcome[2]})",
            {},
        )
    )
    for r in range(1, 6):
        lines = [
            counting.probability_gap_certificate(r, n) for n in range(9)
        ]
        checks.append(
            _collapse("egf", "probability-gap", {"r": r, "n_max": 8}, lines)
        )
    return checks


# -- roots ---------------------------------------------------------------------------------


def _negative_distinct(poly):
    report = roots.verify_negative_distinct(poly)
    return report["passed"], report["detail"]


def _interlacing(r, n):
    report = roots.verify_interlacing(
        counting.exc_derangement_poly(r, n), counting.exc_derangement_poly(r, n + 1)
    )
    return report["verdict"] == "pass", f"{report['verdict']}: {report['detail']}"


def _log_concave(r, n):
    coeffs = counting.exc_derangement_poly(r, n).q_coefficient_list()
    return (
        roots.is_log_concave(coeffs) and roots.is_unimodal(coeffs),
        "log-concave with contiguous support, hence unimodal",
    )


def suite_roots():
    checks = []
    for r in (1, 2, 3):
        checks += _verdicts(
            "roots",
            _grid((r,), range(2, 9)),
            ("derangement-negative-distinct",
             lambda r, n: _negative_distinct(counting.exc_derangement_poly(r, n))),
        )
        checks += _verdicts(
            "roots",
            _grid((r,), range(1, 7)),
            ("eulerian-negative-distinct",
             lambda r, n: _negative_distinct(counting.eulerian_from_exc(r, n))),
        )
        checks += _verdicts(
            "roots",
            _grid((r,), range(2 if r == 1 else 1, 8)),
            ("consecutive-interlacing", _interlacing),
        )
        checks += _verdicts(
            "roots", _grid((r,), range(2, 9)), ("coefficients-log-concave-unimodal", _log_concave)
        )
    return checks


SUITES = {
    "counts": suite_counts,
    "qt": suite_qt,
    "bijections": suite_bijections,
    "eulerian": suite_eulerian,
    "egf": suite_egf,
    "roots": suite_roots,
}


def run_suites(names=None):
    """Each named suite once, in first-named order; ``all`` names every suite."""
    if names is None or "all" in names:
        names = SUITES
    checks = []
    for name in dict.fromkeys(names):
        runner = SUITES.get(name)
        if runner is None:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        checks.extend(runner())
    return checks


def report_json(checks):
    failed = [c for c in checks if not c["passed"]]
    return {
        "schema": 1,
        "summary": {
            "total": len(checks),
            "passed": len(checks) - len(failed),
            "failed": len(failed),
        },
        "checks": checks,
    }
