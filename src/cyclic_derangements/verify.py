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


# -- counts ----------------------------------------------------------------------


def _enumeration_grid(limit=50_000):
    grid = []
    for r in range(1, 6):
        n = 0
        while group_order(r, n + 1) <= limit:
            n += 1
        grid.append((r, n))
    return grid


def suite_counts():
    checks = []
    for r in range(1, 6):
        for n in range(9):
            pairs = [
                ("formula", counting.derangement_count(r, n)),
                ("two-term", counting.derangement_count_two_term(r, n)),
                ("one-term", counting.derangement_count_one_term(r, n)),
            ]
            if r >= 2:
                pairs.append(
                    ("transform", counting.derangement_count_mixed_transform(r, n))
                )
            checks.append(
                _agree("counts", "count-routes", {"r": r, "n": n}, pairs)
            )
    for r, n_max in _enumeration_grid():
        for n in range(n_max + 1):
            checks.append(
                _agree(
                    "counts",
                    "count-vs-enumeration",
                    {"r": r, "n": n},
                    [
                        ("formula", counting.derangement_count(r, n)),
                        ("enumerated", counting.derangement_count_enumerated(r, n)),
                    ],
                )
            )
    for r in range(1, 6):
        for n in range(7):
            total = sum(
                counting.fixed_point_count(r, n, k) for k in range(n + 1)
            )
            checks.append(
                _agree(
                    "counts",
                    "fixed-point-partition",
                    {"r": r, "n": n},
                    [("group-order", group_order(r, n)), ("sum-over-k", total)],
                )
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
    checks = []
    for r in range(1, 5):
        for n in range(7):
            checks.append(
                _agree(
                    "qt",
                    "qt-routes",
                    {"r": r, "n": n},
                    [
                        ("formula", counting.qt_derangement_formula(r, n)),
                        ("two-term", counting.qt_derangement_two_term(r, n)),
                        ("one-term", counting.qt_derangement_one_term(r, n)),
                    ],
                )
            )
            specialized = counting.qt_derangement_formula(r, n).evaluate(1, 1)
            checks.append(
                _agree(
                    "qt",
                    "qt-specializes-to-count",
                    {"r": r, "n": n},
                    [
                        ("count", counting.derangement_count(r, n)),
                        ("qt(1,1)", specialized),
                    ],
                )
            )
    for r, n_max in _enumeration_grid(20_000):
        for n in range(n_max + 1):
            checks.append(
                _agree(
                    "qt",
                    "qt-vs-enumeration",
                    {"r": r, "n": n},
                    [
                        ("formula", counting.qt_derangement_formula(r, n)),
                        ("enumerated", counting.qt_derangement_bruteforce(r, n)),
                    ],
                )
            )
            checks.append(
                _agree(
                    "qt",
                    "group-qt-vs-enumeration",
                    {"r": r, "n": n},
                    [
                        ("closed-form", counting.group_qt_closed(r, n)),
                        ("enumerated", counting.group_qt_bruteforce(r, n)),
                    ],
                )
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
    checks = []
    for r, n_max in ((1, 5), (2, 4), (3, 3)):
        for n in range(n_max + 1):
            passed, detail = _fiber_check(r, n)
            checks.append(
                _check(
                    "bijections",
                    "fiber-statistics",
                    passed,
                    detail,
                    {"r": r, "n": n},
                )
            )
    for r in range(1, 6):
        for n in range(9):
            total = sum(
                comb(n, k) * counting.derangement_count(r, n - k)
                for k in range(n + 1)
            )
            checks.append(
                _agree(
                    "bijections",
                    "fiber-counting-identity",
                    {"r": r, "n": n},
                    [("group-order", group_order(r, n)), ("sum-over-fibers", total)],
                )
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


def suite_eulerian():
    checks = []
    for r in (1, 2, 3):
        for n in range(5):
            checks.append(
                _agree(
                    "eulerian",
                    "descent-excedance-equidistribution",
                    {"r": r, "n": n},
                    [
                        ("excedance-route", counting.eulerian_by_excedances(r, n)),
                        ("descent-route", counting.eulerian_by_descents(r, n)),
                        ("convolution", counting.eulerian_from_exc(r, n)),
                    ],
                )
            )
            checks.append(
                _agree(
                    "eulerian",
                    "derangement-excedance-recurrence",
                    {"r": r, "n": n},
                    [
                        ("recurrence", counting.exc_derangement_poly(r, n)),
                        ("enumerated", counting.exc_derangement_bruteforce(r, n)),
                    ],
                )
            )
    for r in range(1, 6):
        q = BivariatePolynomial.q()
        anchor2 = r * r * q + (r - 1) ** 2
        anchor3 = (
            BivariatePolynomial.monomial(r**3, 2)
            + (4 * r - 3) * r * r * q
            + (r - 1) ** 3
        )
        checks.append(
            _agree(
                "eulerian",
                "closed-forms-small-n",
                {"r": r},
                [
                    ("recurrence-n2", counting.exc_derangement_poly(r, 2)),
                    ("literal-n2", anchor2),
                ],
            )
        )
        checks.append(
            _agree(
                "eulerian",
                "closed-forms-small-n3",
                {"r": r},
                [
                    ("recurrence-n3", counting.exc_derangement_poly(r, 3)),
                    ("literal-n3", anchor3),
                ],
            )
        )
    for r in range(1, 5):
        for n in range(2, 8):
            poly = counting.exc_derangement_poly(r, n)
            shape_ok = (
                poly.q_degree == n - 1
                and poly.coefficient(n - 1) == r**n
                and poly.coefficient(0) == (r - 1) ** n
            )
            checks.append(
                _check(
                    "eulerian",
                    "degree-leading-constant",
                    shape_ok,
                    f"degree {poly.q_degree}, leading {poly.coefficient(n - 1)}, "
                    f"constant {poly.coefficient(0)}",
                    {"r": r, "n": n},
                )
            )
    for n in range(1, 6):
        poly = counting.eulerian_from_exc(2, n)
        checks.append(
            _check(
                "eulerian",
                "self-reciprocal-r2",
                reciprocal_check(poly, n),
                f"q^{n} p(1/q) == p",
                {"r": 2, "n": n},
            )
        )
    for n in range(1, 7):
        poly = counting.eulerian_from_exc(1, n)
        checks.append(
            _check(
                "eulerian",
                "palindromic-r1",
                is_palindromic(poly),
                "coefficients symmetric about the support midpoint",
                {"r": 1, "n": n},
            )
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


def suite_roots():
    checks = []
    for r in (1, 2, 3):
        for n in range(2, 9):
            poly = counting.exc_derangement_poly(r, n)
            report = roots.verify_negative_distinct(poly)
            checks.append(
                _check(
                    "roots",
                    "derangement-negative-distinct",
                    report["passed"],
                    report["detail"],
                    {"r": r, "n": n},
                )
            )
        for n in range(1, 7):
            poly = counting.eulerian_from_exc(r, n)
            report = roots.verify_negative_distinct(poly)
            checks.append(
                _check(
                    "roots",
                    "eulerian-negative-distinct",
                    report["passed"],
                    report["detail"],
                    {"r": r, "n": n},
                )
            )
        start = 2 if r == 1 else 1
        for n in range(start, 8):
            report = roots.verify_interlacing(
                counting.exc_derangement_poly(r, n),
                counting.exc_derangement_poly(r, n + 1),
            )
            checks.append(
                _check(
                    "roots",
                    "consecutive-interlacing",
                    report["verdict"] == "pass",
                    f"{report['verdict']}: {report['detail']}",
                    {"r": r, "n": n},
                )
            )
        for n in range(2, 9):
            coeffs = counting.exc_derangement_poly(r, n).q_coefficient_list()
            checks.append(
                _check(
                    "roots",
                    "coefficients-log-concave-unimodal",
                    roots.is_log_concave(coeffs) and roots.is_unimodal(coeffs),
                    "log-concave with contiguous support, hence unimodal",
                    {"r": r, "n": n},
                )
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
