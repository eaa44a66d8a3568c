"""End-to-end acceptance gate.

Each test covers one numbered claim about the package as a whole,
prints a single PASS/FAIL line, and fails loudly with the offending
cells if anything disagrees.  Everything is exact integer/rational
arithmetic; the only tolerances are the two wall-clock budgets.
"""

import random
from collections import Counter
from itertools import permutations, product
from math import comb
from time import perf_counter

from cyclic_derangements.counting import (
    REFERENCE_COUNTS,
    derangement_count,
    derangement_count_enumerated,
    derangement_count_mixed_transform,
    derangement_count_one_term,
    derangement_count_two_term,
    egf_check_derangements,
    egf_check_eulerian,
    egf_check_exc_derangements,
    eulerian_by_descents,
    eulerian_by_excedances,
    eulerian_from_exc,
    exc_derangement_bruteforce,
    exc_derangement_poly,
    group_qt_bruteforce,
    group_qt_closed,
    probability_gap_certificate,
    qt_derangement_bruteforce,
    qt_derangement_formula,
    qt_derangement_one_term,
    qt_derangement_two_term,
    reference_discrepancies,
)
from cyclic_derangements.polynomials import (
    BivariatePolynomial,
    is_palindromic,
    q_binomial,
    reciprocal_check,
)
from cyclic_derangements.roots import (
    is_log_concave,
    is_unimodal,
    verify_interlacing,
    verify_negative_distinct,
)
from cyclic_derangements.stats import (
    derangement_part,
    descent_set,
    exponent_sum,
    major_index,
    shuffle_relabel,
    shuffles,
    subcedant_count,
)
from cyclic_derangements.wreath import (
    ALTERNATE,
    STANDARD,
    SignedLetter,
    enumerate_derangements,
    enumerate_group,
    group_order,
    is_derangement,
)


def conclude(number, problems, message):
    status = "PASS" if not problems else "FAIL"
    print(f"{status} criterion {number}: {message}")
    assert not problems, f"criterion {number}: " + "; ".join(problems[:8])


def test_criterion_01_published_count_table():
    start = perf_counter()
    problems = []
    for r in range(1, 6):
        for n in range(7):
            if (r, n) == (3, 2):
                continue
            computed = derangement_count(r, n)
            printed = REFERENCE_COUNTS[r][n]
            if computed != printed:
                problems.append(f"({r},{n}) computed {computed} != printed {printed}")
    routes = {
        "formula": derangement_count(3, 2),
        "two-term": derangement_count_two_term(3, 2),
        "one-term": derangement_count_one_term(3, 2),
        "transform": derangement_count_mixed_transform(3, 2),
    }
    elements = list(enumerate_group(3, 2))
    if len(elements) != 18:
        problems.append(f"group C_3 wr S_2 has {len(elements)} elements, not 18")
    routes["enumeration"] = sum(1 for sigma in elements if is_derangement(sigma))
    if set(routes.values()) != {13}:
        problems.append(f"routes disagree at (3,2): {routes}")
    if REFERENCE_COUNTS[3][2] != 12:
        problems.append("embedded published value at (3,2) should be 12")
    reported = [
        (d["r"], d["n"], d["reference"], d["computed"]) for d in reference_discrepancies()
    ]
    if reported != [(3, 2, 12, 13)]:
        problems.append(f"discrepancy report is {reported}")
    elapsed = perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget is 1s")
    conclude(
        1,
        problems,
        "published 5x7 table reproduced; at (r=3, n=2) the printed value 12 "
        f"disagrees with all five routes, which give 13 ({elapsed:.2f}s)",
    )


def test_criterion_02_four_routes_and_enumeration_on_the_million_grid():
    # every modulus is admissible at n <= 1, so the sweep caps r at 8 to
    # stay finite; each included modulus still reaches n >= 4
    cells = []
    for r in range(1, 9):
        n = 0
        while group_order(r, n) <= 10**6:
            cells.append((r, n))
            n += 1
    problems = []
    if len(cells) != 53:
        problems.append(f"expected 53 admissible cells, found {len(cells)}")
    for r, n in cells:
        values = {
            "formula": derangement_count(r, n),
            "two-term": derangement_count_two_term(r, n),
            "one-term": derangement_count_one_term(r, n),
            "enumeration": derangement_count_enumerated(r, n),
        }
        if r >= 2:
            values["transform"] = derangement_count_mixed_transform(r, n)
        if len(set(values.values())) != 1:
            problems.append(f"({r},{n}) routes disagree: {values}")
    conclude(
        2,
        problems,
        f"all counting routes agree exactly on {len(cells)} cells with "
        "r^n*n! <= 10^6 (r capped at 8)",
    )


def test_criterion_03_group_generating_function():
    problems = []
    for r in (1, 2, 3):
        for n in range(6):
            brute = group_qt_bruteforce(r, n)
            closed = group_qt_closed(r, n)
            if brute != closed:
                problems.append(f"({r},{n}): {brute.text()} != {closed.text()}")
    conclude(
        3,
        problems,
        "sum of q^maj t^sgn over the full group equals [r]_t^n [n]_q! "
        "for r <= 3, n <= 5",
    )


def test_criterion_04_qt_derangement_routes():
    problems = []
    for r in (1, 2, 3):
        for n in range(6):
            formula = qt_derangement_formula(r, n)
            for label, poly in (
                ("two-term", qt_derangement_two_term(r, n)),
                ("one-term", qt_derangement_one_term(r, n)),
                ("brute-force", qt_derangement_bruteforce(r, n)),
            ):
                if poly != formula:
                    problems.append(f"({r},{n}) {label} route disagrees")
            if formula.evaluate(1, 1) != derangement_count(r, n):
                problems.append(f"({r},{n}) q=t=1 misses the plain count")
    # trivial modulus: the refinement must be t-free and must match an
    # independent major-index sum over the classical derangements
    for n in range(6):
        acc = {}
        for sigma in enumerate_derangements(1, n):
            key = (major_index(sigma), 0)
            acc[key] = acc.get(key, 0) + 1
        classical = BivariatePolynomial(acc)
        formula = qt_derangement_formula(1, n)
        if not formula.is_t_free():
            problems.append(f"(1,{n}) refinement is not t-free")
        if formula != classical:
            problems.append(f"(1,{n}) disagrees with the classical maj sum")
    conclude(
        4,
        problems,
        "q,t-refined derangement polynomials agree across all four routes "
        "for r <= 3, n <= 5, specialize to the counts, and reduce to the "
        "classical maj polynomials at r = 1",
    )


def test_criterion_05_fiber_bijection_onto_shuffles():
    problems = []
    fibers_checked = 0
    for r in (1, 2, 3):
        for n in range(6):
            fibers = {}
            for sigma in enumerate_group(r, n):
                fibers.setdefault(derangement_part(sigma), []).append(sigma)
            sizes = Counter(alpha.size for alpha in fibers)
            for m, count in sorted(sizes.items()):
                if count != derangement_count(r, m):
                    problems.append(
                        f"({r},{n}) has {count} fibers of size {m}, "
                        f"expected {derangement_count(r, m)}"
                    )
            total = 0
            for alpha, fiber in fibers.items():
                k = n - alpha.size
                sub = subcedant_count(alpha)
                gamma = tuple(SignedLetter(0, sub + j) for j in range(1, k + 1))
                target = set(shuffles(shuffle_relabel(alpha, n), gamma))
                images = [shuffle_relabel(sigma, n) for sigma in fiber]
                if len(set(images)) != len(images):
                    problems.append(f"({r},{n}) map not injective on a fiber")
                if set(images) != target:
                    problems.append(
                        f"({r},{n}) fiber image misses the shuffle set "
                        f"for alpha of size {alpha.size}"
                    )
                for sigma, word in zip(fiber, images):
                    if descent_set(word) != descent_set(sigma):
                        problems.append(f"({r},{n}) descent set not preserved")
                    if exponent_sum(word) != exponent_sum(sigma):
                        problems.append(f"({r},{n}) exponent sum not preserved")
                if len(fiber) != comb(n, k):
                    problems.append(
                        f"({r},{n}) fiber size {len(fiber)} != C({n},{k})"
                    )
                total += len(fiber)
                fibers_checked += 1
            if total != group_order(r, n):
                problems.append(f"({r},{n}) fibers do not partition the group")
    conclude(
        5,
        problems,
        f"relabeling maps all {fibers_checked} fibers bijectively onto "
        "their shuffle sets, preserving descent set and exponent sum "
        "(r <= 3, n <= 5)",
    )


def _plain(values):
    return tuple(SignedLetter(0, v) for v in values)


def _shuffle_identity_holds(left, right, qbin):
    acc = {}
    for word in shuffles(left, right):
        key = (major_index(word), exponent_sum(word))
        acc[key] = acc.get(key, 0) + 1
    lhs = BivariatePolynomial(acc)
    shift = BivariatePolynomial.monomial(
        1,
        major_index(left) + major_index(right),
        exponent_sum(left) + exponent_sum(right),
    )
    return lhs == qbin * shift


def test_criterion_06_shuffle_generating_function():
    qbin = {}
    for m in range(8):
        for a in range(m + 1):
            qbin[m, a] = q_binomial(m, a)
    problems = []
    plain_pairs = 0
    # every pair of plain words on disjoint alphabets is order-isomorphic
    # to a split of a permutation, so this sweep is exhaustive
    for m in range(8):
        for values in permutations(range(1, m + 1)):
            word = _plain(values)
            for a in range(m + 1):
                plain_pairs += 1
                if not _shuffle_identity_holds(word[:a], word[a:], qbin[m, a]):
                    problems.append(f"plain pair {values} split at {a}")
    signed_pairs = 0
    for m in range(5):  # exhaustive over signed pairs up to total length 4
        for values in permutations(range(1, m + 1)):
            for exponents in product(range(3), repeat=m):
                word = tuple(
                    SignedLetter(e, v) for e, v in zip(exponents, values)
                )
                for a in range(m + 1):
                    signed_pairs += 1
                    if not _shuffle_identity_holds(word[:a], word[a:], qbin[m, a]):
                        problems.append(f"signed pair {word} split at {a}")
    rng = random.Random(20260814)
    for _ in range(300):  # seeded battery of longer signed pairs
        m = rng.randint(5, 7)
        r = rng.randint(1, 3)
        values = list(range(1, m + 1))
        rng.shuffle(values)
        word = tuple(SignedLetter(rng.randrange(r), v) for v in values)
        a = rng.randint(0, m)
        signed_pairs += 1
        if not _shuffle_identity_holds(word[:a], word[a:], qbin[m, a]):
            problems.append(f"seeded pair {word} split at {a}")
    conclude(
        6,
        problems,
        f"shuffle identity holds on all {plain_pairs} plain pairs with "
        f"a+b <= 7 and {signed_pairs} signed pairs (exhaustive to total "
        "length 4, seeded beyond)",
    )


def test_criterion_07_eulerian_equidistribution_and_palindromicity():
    problems = []
    for r in (1, 2, 3):
        for n in range(6):
            by_exc = eulerian_by_excedances(r, n)
            if by_exc != eulerian_by_descents(r, n):
                problems.append(f"({r},{n}) n-des and exc distributions differ")
            if by_exc != eulerian_from_exc(r, n):
                problems.append(f"({r},{n}) binomial identity fails")
            if exc_derangement_poly(r, n) != exc_derangement_bruteforce(r, n):
                problems.append(f"({r},{n}) derangement recurrence fails")
    for r in (1, 2):
        for n in range(6):
            poly = eulerian_by_excedances(r, n)
            if not is_palindromic(poly):
                problems.append(f"({r},{n}) is not palindromic")
            if r == 2 and not reciprocal_check(poly, n):
                problems.append(f"(2,{n}) fails the degree-{n} reciprocal test")
    asymmetric = eulerian_by_excedances(3, 1)
    if is_palindromic(asymmetric) or reciprocal_check(asymmetric, 1):
        problems.append("(3,1) unexpectedly palindromic")
    conclude(
        7,
        problems,
        "n-des and exc agree for r <= 3, n <= 5; the binomial identity "
        "holds; palindromicity holds for r in {1,2}, n <= 5 and fails at "
        "(3,1) as expected",
    )


def test_criterion_08_exponential_generating_functions():
    problems = []
    lines = 0
    for r in (1, 2, 3):
        for line in (
            egf_check_derangements(r, 7)
            + egf_check_eulerian(r, 7)
            + egf_check_exc_derangements(r, 7)
        ):
            lines += 1
            if not line["passed"]:
                problems.append(
                    f"{line['label']}: expected {line['expected']}, got {line['actual']}"
                )
    conclude(
        8,
        problems,
        f"all {lines} series coefficients match their polynomials exactly "
        "for r <= 3, n <= 7 (coefficient reduction asserted throughout)",
    )


def test_criterion_09_real_roots_interlacing_and_shape():
    start = perf_counter()
    problems = []
    for r in range(1, 5):
        family = {n: exc_derangement_poly(r, n) for n in range(2, 9)}
        for n, poly in family.items():
            report = verify_negative_distinct(poly)
            if not report["passed"]:
                problems.append(f"({r},{n}) negativity: {report['detail']}")
            if report["degree"] != n - 1:
                problems.append(f"({r},{n}) degree {report['degree']} != {n - 1}")
            expected_zero = 1 if r == 1 else 0
            if report["zero_root_multiplicity"] != expected_zero:
                problems.append(
                    f"({r},{n}) zero-root multiplicity {report['zero_root_multiplicity']}"
                )
            coeffs = poly.q_coefficient_list()
            if not is_log_concave(coeffs):
                problems.append(f"({r},{n}) coefficients not log-concave")
            if not is_unimodal(coeffs):
                problems.append(f"({r},{n}) coefficients not unimodal")
        for n in range(2, 8):
            report = verify_interlacing(family[n], family[n + 1])
            if report["verdict"] != "pass":
                problems.append(f"({r},{n})->({r},{n+1}): {report['detail']}")
    elapsed = perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget is 30s")
    conclude(
        9,
        problems,
        "excedance polynomials have distinct negative real roots (plus a "
        "reported simple zero root at r=1), consecutive members interlace "
        "with Sturm certificates, and coefficients are log-concave and "
        f"unimodal for r <= 4, 2 <= n <= 8 ({elapsed:.1f}s)",
    )


def test_criterion_10_letter_order_invariance():
    problems = []
    for r in (1, 2, 3):
        for n in range(5):
            for label, source in (
                ("group", enumerate_group),
                ("derangements", enumerate_derangements),
            ):
                standard = Counter(
                    (major_index(s, STANDARD), exponent_sum(s))
                    for s in source(r, n)
                )
                alternate = Counter(
                    (major_index(s, ALTERNATE), exponent_sum(s))
                    for s in source(r, n)
                )
                if standard != alternate:
                    problems.append(f"({r},{n}) {label} distributions differ")
    conclude(
        10,
        problems,
        "joint (maj, sgn) distribution is identical under both letter "
        "orders, over the group and over derangements, for r <= 3, n <= 4",
    )


def test_criterion_11_limiting_probability_bound():
    problems = []
    for r in range(1, 6):
        for n in range(9):
            line = probability_gap_certificate(r, n)
            if not line["passed"]:
                problems.append(f"({r},{n}) gap {line['actual']} not {line['expected']}")
    conclude(
        11,
        problems,
        "derangement fraction stays within e/(r^(n+1)(n+1)!) of the "
        "limit exp(-1/r) for r <= 5, n <= 8, by rational bracketing",
    )
