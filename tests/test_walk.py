"""The integer walk against the object route, element by element and tally by tally.

``wreath._statistics_tally`` and ``stats.dump_lines`` (the ``dump``
line renderer) read statistics from integer rank tables;
``stats.stat_record`` reads them from objects with ``compare``.  Each
rendered line is checked byte for byte against ``json.dumps`` of the
object route's record.  Every cell with r <= 5 and r^n n! <= 3 * 10^4
is checked under both letter orders, for the whole group and for the
derangements alone.
"""

import json
from collections import Counter
from math import factorial

import pytest

from cyclic_derangements import counting
from cyclic_derangements.polynomials import BivariatePolynomial
from cyclic_derangements.stats import dump_lines, stat_record, weak_excedance_count
from cyclic_derangements.wreath import (
    ALTERNATE,
    STANDARD,
    EnumerationBoundError,
    Statistics,
    _statistics_tally,
    compare,
    enumerate_derangements,
    enumerate_group,
    is_derangement,
    parse,
    rank_table,
    to_text,
)

CELLS = [
    (r, n)
    for r in range(1, 6)
    for n in range(8)
    if r**n * factorial(n) <= 30_000
]


@pytest.mark.parametrize("order", [STANDARD, ALTERNATE], ids=lambda o: o.value)
@pytest.mark.parametrize("r, n", CELLS)
def test_integer_routes_match_the_object_route(r, n, order):
    group, deranged = Counter(), Counter()
    expected_derangements, expected_derangement_lines = [], []
    lines = dump_lines(enumerate_group(r, n), r, n, order)
    for sigma, line in zip(enumerate_group(r, n), lines, strict=True):
        record = stat_record(sigma, order)
        expected = json.dumps(
            {
                **record,
                "element": to_text(sigma),
                "derangement": is_derangement(sigma),
                "order": order.value,
            },
            sort_keys=True,
        ) + "\n"
        assert line == expected, sigma
        statistics = Statistics(record["maj"], record["des"], record["sgn"], record["exc"])
        group[statistics] += 1
        if is_derangement(sigma):
            deranged[statistics] += 1
            expected_derangements.append(sigma)
            expected_derangement_lines.append(expected)
    # the pruned walk yields the derangements in the order of the group
    assert list(enumerate_derangements(r, n)) == expected_derangements
    lines = dump_lines(enumerate_derangements(r, n), r, n, order)
    assert list(lines) == expected_derangement_lines
    assert _statistics_tally(r, n, order) == group
    assert _statistics_tally(r, n, order, derangements_only=True) == deranged

    def tally(counter, key):
        out = Counter()
        for s, count in counter.items():
            out[key(s)] += count
        return BivariatePolynomial(out)

    assert counting.group_qt_bruteforce(r, n, order) == tally(group, lambda s: (s.maj, s.sgn))
    assert counting.qt_derangement_bruteforce(r, n, order) == tally(
        deranged, lambda s: (s.maj, s.sgn)
    )
    assert counting.eulerian_by_descents(r, n, order) == tally(
        group, lambda s: (n - s.des, 0)
    )
    assert counting.eulerian_by_excedances(r, n) == tally(group, lambda s: (s.exc, 0))
    assert counting.exc_derangement_bruteforce(r, n) == tally(deranged, lambda s: (s.exc, 0))
    assert counting.derangement_count_enumerated(r, n) == sum(deranged.values())


def _exc_read_in(sigma, order):
    letters = sigma.letters
    return sum(
        not e if v == i else compare(letters[v - 1], letters[i - 1], order) > 0
        for i, (e, v) in enumerate(letters, 1)
    )


def test_exc_is_read_in_the_standard_order_under_the_alternate_order():
    sigma = parse("2,3^1,1^2", 3)
    # the case discriminates: read in the alternate order, exc would differ
    assert _exc_read_in(sigma, ALTERNATE) != weak_excedance_count(sigma)
    [line] = dump_lines([sigma], 3, 3, ALTERNATE)
    doc = json.loads(line)
    assert doc["exc"] == weak_excedance_count(sigma)
    record = stat_record(sigma, ALTERNATE)
    assert {key: doc[key] for key in record} == record
    by_exc = Counter()
    for s, count in _statistics_tally(3, 3, ALTERNATE).items():
        by_exc[s.exc] += count
    assert by_exc == Counter(weak_excedance_count(s) for s in enumerate_group(3, 3))


def test_rank_table_orders_letters_like_compare():
    for order in (STANDARD, ALTERNATE):
        ranks = rank_table(3, 4, order)
        letters = [(0, 0)] + [(e, v) for e in range(3) for v in range(1, 5)]
        for a in letters:
            for b in letters:
                by_rank = (ranks[a[0]][a[1]] > ranks[b[0]][b[1]]) - (
                    ranks[a[0]][a[1]] < ranks[b[0]][b[1]]
                )
                assert by_rank == compare(a, b, order), (a, b)
    assert rank_table(3, 4)[1][0] is None


def test_tally_refuses_up_front():
    with pytest.raises(EnumerationBoundError):
        _statistics_tally(3, 4, bound=100)
    with pytest.raises(ValueError):
        _statistics_tally(0, 3)
    with pytest.raises(EnumerationBoundError):
        counting.derangement_count_enumerated(3, 6, bound=1000)
