import json

import pytest
from hypothesis import given, strategies as st

from cyclic_derangements.polynomials import BivariatePolynomial, q_binomial
from cyclic_derangements.stats import (
    derangement_part,
    descent_count,
    descent_set,
    dump_lines,
    exponent_sum,
    major_index,
    shuffle_relabel,
    shuffles,
    stat_record,
    subcedant_count,
    weak_excedance_count,
)
from cyclic_derangements.wreath import (
    ALTERNATE,
    STANDARD,
    SignedLetter,
    enumerate_derangements,
    enumerate_group,
    identity,
    is_derangement,
    make,
    parse,
)


@st.composite
def elements(draw, max_r=3, max_n=5):
    r = draw(st.integers(1, max_r))
    n = draw(st.integers(0, max_n))
    values = draw(st.permutations(list(range(1, n + 1))))
    exponents = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    return make(r, n, list(zip(exponents, values)))


# -- hand-checked oracles ------------------------------------------------------------
# Worked by hand from the definitions before being frozen here.

ORACLES = [
    # (r, text, descents, maj, sgn, exc, sub)
    (2, "1^1,2^1", {0, 1}, 1, 2, 0, 2),
    (1, "2,1", {1}, 1, 0, 1, 1),
    (3, "3^1,1^2,2", {0}, 0, 3, 1, 3),
    (2, "2^1,1", {0}, 0, 1, 1, 2),
    (1, "1,2,3", set(), 0, 0, 3, 0),
]


@pytest.mark.parametrize("r, text, descents, maj, sgn, exc, sub", ORACLES)
def test_statistic_oracles(r, text, descents, maj, sgn, exc, sub):
    sigma = parse(text, r)
    assert descent_set(sigma) == frozenset(descents)
    assert major_index(sigma) == maj
    assert exponent_sum(sigma) == sgn
    assert weak_excedance_count(sigma) == exc
    assert subcedant_count(sigma) == sub


def test_boundary_descent():
    # a leading twisted letter always opens with a descent at position 0,
    # which adds nothing to the major index
    sigma = parse("1^1,2,3", 2)
    assert descent_set(sigma) == frozenset({0})
    assert major_index(sigma) == 0
    assert descent_set(parse("1,2,3", 2)) == frozenset()


def test_empty_word():
    e = identity(2, 0)
    assert descent_set(e) == frozenset()
    assert major_index(e) == 0 == exponent_sum(e) == weak_excedance_count(e)


@given(elements())
def test_descent_counts_consistent(sigma):
    ds = descent_set(sigma)
    assert descent_count(sigma) == len(ds)
    assert major_index(sigma) == sum(ds)
    assert all(0 <= i < sigma.size for i in ds)


@given(elements())
def test_subcedant_count_order_invariant(sigma):
    # the count reads no order; the dump line reads sub through either one
    r, n = sigma.modulus, sigma.size
    for order in (STANDARD, ALTERNATE):
        [line] = dump_lines([sigma], r, n, order)
        assert subcedant_count(sigma) == json.loads(line)["sub"]


def test_identity_statistics():
    e = identity(3, 5)
    assert weak_excedance_count(e) == 5
    assert subcedant_count(e) == 0
    assert major_index(e) == 0


# -- reduction and relabeling maps ------------------------------------------------------


def test_derangement_part_classical_example():
    sigma = make(1, 7, [(0, v) for v in (5, 3, 1, 4, 7, 6, 2)])
    alpha = derangement_part(sigma)
    assert [l.value for l in alpha.letters] == [4, 3, 1, 5, 2]
    assert is_derangement(alpha)


def test_derangement_part_keeps_twisted_self_maps():
    sigma = parse("1^1,2", 2)  # position 1 twisted in place, position 2 fixed
    alpha = derangement_part(sigma)
    assert alpha.letters == (SignedLetter(1, 1),)


@given(elements())
def test_derangement_part_idempotent(sigma):
    alpha = derangement_part(sigma)
    assert is_derangement(alpha)
    assert derangement_part(alpha) == alpha
    assert alpha.size == sigma.size - len(
        [i for i, (e, v) in enumerate(sigma.letters, 1) if not e and v == i]
    )


def test_shuffle_relabel_classical_example():
    sigma = make(1, 6, [(0, v) for v in (3, 2, 6, 5, 4, 1)])
    relabeled = shuffle_relabel(sigma, 8)
    assert [l.value for l in relabeled] == [6, 3, 8, 7, 2, 1]


def test_shuffle_relabel_preserves_statistics():
    for r, n in ((2, 3), (3, 3)):
        for sigma in enumerate_group(r, n):
            w = shuffle_relabel(sigma, n + 2)
            assert descent_set(w) == descent_set(sigma)
            assert exponent_sum(w) == exponent_sum(sigma)


def test_shuffle_relabel_rejects_shrinking():
    with pytest.raises(ValueError):
        shuffle_relabel(identity(2, 4), 3)


# -- shuffles ------------------------------------------------------------------------


def test_shuffles_enumerates_interleavings():
    alpha = (SignedLetter(0, 2), SignedLetter(0, 1))
    beta = (SignedLetter(0, 3),)
    words = [tuple(l.value for l in w) for w in shuffles(alpha, beta)]
    assert sorted(words) == [(2, 1, 3), (2, 3, 1), (3, 2, 1)]
    majs = sorted(major_index(w) for w in shuffles(alpha, beta))
    assert majs == [1, 2, 3]


def test_shuffles_reject_overlapping_values():
    with pytest.raises(ValueError):
        list(shuffles((SignedLetter(0, 1),), (SignedLetter(1, 1),)))


def test_shuffles_empty_factor():
    beta = (SignedLetter(1, 2), SignedLetter(0, 1))
    assert list(shuffles((), beta)) == [beta]


@given(st.data())
def test_shuffle_identity_sampled(data):
    m = data.draw(st.integers(0, 6))
    a = data.draw(st.integers(0, m))
    values = data.draw(st.permutations(list(range(1, m + 1))))
    exponents = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    letters = [SignedLetter(e, v) for e, v in zip(exponents, values)]
    alpha, beta = tuple(letters[:a]), tuple(letters[a:])
    total = BivariatePolynomial.zero()
    for w in shuffles(alpha, beta):
        total = total + BivariatePolynomial.monomial(
            1, major_index(w), exponent_sum(w)
        )
    closed = q_binomial(m, a) * BivariatePolynomial.monomial(
        1,
        major_index(alpha) + major_index(beta),
        exponent_sum(alpha) + exponent_sum(beta),
    )
    assert total == closed


# -- records -----------------------------------------------------------------------


def test_stat_record_json():
    record = stat_record(parse("2^1,1", 2))
    assert record == {"maj": 0, "des": 1, "sgn": 1, "exc": 1, "sub": 2}


def test_joint_distribution_matches_order_variants():
    for r, n in ((2, 3), (3, 2)):
        std = {}
        alt = {}
        for sigma in enumerate_derangements(r, n):
            ks = (major_index(sigma, STANDARD), exponent_sum(sigma))
            ka = (major_index(sigma, ALTERNATE), exponent_sum(sigma))
            std[ks] = std.get(ks, 0) + 1
            alt[ka] = alt.get(ka, 0) + 1
        assert std == alt
