import inspect

import pytest
from hypothesis import given, strategies as st

from cyclic_derangements.wreath import (
    ALTERNATE,
    DEFAULT_ENUMERATION_BOUND,
    STANDARD,
    CyclicPermutation,
    EnumerationBoundError,
    ExponentRangeError,
    SignedLetter,
    ValueSetError,
    WordLengthError,
    apply,
    compare,
    cycle_decomposition,
    enumerate_derangements,
    enumerate_group,
    fixed_points,
    group_order,
    identity,
    inverse,
    is_derangement,
    letter_sort_key,
    make,
    parse,
    to_text,
)


@st.composite
def elements(draw, max_r=3, max_n=5):
    r = draw(st.integers(1, max_r))
    n = draw(st.integers(0, max_n))
    values = draw(st.permutations(list(range(1, n + 1))))
    exponents = draw(
        st.lists(st.integers(0, r - 1), min_size=n, max_size=n)
    )
    return make(r, n, list(zip(exponents, values)))


# -- letters and orders -----------------------------------------------------------


def test_letter_text_forms():
    assert SignedLetter(0, 3).text() == "3"
    assert SignedLetter(2, 3).text() == "3^2"
    assert SignedLetter(0, 0).is_zero


def test_standard_order_chain():
    chain = [
        SignedLetter(2, 3),
        SignedLetter(1, 3),
        SignedLetter(2, 2),
        SignedLetter(1, 2),
        SignedLetter(1, 1),
        SignedLetter(0, 0),
        SignedLetter(0, 1),
        SignedLetter(0, 2),
        SignedLetter(0, 3),
    ]
    assert chain == sorted(chain, key=lambda l: letter_sort_key(l, STANDARD))
    for low, high in zip(chain, chain[1:]):
        assert compare(low, high, STANDARD) == -1
        assert compare(high, low, STANDARD) == 1
        assert compare(low, low, STANDARD) == 0


def test_alternate_order_chain():
    chain = [
        SignedLetter(2, 3),
        SignedLetter(2, 2),
        SignedLetter(2, 1),
        SignedLetter(1, 3),
        SignedLetter(1, 1),
        SignedLetter(0, 0),
        SignedLetter(0, 1),
        SignedLetter(0, 3),
    ]
    assert chain == sorted(chain, key=lambda l: letter_sort_key(l, ALTERNATE))


# -- construction and validation ------------------------------------------------


def test_make_validates():
    with pytest.raises(WordLengthError):
        make(2, 3, [(0, 1), (0, 2)])
    with pytest.raises(ValueSetError):
        make(2, 2, [(0, 1), (0, 1)])
    with pytest.raises(ExponentRangeError):
        make(2, 2, [(0, 1), (2, 2)])
    with pytest.raises(ValueError):
        make(0, 1, [(0, 1)])
    assert make(3, 0, []).size == 0


def test_identity_and_fixed_points():
    e = identity(3, 4)
    assert fixed_points(e) == frozenset({1, 2, 3, 4})
    assert not is_derangement(e)
    # a twisted letter at its own position is not fixed
    sigma = make(2, 2, [(1, 1), (0, 2)])
    assert fixed_points(sigma) == frozenset({2})
    assert not is_derangement(sigma)
    assert is_derangement(make(2, 2, [(1, 1), (1, 2)]))


def test_group_order():
    assert group_order(3, 2) == 18
    assert group_order(1, 4) == 24
    assert group_order(5, 0) == 1


# -- group action ------------------------------------------------------------------


def test_apply_known_images():
    sigma = make(3, 3, [(1, 3), (2, 1), (0, 2)])
    assert apply(sigma, SignedLetter(0, 1)) == SignedLetter(1, 3)
    assert apply(sigma, SignedLetter(2, 1)) == SignedLetter(0, 3)
    assert apply(sigma, SignedLetter(1, 3)) == SignedLetter(1, 2)
    with pytest.raises(ValueError):
        apply(sigma, SignedLetter(0, 0))
    with pytest.raises(ValueError):
        apply(sigma, SignedLetter(0, 4))


@given(elements())
def test_inverse_inverts(sigma):
    inv = inverse(sigma)
    assert inverse(inv) == sigma
    for v in range(1, sigma.size + 1):
        letter = SignedLetter(0, v)
        assert apply(inv, apply(sigma, letter)) == letter


@given(elements())
def test_derangement_iff_no_fixed_points(sigma):
    assert is_derangement(sigma) == (not fixed_points(sigma))


def test_cycle_decomposition_rotations():
    sigma = make(1, 7, [(0, v) for v in (5, 3, 1, 4, 7, 6, 2)])
    assert cycle_decomposition(sigma) == [(4,), (6,), (7, 2, 3, 1, 5)]
    assert cycle_decomposition(identity(2, 3)) == [(1,), (2,), (3,)]
    assert cycle_decomposition(make(2, 2, [(1, 2), (0, 1)])) == [(2, 1)]


# -- enumeration --------------------------------------------------------------------


def test_enumerate_group_counts_and_order():
    words = list(enumerate_group(2, 2))
    assert len(words) == len(set(words)) == 8
    assert to_text(words[0]) == "1,2"
    assert to_text(words[-1]) == "2^1,1^1"
    assert len(list(enumerate_group(3, 0))) == 1


@given(st.integers(1, 3), st.integers(0, 4))
def test_enumeration_sizes(r, n):
    assert sum(1 for _ in enumerate_group(r, n)) == group_order(r, n)
    derangements = list(enumerate_derangements(r, n))
    assert all(is_derangement(s) for s in derangements)
    brute = [s for s in enumerate_group(r, n) if is_derangement(s)]
    assert derangements == brute


def test_enumeration_bound_guard():
    with pytest.raises(EnumerationBoundError) as info:
        list(enumerate_group(2, 4, bound=100))
    assert info.value.cardinality == 384
    assert info.value.bound == 100
    # refusal happens before any element is produced, on both entry points
    for source in (enumerate_group, enumerate_derangements):
        assert inspect.isgeneratorfunction(source)
        gen = source(10, 10)
        with pytest.raises(EnumerationBoundError) as info:
            next(gen)
        assert info.value.bound == DEFAULT_ENUMERATION_BOUND


# -- text round-trip ------------------------------------------------------------------


def test_parse_and_text():
    sigma = parse("3^1, 1^2, 2", 3)
    assert sigma.letters == (
        SignedLetter(1, 3),
        SignedLetter(2, 1),
        SignedLetter(0, 2),
    )
    assert to_text(sigma) == "3^1,1^2,2"
    assert str(sigma) == "3^1,1^2,2"
    assert parse("", 4).size == 0
    with pytest.raises(ValueError):
        parse("1,,2", 2)
    with pytest.raises(ExponentRangeError):
        parse("1^5,2", 3)
    with pytest.raises(ValueSetError):
        parse("1,3", 2)


@given(elements())
def test_text_round_trip(sigma):
    assert parse(to_text(sigma), sigma.modulus) == sigma
