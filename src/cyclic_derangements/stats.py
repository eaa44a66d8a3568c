"""Statistics on signed words and the maps relating them.

All functions accept either a ``CyclicPermutation`` or a bare sequence
of ``SignedLetter`` (several maps here produce words that are not
permutations of 1..n, e.g. after relabeling into a larger alphabet).

Conventions:

* Descents are read with the boundary letter 0 prepended, so position 0
  is a descent exactly when the first letter has nonzero exponent.
* The exponent sum is NOT reduced mod r; it can reach n(r-1).
* A weak excedance at i is either an exact fixed point sigma(i) = i, or
  |sigma(i)| != i together with sigma(|sigma(i)|) > sigma(i) in the
  standard order.  The second application acts on the underlying value,
  not on the signed letter; that reading is forced by the calibration
  identities (the excedance polynomial over derangements of size 2 must
  be r^2 q + (r-1)^2, and descents and weak excedances must be
  equidistributed over the whole group), both of which fail under the
  fully multiplicative reading.
"""

import json
from itertools import combinations

from .wreath import (
    STANDARD,
    ZERO,
    CyclicPermutation,
    SignedLetter,
    compare,
    rank_table,
)


def _letters(word):
    if isinstance(word, CyclicPermutation):
        return word.letters
    return tuple(word)


def descent_set(word, order=STANDARD):
    """Positions 0 <= i < n with w_i > w_{i+1}, reading w_0 = 0."""
    letters = _letters(word)
    out = []
    prev = ZERO
    for i, cur in enumerate(letters):
        if compare(prev, cur, order) > 0:
            out.append(i)
        prev = cur
    return frozenset(out)


def descent_count(word, order=STANDARD):
    return len(descent_set(word, order))


def major_index(word, order=STANDARD):
    """Sum of descent positions (position 0 contributes nothing)."""
    return sum(descent_set(word, order))


def exponent_sum(word):
    """Raw sum of exponents, the t-statistic."""
    return sum(l.exponent for l in _letters(word))


def subcedant_count(word):
    """Positions i with w_i < i (the plain letter i).

    Signed letters sit below every plain letter in both order variants,
    so the count does not depend on the variant.
    """
    letters = _letters(word)
    return sum(
        1
        for i, l in enumerate(letters, 1)
        if compare(l, SignedLetter(0, i)) < 0
    )


def weak_excedance_count(sigma):
    """Weak excedances of a full group element (see module docstring)."""
    letters = sigma.letters
    count = 0
    for i, (e, v) in enumerate(letters, 1):
        if v == i:
            count += not e
        elif compare(letters[v - 1], letters[i - 1]) > 0:
            count += 1
    return count


def derangement_part(sigma):
    """Drop fixed points; relabel surviving values order-isomorphically.

    Exponents ride along unchanged; the result is a derangement in
    C_r wr S_m where m = n - (number of fixed points).
    """
    kept = [(e, v) for i, (e, v) in enumerate(sigma.letters, 1) if e or v != i]
    rank = {v: j for j, v in enumerate(sorted(v for _, v in kept), 1)}
    return CyclicPermutation(
        sigma.modulus, tuple(SignedLetter(e, rank[v]) for e, v in kept)
    )


def shuffle_relabel(sigma, n):
    """Relabel a size-m element into the alphabet 1..n (m <= n).

    Values are renamed by class, keeping exponents: subcedant values
    become 1..sub (in increasing order), fixed-point values become
    sub+1..sub+k, and the remaining values fill n, n-1, ... from the
    top.  Descent set and exponent sum are preserved, and the fiber of
    ``derangement_part`` over a derangement alpha maps bijectively onto
    the shuffles of ``shuffle_relabel(alpha, n)`` with the increasing
    plain word sub(alpha)+1, ..., sub(alpha)+k.
    """
    letters = sigma.letters
    m = len(letters)
    if m > n:
        raise ValueError(f"cannot relabel a size-{m} word into 1..{n}")
    subs = sorted(
        v
        for i, (e, v) in enumerate(letters, 1)
        if compare(SignedLetter(e, v), SignedLetter(0, i)) < 0
    )
    fixed = sorted(v for i, (e, v) in enumerate(letters, 1) if not e and v == i)
    placed = set(subs) | set(fixed)
    rest = sorted((v for _, v in letters if v not in placed), reverse=True)
    rename = {}
    for j, v in enumerate(subs, 1):
        rename[v] = j
    for j, v in enumerate(fixed, 1):
        rename[v] = len(subs) + j
    for j, v in enumerate(rest, 1):
        rename[v] = n - j + 1
    return tuple(SignedLetter(e, rename[v]) for e, v in letters)


def shuffles(alpha, beta):
    """All interleavings of two words over disjoint value alphabets.

    Lazily yields the C(a+b, a) words preserving the letter order of
    each argument.
    """
    first = _letters(alpha)
    second = _letters(beta)
    values_first = {l.value for l in first}
    values_second = {l.value for l in second}
    if values_first & values_second:
        raise ValueError(
            f"alphabets overlap: {sorted(values_first & values_second)}"
        )
    a, b = len(first), len(second)
    for positions in combinations(range(a + b), a):
        chosen = set(positions)
        word = []
        it_first = iter(first)
        it_second = iter(second)
        for i in range(a + b):
            word.append(next(it_first) if i in chosen else next(it_second))
        yield tuple(word)


def stat_record(sigma, order=STANDARD):
    """Joint statistics of one element; its keys are the ``dump`` contract."""
    return {
        "maj": major_index(sigma, order),
        "des": descent_count(sigma, order),
        "sgn": exponent_sum(sigma),
        "exc": weak_excedance_count(sigma),
        "sub": subcedant_count(sigma),
    }


def dump_lines(elements, r, n, order):
    """The ``dump`` line of each element of C_r wr S_n, read from integer rank tables.

    The tables are ``wreath.rank_table`` of ``order`` and of the standard
    order, in which exc is always read.  A line is the JSON object
    ``stat_record(sigma, order)`` extended by ``element``, ``derangement``
    and ``order`` (``order.value``), keys sorted, as
    ``json.dumps(..., sort_keys=True)`` writes it, with a newline.  Lines
    are yielded as the elements are drawn, one by one.
    """
    ranks = rank_table(r, n, order)
    standard_ranks = rank_table(r, n, STANDARD)
    plain = ranks[0]
    # letter texts hold digits and carets only, which JSON writes unescaped
    texts = [[SignedLetter(e, v).text() for v in range(n + 1)] for e in range(r)]
    order_name = json.dumps(order.value)
    for sigma in elements:
        letters = sigma.letters
        words = []
        maj = des = sgn = exc = sub = 0
        deranged = "true"
        before = plain[0]
        for i, (e, v) in enumerate(letters, 1):
            words.append(texts[e][v])
            place = ranks[e][v]
            if before > place:
                des += 1
                maj += i - 1
            before = place
            sgn += e
            sub += place < plain[i]
            if v == i:
                if not e:
                    exc += 1
                    deranged = "false"
            else:
                f, w = letters[v - 1]
                exc += standard_ranks[f][w] > standard_ranks[e][v]
        yield (
            f'{{"derangement": {deranged}, "des": {des}, "element": "{",".join(words)}", '
            f'"exc": {exc}, "maj": {maj}, "order": {order_name}, "sgn": {sgn}, "sub": {sub}}}\n'
        )
