"""Elements of the wreath product C_r wr S_n as words of signed letters.

An element sigma is a word (zeta^{e_1} s_1, ..., zeta^{e_n} s_n) where
the values s_i form a permutation of {1..n} and each exponent e_i lies
in 0..r-1.  Position i maps to zeta^{e_i} s_i; a fixed point is a
position with e_i = 0 and s_i = i, and a derangement is an element with
no fixed point.

Words are compared letterwise under one of two total orders on the set
{zeta^e s} union {0} union {1..n}:

* Standard: all letters with nonzero exponent sort below 0, first by
  value descending and then by exponent descending, so zeta^{r-1} n is
  the minimum and zeta 1 is the largest signed letter; 0 sits between;
  plain integers sort ascending above 0.
* Alternate: signed letters sort by exponent descending first, then by
  value descending; the zero and plain blocks are unchanged.

Statistics built on these orders live in ``stats``, read from objects;
``_statistics_tally`` reads them from integer rank tables while it walks
the group, without building objects.
"""

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain, permutations, product
from typing import Iterator, NamedTuple

DEFAULT_ENUMERATION_BOUND = 10_000_000


class WordLengthError(ValueError):
    """Letter count disagrees with the declared size n."""


class ValueSetError(ValueError):
    """Underlying values are not a permutation of 1..n."""


class ExponentRangeError(ValueError):
    """An exponent falls outside 0..r-1."""


class EnumerationBoundError(RuntimeError):
    """Refusal to enumerate a group larger than the configured bound."""

    def __init__(self, r, n, cardinality, bound):
        self.r = r
        self.n = n
        self.cardinality = cardinality
        self.bound = bound
        super().__init__(
            f"refusing to enumerate C_{r} wr S_{n}: "
            f"{cardinality} elements exceed the bound {bound}"
        )


class SignedLetter(NamedTuple):
    """zeta^exponent * value; the boundary symbol 0 is value 0, exponent 0.

    NamedTuple keeps construction cheap on enumeration hot paths.  The
    built-in tuple comparison is NOT the letter order; use ``compare``.
    """

    exponent: int
    value: int

    @property
    def is_zero(self):
        return self.value == 0

    def text(self):
        if self.exponent:
            return f"{self.value}^{self.exponent}"
        return str(self.value)


ZERO = SignedLetter(0, 0)


class OrderVariant(Enum):
    STANDARD = "standard"
    ALTERNATE = "alternate"


STANDARD = OrderVariant.STANDARD
ALTERNATE = OrderVariant.ALTERNATE


def letter_sort_key(letter, order=STANDARD):
    """Sort key realizing the chosen total order on letters."""
    e, v = letter
    if e:
        return (0, -v, -e) if order is STANDARD else (0, -e, -v)
    return (2, v, 0) if v else (1, 0, 0)


def compare(a, b, order=STANDARD):
    """Three-way comparison: -1, 0, or 1."""
    ka = letter_sort_key(a, order)
    kb = letter_sort_key(b, order)
    return (ka > kb) - (ka < kb)


def rank_table(r, n, order=STANDARD):
    """rank[e][v]: the place of the letter zeta^e v among the letters of C_r wr S_n.

    Places run from 0 upward in the chosen order, so letters compare as
    their ranks do.  rank[0][0] is the boundary letter 0; rank[e][0] for
    e > 0 names no letter and is None.
    """
    letters = [(0, 0)] + [(e, v) for e in range(r) for v in range(1, n + 1)]
    letters.sort(key=partial(letter_sort_key, order=order))
    rank = [[None] * (n + 1) for _ in range(r)]
    for place, (e, v) in enumerate(letters):
        rank[e][v] = place
    return rank


@dataclass(frozen=True, slots=True)
class CyclicPermutation:
    """A word in C_r wr S_n.

    Raw construction is trusted (enumeration hot path); use ``make`` for
    validated input.
    """

    modulus: int
    letters: tuple

    @property
    def size(self):
        return len(self.letters)

    def __str__(self):
        return to_text(self)


def make(r, n, letters):
    """Validated constructor from (exponent, value) pairs."""
    if r < 1:
        raise ValueError(f"modulus r must be at least 1, got {r}")
    if n < 0:
        raise ValueError(f"size n must be nonnegative, got {n}")
    word = tuple(SignedLetter(int(e), int(v)) for e, v in letters)
    if len(word) != n:
        raise WordLengthError(f"expected {n} letters, got {len(word)}")
    if sorted(l.value for l in word) != list(range(1, n + 1)):
        raise ValueSetError(
            f"values {[l.value for l in word]} are not a permutation of 1..{n}"
        )
    for l in word:
        if not 0 <= l.exponent < r:
            raise ExponentRangeError(
                f"exponent {l.exponent} outside 0..{r - 1}"
            )
    return CyclicPermutation(r, word)


def identity(r, n):
    return make(r, n, [(0, v) for v in range(1, n + 1)])


def group_order(r, n):
    return r**n * math.factorial(n)


def apply(sigma, letter):
    """Image of a signed letter: zeta^a j maps to zeta^{(a+e_j) mod r} s_j."""
    if letter.is_zero:
        raise ValueError("the boundary symbol 0 is not in the domain")
    if not 1 <= letter.value <= sigma.size:
        raise ValueError(f"value {letter.value} outside 1..{sigma.size}")
    e, v = sigma.letters[letter.value - 1]
    return SignedLetter((letter.exponent + e) % sigma.modulus, v)


def inverse(sigma):
    r = sigma.modulus
    out = [ZERO] * sigma.size
    for i, (e, v) in enumerate(sigma.letters, 1):
        out[v - 1] = SignedLetter((-e) % r, i)
    return CyclicPermutation(r, tuple(out))


def fixed_points(sigma):
    """Indices i with sigma(i) = i exactly (exponent 0 and value i)."""
    return frozenset(
        i for i, (e, v) in enumerate(sigma.letters, 1) if not e and v == i
    )


def is_derangement(sigma):
    return all(e or v != i for i, (e, v) in enumerate(sigma.letters, 1))


def cycle_decomposition(sigma):
    """Cycles of the underlying permutation i -> s_i.

    Each cycle is rotated to start at its largest element; cycles are
    sorted by that leader.
    """
    values = [l.value for l in sigma.letters]
    n = len(values)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = values[j - 1]
        top = cyc.index(max(cyc))
        cycles.append(tuple(cyc[top:] + cyc[:top]))
    cycles.sort(key=lambda c: c[0])
    return cycles


def enumerate_group(r, n, bound=None) -> Iterator[CyclicPermutation]:
    """All of C_r wr S_n, lexicographic in (value word, exponent word).

    Refuses up front (EnumerationBoundError) when r^n n! exceeds the
    bound, which defaults to DEFAULT_ENUMERATION_BOUND (10^7).
    """
    yield from _enumerate(r, n, bound, derangements_only=False)


def enumerate_derangements(r, n, bound=None) -> Iterator[CyclicPermutation]:
    """Fixed-point-free elements, in enumeration order of the full group."""
    yield from _enumerate(r, n, bound, derangements_only=True)


def check_enumerable(r, n, bound=None):
    """Refuse bad sizes (ValueError) and groups past the bound, before any work.

    The bound defaults to DEFAULT_ENUMERATION_BOUND (10^7); r^n n! above
    it raises EnumerationBoundError.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if bound is None:
        bound = DEFAULT_ENUMERATION_BOUND
    cardinality = group_order(r, n)
    if cardinality > bound:
        raise EnumerationBoundError(r, n, cardinality, bound)


def _enumerate(r, n, bound, derangements_only):
    """The walk over letter tuples; a state is the tuple of letters placed so far."""
    check_enumerable(r, n, bound)
    # one-letter tuples, so that growing a word is a tuple concatenation
    letters = [[(SignedLetter(e, v),) for v in range(n + 1)] for e in range(r)]

    def grow(q, values, where, words, exponents):
        grown = [letters[e][values[q]] for e in exponents]
        if q < n:
            return [w + g for w in words for g in grown]
        return (w + g for w in words for g in grown)

    element = partial(CyclicPermutation, r)
    for batch in _walk(r, n, derangements_only, (), grow):
        yield from map(element, batch)


def _walk(r, n, derangements_only, root, grow):
    """The one enumeration loop, shared by the element generators and the tallies.

    Visits C_r wr S_n, or only its derangements, lexicographically in
    (value word, exponent word).  Each element is grown position by
    position from ``root``: ``grow(q, values, where, states, exponents)``
    takes the states of the exponent prefixes of positions 1..q-1, in
    lexicographic order, to those of positions 1..q, where position q
    holds ``values[q]`` with each exponent of ``exponents``.  It returns
    a list for q < n and may return a lazy iterable for q = n, so that no
    list of elements is built.  ``values[q]`` is the value at position q
    (``values[0] = 0`` stands for the boundary letter) and ``where[v]``
    the position holding v in the current value word.

    Value words come from ``permutations`` in lexicographic order; one
    shares a prefix with the previous one, and only the positions after
    it are grown again.  When only derangements are wanted, a position
    holding its own value takes only nonzero exponents, so fixed points
    are pruned while growing; at r = 1 that leaves none, and every value
    word sharing the prefix is skipped.  Yields one batch of final states
    per value word.  Callers run ``check_enumerable`` first.
    """
    if n == 0:
        yield [root]
        return
    every, nonzero = range(r), range(1, r)
    values = [0] * (n + 1)
    where = [0] * (n + 1)
    levels = [[root]] + [None] * (n - 1)  # levels[q]: states of positions 1..q
    previous = (0,) * n
    dead = n + 1  # at r = 1, the prefix of this length holds a fixed point
    for word in permutations(range(1, n + 1)):
        shared = 0
        while word[shared] == previous[shared]:
            shared += 1
        previous = word
        if shared >= dead:
            continue
        dead = n + 1
        values[shared + 1:] = word[shared:]
        for q, v in enumerate(word[shared:], shared + 1):
            where[v] = q
        states = levels[shared]
        for q in range(shared + 1, n):
            exponents = nonzero if derangements_only and values[q] == q else every
            if not exponents:
                dead = q
                break
            states = levels[q] = grow(q, values, where, states, exponents)
        else:
            exponents = nonzero if derangements_only and values[n] == n else every
            if exponents:
                yield grow(n, values, where, states, exponents)


class Statistics(NamedTuple):
    """maj and des in a letter order, sgn, and exc in the standard order."""

    maj: int
    des: int
    sgn: int
    exc: int


def _statistics_tally(r, n, order=STANDARD, derangements_only=False, bound=None):
    """Counter of ``Statistics`` over the walk, read from integer rank tables.

    A state packs, from the low bits up: one sign bit per placed position
    (set when its exponent is nonzero), the exponent of the last placed
    position, and the running exc, des, sgn and maj.  Growing position q
    adds one delta per exponent, looked up by the bits the delta depends
    on: the last exponent (for the descent at q-1 -> q) and the sign bits
    of the earlier positions the excedance tests at q read.  The test of
    a position i holding v (see ``stats.weak_excedance_count``) runs once
    both i and v are placed: at q = i when v < i, at q = v when v > i.
    Letters of distinct values compare in the standard order by value and
    sign alone, so a sign bit stands in for the exponent.
    """
    check_enumerable(r, n, bound)
    ranks = rank_table(r, n, order)
    standard = rank_table(r, n, STANDARD)
    by_sign = (standard[0], standard[min(r - 1, 1)])
    signs = range(min(r, 2))
    last_shift = n
    low = last_shift + (r - 1).bit_length()
    exc_shift = low
    des_shift = exc_shift + n.bit_length()
    sgn_shift = des_shift + n.bit_length()
    maj_shift = sgn_shift + (n * (r - 1)).bit_length()
    last_mask = (1 << low) - (1 << last_shift)

    def transitions(q, u, v, va, b, exponents):
        a = v if v < q else 0
        watched = sorted({a, b} - {0})
        mask = last_mask | sum(1 << (p - 1) for p in watched)
        table = {}
        for last in range(r) if q > 1 else (0,):
            before = ranks[last][u]
            for bits in product(signs, repeat=len(watched)):
                sign = dict(zip(watched, bits))
                context = last << last_shift
                context |= sum(s << (p - 1) for p, s in sign.items())
                row = table[context] = []
                for e in exponents:
                    s = min(e, 1)
                    descent = before > ranks[e][v]
                    exc = 0
                    if v == q:
                        exc = 1 - s
                    if a:
                        exc += by_sign[sign[a]][va] > by_sign[s][v]
                    if b:
                        exc += by_sign[s][v] > by_sign[sign[b]][q]
                    row.append(
                        ((descent * (q - 1)) << maj_shift)
                        + (descent << des_shift)
                        + (e << sgn_shift)
                        + (exc << exc_shift)
                        + ((e - last) << last_shift)
                        + (s << (q - 1))
                    )
        return mask, table

    cache = {}

    def grow(q, values, where, states, exponents):
        v, b = values[q], where[q]
        key = (q, values[q - 1], v, values[v] if v < q else 0, b if b < q else 0)
        found = cache.get(key)
        if found is None:
            found = cache[key] = transitions(*key, exponents)
        mask, table = found
        if q < n:
            return [s + d for s in states for d in table[s & mask]]
        return ((s + d) >> low for s in states for d in table[s & mask])

    packed = Counter(chain.from_iterable(_walk(r, n, derangements_only, 0, grow)))
    tally = Counter()
    field = (1 << n.bit_length()) - 1
    for key, count in packed.items():
        tally[
            Statistics(
                maj=key >> (maj_shift - low),
                des=key >> (des_shift - low) & field,
                sgn=key >> (sgn_shift - low) & ((1 << (maj_shift - sgn_shift)) - 1),
                exc=key & field,
            )
        ] += count
    return tally


def to_text(sigma):
    """Canonical text form: comma-separated letters, 's' or 's^e'."""
    return ",".join(l.text() for l in sigma.letters)


def parse(text, r):
    """Inverse of ``to_text``; needs r to validate exponents."""
    stripped = text.strip()
    if not stripped:
        return make(r, 0, [])
    pairs = []
    for token in stripped.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty letter in {text!r}")
        if "^" in token:
            value_text, _, exp_text = token.partition("^")
            pairs.append((int(exp_text), int(value_text)))
        else:
            pairs.append((0, int(token)))
    return make(r, len(pairs), pairs)
