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

Statistics built on these orders live in ``stats``.
"""

import math
import os
from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product
from operator import eq
from typing import Iterator, NamedTuple

ENUMERATION_BOUND_ENV = "CYCLIC_DERANGEMENTS_BOUND"
DEFAULT_ENUMERATION_BOUND = 10_000_000


def default_enumeration_bound():
    """Default cardinality cap, overridable via the environment."""
    raw = os.environ.get(ENUMERATION_BOUND_ENV)
    if raw is None:
        return DEFAULT_ENUMERATION_BOUND
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{ENUMERATION_BOUND_ENV} must be an integer, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValueError(f"{ENUMERATION_BOUND_ENV} must be positive")
    return value


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
    bound; the default comes from the environment or 10^7.
    """
    yield from _enumerate(r, n, bound, derangements_only=False)


def enumerate_derangements(r, n, bound=None) -> Iterator[CyclicPermutation]:
    """Fixed-point-free elements, in enumeration order of the full group."""
    yield from _enumerate(r, n, bound, derangements_only=True)


def _enumerate(r, n, bound, derangements_only):
    """The one enumeration loop; the derangement filter is set per value word."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if bound is None:
        bound = default_enumeration_bound()
    cardinality = group_order(r, n)
    if cardinality > bound:
        raise EnumerationBoundError(r, n, cardinality, bound)
    # every value word runs through the same exponent words; keep them when small
    cached = list(product(range(r), repeat=n)) if r**n <= 1_000_000 else None
    positions, any_exponent, nonzero = range(1, n + 1), range(r), range(1, r)
    for values in permutations(positions):
        if derangements_only and any(map(eq, values, positions)):
            # a position holding its own value needs a nonzero exponent
            words = product(
                *[nonzero if v == i else any_exponent for i, v in zip(positions, values)]
            )
        else:
            words = cached or product(range(r), repeat=n)
        for exps in words:
            yield CyclicPermutation(r, tuple(map(SignedLetter, exps, values)))


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
