"""Exact real-root analysis for the excedance polynomial families.

Everything here runs over the rationals: Sturm chains count real roots
in half-open intervals, roots are isolated by bisection into disjoint
rational intervals (rational roots are recognized exactly and deflated
out), and the two verification entry points certify

* ``verify_negative_distinct`` -- all roots real, distinct, negative,
  apart from an explicitly reported zero root of multiplicity <= 1, and
* ``verify_interlacing`` -- the roots of one polynomial strictly
  separate the roots of the next one in the family.

Verdicts are three-valued: a refusal to decide (raised precision limit)
is reported as ``inconclusive`` rather than silently passing.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .polynomials import (
    InexactDivisionError,
    QPoly,
    as_q_polynomial,
    integer_scaled,
    qpoly_gcd,
)

#: isolation intervals are narrowed below this width
DEFAULT_TOLERANCE = Fraction(1, 2**40)

#: halvings allowed while separating two root boxes before giving up
MAX_SEPARATION_DEPTH = 512


class NotSquarefreeError(ArithmeticError):
    """The polynomial has a repeated root, so Sturm counting is off."""


def _sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _variations(signs):
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


class SturmChain:
    """Sturm sequence of a squarefree rational polynomial.

    Construction doubles as a squarefreeness check: the chain bottoms
    out at gcd(p, p'), and a non-constant tail raises
    NotSquarefreeError.
    """

    def __init__(self, poly):
        poly = as_q_polynomial(poly)
        if poly.is_zero():
            raise ValueError("the zero polynomial has no Sturm chain")
        chain = [poly]
        if poly.degree >= 1:
            chain.append(poly.derivative())
            while chain[-1].degree >= 1:
                rem = chain[-2] % chain[-1]
                if rem.is_zero():
                    break
                chain.append(-rem)
            if chain[-1].is_zero() or (
                (chain[-2] % chain[-1]).is_zero() and chain[-1].degree >= 1
            ):
                raise NotSquarefreeError(
                    "repeated root: gcd with the derivative is non-constant"
                )
        self.polynomial = poly
        self.chain = tuple(chain)

    def variations_at(self, x):
        return _variations(_sign(p.evaluate(x)) for p in self.chain)

    def variations_neg_infinity(self):
        return _variations(
            _sign(p.leading) * (-1) ** p.degree for p in self.chain
        )

    def variations_pos_infinity(self):
        return _variations(_sign(p.leading) for p in self.chain)

    def count_roots(self, low, high):
        """Distinct real roots in (low, high]; None means +-infinity.

        A finite ``low`` must not itself be a root (the half-open
        convention breaks there); a root at ``high`` is counted.
        """
        if low is not None and high is not None and low >= high:
            raise ValueError("empty interval: low must be below high")
        if low is None:
            va = self.variations_neg_infinity()
        else:
            if self.polynomial.evaluate(low) == 0:
                raise ValueError("left endpoint is a root; nudge it")
            va = self.variations_at(low)
        vb = (
            self.variations_pos_infinity()
            if high is None
            else self.variations_at(high)
        )
        return va - vb

    def count_real_roots(self):
        return self.count_roots(None, None)


def cauchy_bound(poly):
    """All real roots lie strictly inside (-M, M)."""
    poly = as_q_polynomial(poly)
    if poly.degree < 1:
        raise ValueError("root bound needs degree at least 1")
    lead = abs(poly.leading)
    peak = max(abs(c) for c in poly.coefficients[:-1])
    return 1 + peak / lead


@dataclass(frozen=True)
class RootIsolation:
    """Roots of a squarefree polynomial: exact rationals + tight boxes.

    Every interval (lo, hi] holds exactly one real root, has width at
    most the requested tolerance, and overlaps no other interval and no
    exact root.
    """

    degree: int
    exact_roots: tuple
    intervals: tuple

    @property
    def real_root_count(self):
        return len(self.exact_roots) + len(self.intervals)

    def to_json(self):
        return {
            "degree": self.degree,
            "real_roots": self.real_root_count,
            "exact_roots": [str(x) for x in self.exact_roots],
            "intervals": [[str(a), str(b)] for a, b in self.intervals],
        }


#: skip the divisor search above this coefficient size; bisection still works
_RATIONAL_SEARCH_LIMIT = 10**15


def _divisors(value):
    value = abs(value)
    out = set()
    i = 1
    while i * i <= value:
        if value % i == 0:
            out.add(i)
            out.add(value // i)
        i += 1
    return sorted(out)


def _first_rational_root(work):
    ints = integer_scaled(work)
    if ints[0] == 0:
        return Fraction(0)
    if abs(ints[0]) > _RATIONAL_SEARCH_LIMIT or abs(ints[-1]) > _RATIONAL_SEARCH_LIMIT:
        return None
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            for candidate in (Fraction(num, den), Fraction(-num, den)):
                if work.evaluate(candidate) == 0:
                    return candidate
    return None


def _deflate(work, root):
    """work / (x - root); a remainder means ``root`` was no root."""
    quotient, remainder = divmod(work, QPoly((-root, Fraction(1))))
    if remainder:
        raise InexactDivisionError(f"{root} is not a root of {work}")
    return quotient


def _deflate_rational_roots(work, exact):
    while work.degree >= 1:
        root = _first_rational_root(work)
        if root is None:
            return work
        exact.append(root)
        work = _deflate(work, root)
    return work


def isolate_roots(poly, tolerance=DEFAULT_TOLERANCE):
    """Isolate every real root of a squarefree polynomial exactly.

    Rational roots are found by divisor trial and deflated out first
    (unless the coefficients are enormous); any further rational root a
    split point lands on is deflated the same way, so returned intervals
    never have roots at their endpoints.
    """
    original = as_q_polynomial(poly)
    if original.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    SturmChain(original)  # squarefreeness gate, even for the fast exits
    exact = []
    work = _deflate_rational_roots(original, exact)
    while True:
        if work.degree < 1:
            break
        chain = SturmChain(work)
        bound = cauchy_bound(work)
        low, high = -bound, bound
        while work.evaluate(low) == 0:
            low -= 1
        while work.evaluate(high) == 0:
            high += 1
        found_rational = None
        total = chain.count_roots(low, high)
        pending = [(low, high, total)] if total else []
        boxes = []
        while pending and found_rational is None:
            a, b, count = pending.pop()
            if count == 1 and b - a <= tolerance:
                boxes.append((a, b))
                continue
            mid = (a + b) / 2
            if work.evaluate(mid) == 0:
                found_rational = mid
                break
            left = chain.count_roots(a, mid)
            if left:
                pending.append((a, mid, left))
            if count - left:
                pending.append((mid, b, count - left))
        if found_rational is None:
            intervals = tuple(sorted(boxes))
            return RootIsolation(original.degree, tuple(sorted(exact)), intervals)
        exact.append(found_rational)
        work = _deflate(work, found_rational)
    return RootIsolation(original.degree, tuple(sorted(exact)), ())


class _RootBox:
    """One real root, either pinned exactly or trapped in (lo, hi]."""

    __slots__ = ("lo", "hi", "poly", "owner")

    def __init__(self, lo, hi, poly, owner):
        self.lo = lo
        self.hi = hi
        self.poly = poly
        self.owner = owner

    @property
    def exact(self):
        return self.lo == self.hi

    def refine(self):
        """Halve the box; a single sign change pins the root."""
        if self.exact:
            return
        mid = (self.lo + self.hi) / 2
        value = self.poly.evaluate(mid)
        if value == 0:
            self.lo = self.hi = mid
        elif _sign(value) == _sign(self.poly.evaluate(self.hi)):
            self.hi = mid
        else:
            self.lo = mid


def _boxes(poly, isolation, owner):
    out = [_RootBox(x, x, poly, owner) for x in isolation.exact_roots]
    out.extend(_RootBox(a, b, poly, owner) for a, b in isolation.intervals)
    return out


def _separate(boxes, max_depth=MAX_SEPARATION_DEPTH):
    """Refine boxes until strictly ordered; None on depth exhaustion."""
    boxes = sorted(boxes, key=lambda box: (box.lo, box.hi))
    for _ in range(max_depth):
        boxes.sort(key=lambda box: (box.lo, box.hi))
        clash = None
        for left, right in zip(boxes, boxes[1:]):
            if left.hi >= right.lo:
                clash = (left, right)
                break
        if clash is None:
            return boxes
        if clash[0].exact and clash[1].exact:
            return None  # two equal exact roots: genuinely shared
        clash[0].refine()
        clash[1].refine()
    return None


# -- verification reports -------------------------------------------------------


@dataclass(frozen=True)
class NegativityReport:
    """Outcome of the all-roots-real-negative-distinct check."""

    passed: bool
    detail: str
    degree: int = 0
    zero_multiplicity: int = 0
    negative_roots: int = 0

    def to_json(self):
        return {
            "passed": self.passed,
            "detail": self.detail,
            "degree": self.degree,
            "zero_root_multiplicity": self.zero_multiplicity,
            "negative_roots": self.negative_roots,
        }


def _zero_multiplicity(poly):
    k = 0
    while k <= poly.degree and poly.coefficient(k) == 0:
        k += 1
    return k


def verify_negative_distinct(poly, allow_zero_root=True):
    """Certify: roots all real, pairwise distinct, and negative.

    A single root at zero is tolerated (and reported) when
    ``allow_zero_root`` is set: the derangement excedance polynomials
    pick one up whenever the cyclic group is trivial.
    """
    p = as_q_polynomial(poly)
    if p.is_zero():
        return NegativityReport(False, "zero polynomial", degree=-1)
    k = _zero_multiplicity(p)
    if k:
        p = p.shift_down(k)
    limit = 1 if allow_zero_root else 0
    if k > limit:
        return NegativityReport(
            False,
            f"root at zero has multiplicity {k}",
            degree=p.degree + k,
            zero_multiplicity=k,
        )
    if p.degree == 0:
        return NegativityReport(
            True, "no roots besides the reported zero root", degree=k,
            zero_multiplicity=k,
        )
    try:
        chain = SturmChain(p)
    except NotSquarefreeError:
        return NegativityReport(
            False, "repeated root detected", degree=p.degree + k,
            zero_multiplicity=k,
        )
    negative = chain.count_roots(None, Fraction(0))
    passed = negative == p.degree
    detail = (
        f"{negative} negative distinct roots out of degree {p.degree}"
        + (f" plus a simple zero root" if k else "")
    )
    return NegativityReport(
        passed, detail, degree=p.degree + k, zero_multiplicity=k,
        negative_roots=negative,
    )


@dataclass(frozen=True)
class InterlacingReport:
    """Outcome of the strict-separation check for consecutive members."""

    verdict: str  # "pass" | "fail" | "inconclusive"
    detail: str
    pattern: str = ""

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_json(self):
        return {
            "verdict": self.verdict,
            "detail": self.detail,
            "pattern": self.pattern,
        }


def verify_interlacing(smaller, larger, tolerance=DEFAULT_TOLERANCE):
    """Certify that the roots of ``smaller`` interlace those of ``larger``.

    ``larger`` must have degree exactly one above ``smaller``.  Shared
    zero roots of equal (single) multiplicity are split off first and do
    not spoil strictness; the remaining negative roots must alternate
    L s L s ... L when read in increasing order (L from ``larger``).
    """
    ps = as_q_polynomial(smaller)
    pl = as_q_polynomial(larger)
    if ps.is_zero() or pl.is_zero():
        return InterlacingReport("fail", "zero polynomial")
    if pl.degree != ps.degree + 1:
        return InterlacingReport(
            "fail",
            f"degree step is {pl.degree - ps.degree}, expected 1",
        )
    ks, kl = _zero_multiplicity(ps), _zero_multiplicity(pl)
    if ks != kl or ks > 1:
        return InterlacingReport(
            "fail",
            f"zero-root multiplicities {ks} and {kl} do not match as simple roots",
        )
    ps, pl = ps.shift_down(ks), pl.shift_down(kl)
    for name, p in (("smaller", ps), ("larger", pl)):
        report = verify_negative_distinct(p, allow_zero_root=False)
        if not report.passed:
            return InterlacingReport(
                "fail", f"{name} polynomial: {report.detail}"
            )
    if ps.degree >= 1 and pl.degree >= 1 and qpoly_gcd(ps, pl).degree >= 1:
        return InterlacingReport("fail", "polynomials share a root")
    if ps.degree == 0:
        return InterlacingReport("pass", "nothing to separate", pattern="L")
    boxes = _boxes(ps, isolate_roots(ps, tolerance), "s") + _boxes(
        pl, isolate_roots(pl, tolerance), "L"
    )
    ordered = _separate(boxes)
    if ordered is None:
        return InterlacingReport(
            "inconclusive",
            "could not separate root boxes within the precision limit",
        )
    pattern = "".join(box.owner for box in ordered)
    expected = "L" + "sL" * ps.degree
    if pattern == expected:
        return InterlacingReport("pass", "roots alternate strictly", pattern=pattern)
    return InterlacingReport(
        "fail", f"root pattern {pattern} is not alternating", pattern=pattern
    )


# -- coefficient-shape checks -----------------------------------------------------


def _trimmed(coefficients):
    cs = list(coefficients)
    while cs and cs[0] == 0:
        cs.pop(0)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def is_log_concave(coefficients):
    """c_k^2 >= c_{k-1} c_{k+1} with contiguous positive support."""
    cs = _trimmed(coefficients)
    if not cs:
        return True
    if any(c <= 0 for c in cs):
        return False
    return all(
        cs[k] * cs[k] >= cs[k - 1] * cs[k + 1] for k in range(1, len(cs) - 1)
    )


def is_unimodal(coefficients):
    """Rises (weakly) to a peak, then falls (weakly)."""
    cs = _trimmed(coefficients)
    rising = True
    for prev, cur in zip(cs, cs[1:]):
        if rising and cur < prev:
            rising = False
        elif not rising and cur > prev:
            return False
    return True


def roots_report(poly, tolerance=DEFAULT_TOLERANCE):
    """Full JSON-ready root analysis of one polynomial."""
    p = as_q_polynomial(poly)
    negativity = verify_negative_distinct(p)
    k = _zero_multiplicity(p) if not p.is_zero() else 0
    reduced = p.shift_down(k) if k else p
    body = {"degree": p.degree, "zero_root_multiplicity": k}
    if reduced.degree >= 1:
        try:
            isolation = isolate_roots(reduced, tolerance)
        except NotSquarefreeError:
            isolation = None
        if isolation is not None:
            body.update(isolation.to_json())
            body["degree"] = p.degree  # report the undeflated degree
    coeffs = [int(c) if c.denominator == 1 else str(c) for c in p.coefficients]
    body["coefficients"] = coeffs
    body["negative_distinct"] = negativity.to_json()
    body["log_concave"] = is_log_concave(p.coefficients)
    body["unimodal"] = is_unimodal(p.coefficients)
    return body
