"""Exact real-root analysis for the excedance polynomial families.

A polynomial comes in as a t-free ``BivariatePolynomial`` and is worked
on as its ascending integer coefficient list.  Sturm chains are
primitive pseudo-remainder sequences: every member is a primitive
integer polynomial and a positive multiple of the classical member, so
it has the classical signs.  The sign at a rational x = u/w (w > 0) is
the sign of the homogenized value sum c_j u^j w^(d-j), found by integer
Horner.  Sturm chains count real roots in half-open intervals, roots are
isolated by bisection into exact rational roots and disjoint rational
intervals (``isolate_roots`` returns that pair), and the two
verification entry points, whose reports are plain dicts with the keys
``roots --format json`` prints, certify

* ``verify_negative_distinct`` -- all roots real, distinct, negative,
  apart from an explicitly reported zero root of multiplicity <= 1, and
* ``verify_interlacing`` -- the roots of one polynomial strictly
  separate the roots of the next one in the family.

Sturm counts split intervals holding several roots; one holding a
single root keeps the half where the polynomial changes sign.  Rational
roots are recognized exactly by one rule at every coefficient size: a
rational root of a primitive polynomial is a multiple of 1/L, L its
leading coefficient, so a one-root interval narrower than 1/L has one
candidate, which is tested by its exact sign and deflated out.  Both
verdicts are exact ("pass" or "fail"): interlacing is read from the
larger polynomial's Sturm counts between the smaller one's root boxes.
"""

from fractions import Fraction
from math import floor, gcd

from .polynomials import BivariatePolynomial, InexactDivisionError

#: isolation intervals are narrowed below this width
DEFAULT_TOLERANCE = Fraction(1, 2**40)


class NotSquarefreeError(ArithmeticError):
    """The polynomial has a repeated root, so Sturm counting is off."""


def _coefficients(poly):
    """Ascending integer coefficients of a t-free BivariatePolynomial."""
    if not isinstance(poly, BivariatePolynomial):
        raise TypeError(f"expected a BivariatePolynomial, got {type(poly).__name__}")
    return poly.q_coefficient_list()


def _sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _sign_at(coeffs, x):
    """Sign of the polynomial at the rational x, by homogenized integer Horner."""
    if not coeffs:
        return 0
    u, w = x.numerator, x.denominator
    value, power = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        power *= w
        value = value * u + c * power
    return _sign(value)


def _primitive(coeffs):
    """The coefficients divided by the gcd of their magnitudes."""
    content = gcd(*coeffs)
    return [c // content for c in coeffs] if content > 1 else coeffs


def _remainder(a, b):
    """A primitive positive multiple of a mod b, trimmed; [] if b divides a.

    Pseudo-division that scales by |lc(b)| and subtracts with the sign of
    lc(b), so the multiple stays positive whatever that sign and the
    degree gap are.
    """
    rem = list(a)
    db = len(b) - 1
    scale, sign = abs(b[-1]), _sign(b[-1])
    for i in range(len(rem) - 1, db - 1, -1):
        c = sign * rem.pop()
        if c:
            if scale != 1:
                rem = [scale * x for x in rem]
            for j, y in enumerate(b[:-1], i - db):
                rem[j] -= c * y
    while rem and not rem[-1]:
        rem.pop()
    return _primitive(rem)


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
    """Sturm sequence of a squarefree polynomial, as integer coefficient lists.

    Construction doubles as a squarefreeness check: the chain bottoms
    out at gcd(p, p'), and a non-constant tail raises
    NotSquarefreeError.
    """

    def __init__(self, poly):
        p = _coefficients(poly)
        if not p:
            raise ValueError("the zero polynomial has no Sturm chain")
        chain = [_primitive(p)]
        if len(p) > 1:
            chain.append(_primitive([k * c for k, c in enumerate(p)][1:]))
            while len(chain[-1]) > 1:
                rem = _remainder(chain[-2], chain[-1])
                if not rem:
                    break
                chain.append([-c for c in rem])
            if len(chain[-1]) > 1:
                raise NotSquarefreeError(
                    "repeated root: gcd with the derivative is non-constant"
                )
        self.chain = tuple(chain)

    def variations_at(self, x):
        return _variations(_sign_at(p, x) for p in self.chain)

    def variations_neg_infinity(self):
        return _variations(_sign(p[-1]) * (-1) ** (len(p) - 1) for p in self.chain)

    def variations_pos_infinity(self):
        return _variations(_sign(p[-1]) for p in self.chain)

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
            if _sign_at(self.chain[0], low) == 0:
                raise ValueError("left endpoint is a root; nudge it")
            va = self.variations_at(low)
        vb = (
            self.variations_pos_infinity()
            if high is None
            else self.variations_at(high)
        )
        return va - vb


def _cauchy_bound(coeffs):
    """All real roots lie strictly inside (-M, M)."""
    return 1 + Fraction(max(map(abs, coeffs[:-1])), abs(coeffs[-1]))


def _deflate(work, root):
    """work / (x - root); a remainder means ``root`` was no root.

    By Gauss's lemma the quotient of an integer polynomial by x - p/q is
    q times an integer polynomial, so every synthetic-division step is
    an exact integer division when ``root`` is a root.
    """
    p, q = root.numerator, root.denominator
    out = []
    carry = residue = 0
    for c in reversed(work):
        step, residue = divmod(p * carry, q)
        if residue:
            break
        carry = c + step
        out.append(carry)
    if residue or carry:
        raise InexactDivisionError(f"{root} is not a root of {work}")
    return out[-2::-1]


def _halve(work, lo, hi, sign_hi):
    """The half of (lo, hi] holding its root, with the sign of ``work`` at its end.

    ``sign_hi`` is that sign at ``hi``; (mid, mid, 0) if mid is the root.
    """
    mid = (lo + hi) / 2
    sign = _sign_at(work, mid)
    if sign == 0:
        return mid, mid, 0
    if sign == sign_hi:
        return lo, mid, sign
    return mid, hi, sign_hi


def _isolate(work, tolerance):
    """Exact roots, boxes (lo, hi, sign at hi), and ``work`` deflated.

    Each pass bisects ``work`` and deflates the rational roots it finds
    before the next; the pass that finds none gives the boxes.  A root
    p/q of the primitive ``work`` has q | L, its leading coefficient, so
    it is a multiple of 1/L, and a one-root box (lo, hi] narrower than
    1/L holds no rational root but floor(L hi) / L.
    """
    exact = []
    while len(work) > 1:
        chain = SturmChain(BivariatePolynomial.from_q_coefficients(work))
        lead = abs(chain.chain[0][-1])
        bound = _cauchy_bound(work)
        # (a, b, sign at b, roots in (a, b], Sturm variations at a); the
        # bound is strict, so neither end is a root
        variations = chain.variations_at(-bound)
        total = variations - chain.variations_at(bound)
        pending = []
        if total:
            pending.append((-bound, bound, _sign_at(work, bound), total, variations))
        boxes, found = [], []
        while pending:
            a, b, sign_b, count, variations = pending.pop()
            if count == 1:
                while b - a > tolerance:
                    a, b, sign_b = _halve(work, a, b, sign_b)
                box = a, b, sign_b
                while (b - a) * lead >= 1:  # only the rational test needs these
                    a, b, sign_b = _halve(work, a, b, sign_b)
                # a candidate left of the box may be another box's root
                root = Fraction(floor(b * lead), lead)
                if a <= root and _sign_at(work, root) == 0:
                    found.append(root)
                else:
                    boxes.append(box)
                continue
            mid = (a + b) / 2
            sign = _sign_at(work, mid)
            if sign == 0:
                found.append(mid)
                break
            at_mid = chain.variations_at(mid)
            left = variations - at_mid
            if left:
                pending.append((a, mid, sign, left, variations))
            if count - left:
                pending.append((mid, b, sign_b, count - left, at_mid))
        if not found:
            return sorted(exact), sorted(boxes), work
        for root in found:
            exact.append(root)
            work = _deflate(work, root)
    return sorted(exact), [], work


def isolate_roots(poly, tolerance=DEFAULT_TOLERANCE):
    """(exact_roots, intervals) of a squarefree polynomial, both sorted tuples.

    ``exact_roots`` holds every rational root as a ``Fraction``.  Every
    interval (lo, hi] holds exactly one real root, an irrational one, has
    width at most ``tolerance``, and overlaps no other interval; an exact
    root deflated out before the last bisection may lie in one.

    Bisection splits intervals holding several roots by Sturm counts and
    ``_halve`` narrows one holding a single root.  Every rational root is
    recognized, at whatever coefficient size, from a split point it lands
    on or from its box once that is narrower than 1/L (L the leading
    coefficient of the primitive polynomial), and deflated out.  The
    boxes come from a last pass over the deflated polynomial, so they
    hold the irrational roots and never have roots at their endpoints.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    original = _coefficients(poly)
    if not original:
        raise ValueError("cannot isolate roots of the zero polynomial")
    exact, boxes, _ = _isolate(original, tolerance)
    return tuple(exact), tuple((lo, hi) for lo, hi, _ in boxes)


# -- verification reports -------------------------------------------------------


def _zero_multiplicity(coeffs):
    return next((k for k, c in enumerate(coeffs) if c), 0)


def _shift_down(coeffs, k):
    """The polynomial divided by q^k, as a BivariatePolynomial."""
    return BivariatePolynomial.from_q_coefficients(coeffs[k:])


def verify_negative_distinct(poly, allow_zero_root=True):
    """Certify: roots all real, pairwise distinct, and negative.

    A single root at zero is tolerated (and reported) when
    ``allow_zero_root`` is set: the derangement excedance polynomials
    pick one up whenever the cyclic group is trivial.  The report is a
    dict: passed, detail, degree (-1 for the zero polynomial),
    zero_root_multiplicity and negative_roots.
    """
    p = _coefficients(poly)
    degree, k = len(p) - 1, _zero_multiplicity(p)
    report = {
        "passed": False,
        "detail": "zero polynomial",
        "degree": degree,
        "zero_root_multiplicity": k,
        "negative_roots": 0,
    }
    if not p:
        return report
    if k > (1 if allow_zero_root else 0):
        report["detail"] = f"root at zero has multiplicity {k}"
    elif degree == k:
        report.update(passed=True, detail="no roots besides the reported zero root")
    else:
        try:
            chain = SturmChain(_shift_down(p, k))
        except NotSquarefreeError:
            report["detail"] = "repeated root detected"
        else:
            negative = chain.count_roots(None, Fraction(0))
            report.update(
                passed=negative == degree - k,
                detail=f"{negative} negative distinct roots out of degree {degree - k}"
                + (" plus a simple zero root" if k else ""),
                negative_roots=negative,
            )
    return report


def _interlacing(verdict, detail, pattern=""):
    """The interlacing report; ``verdict`` is "pass" or "fail", never undecided."""
    return {"verdict": verdict, "detail": detail, "pattern": pattern}


def _share_a_root(a, b):
    """Whether gcd(a, b) is non-constant, by the primitive remainder sequence."""
    while b:
        a, b = b, _remainder(a, b)
    return len(a) > 1


def verify_interlacing(smaller, larger):
    """Certify that the roots of ``smaller`` interlace those of ``larger``.

    ``larger`` must have degree exactly one above ``smaller``.  Shared
    zero roots of equal (single) multiplicity are split off first and do
    not spoil strictness; the remaining negative roots must alternate
    L s L s ... L when read in increasing order (L from ``larger``).

    Only ``smaller`` is isolated; a box that holds or starts at a root
    of ``larger`` is halved by the sign rule until it does not (it ends:
    the two share no root).  Sturm counts of ``larger`` before, between
    and after the halved boxes, taken in order with the exact roots as
    point boxes, give the pattern "L" * c0 + "s" + "L" * c1 ...
    """
    ps, pl = _coefficients(smaller), _coefficients(larger)
    if not ps or not pl:
        return _interlacing("fail", "zero polynomial")
    if len(pl) != len(ps) + 1:
        return _interlacing("fail", f"degree step is {len(pl) - len(ps)}, expected 1")
    ks, kl = _zero_multiplicity(ps), _zero_multiplicity(pl)
    if ks != kl or ks > 1:
        return _interlacing(
            "fail",
            f"zero-root multiplicities {ks} and {kl} do not match as simple roots",
        )
    smaller, larger = _shift_down(ps, ks), _shift_down(pl, kl)
    ps, pl = ps[ks:], pl[kl:]
    for name, p in (("smaller", smaller), ("larger", larger)):
        report = verify_negative_distinct(p, allow_zero_root=False)
        if not report["passed"]:
            return _interlacing("fail", f"{name} polynomial: {report['detail']}")
    if _share_a_root(ps, pl):
        return _interlacing("fail", "polynomials share a root")
    if len(ps) == 1:
        return _interlacing("pass", "nothing to separate", pattern="L")
    exact, boxes, work = _isolate(ps, DEFAULT_TOLERANCE)
    chain = SturmChain(larger)
    separated = [(x, x) for x in exact]  # an exact root may lie in a box
    for lo, hi, sign_hi in boxes:
        while lo < hi and (_sign_at(pl, lo) == 0 or chain.count_roots(lo, hi)):
            lo, hi, sign_hi = _halve(work, lo, hi, sign_hi)
        separated.append((lo, hi))
    # no root of larger lies in a box, nor between boxes that touch or overlap
    counts, prev = [], None
    for lo, hi in sorted(separated):
        empty = prev is not None and prev >= lo
        counts.append(0 if empty else chain.count_roots(prev, lo))
        prev = hi if prev is None else max(prev, hi)
    counts.append(chain.count_roots(prev, None))
    pattern = "s".join("L" * c for c in counts)
    expected = "L" + "sL" * (len(ps) - 1)
    if pattern == expected:
        return _interlacing("pass", "roots alternate strictly", pattern=pattern)
    return _interlacing(
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


def roots_report(poly):
    """Full JSON-ready root analysis of one polynomial."""
    coeffs = _coefficients(poly)
    k = _zero_multiplicity(coeffs)
    body = {"degree": len(coeffs) - 1}  # the undeflated degree
    if len(coeffs) - k > 1:
        try:
            exact, intervals = isolate_roots(_shift_down(coeffs, k))
        except NotSquarefreeError:
            pass
        else:
            body["real_roots"] = len(exact) + len(intervals)
            body["exact_roots"] = [str(x) for x in exact]
            body["intervals"] = [[str(lo), str(hi)] for lo, hi in intervals]
    body["zero_root_multiplicity"] = k
    body["coefficients"] = coeffs
    body["negative_distinct"] = verify_negative_distinct(poly)
    body["log_concave"] = is_log_concave(coeffs)
    body["unimodal"] = is_unimodal(coeffs)
    return body
