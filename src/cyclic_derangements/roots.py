"""Exact real-root analysis for the excedance polynomial families.

A polynomial comes in as a t-free ``BivariatePolynomial`` and is worked
on as its ascending integer coefficient list.  Sturm chains are
primitive pseudo-remainder sequences: every member is a primitive
integer polynomial and a positive multiple of the classical member, so
it has the classical signs.  Every sign comes from one helper: at a
rational x = u/w (w > 0) it is the sign of the homogenized value
sum c_j u^j w^(d-j), found by integer Horner.  Sturm chains count real
roots in half-open intervals, roots are isolated by bisection into
exact rational roots and disjoint rational intervals (``isolate_roots``
returns that pair), and the two verification entry points, whose
reports are plain dicts with the keys ``roots --format json`` prints,
certify

* ``verify_negative_distinct`` -- all roots real, distinct, negative,
  apart from an explicitly reported zero root of multiplicity <= 1, and
* ``verify_interlacing`` -- the roots of one polynomial strictly
  separate the roots of the next one in the family.

Bisection works on integer cells of the dyadic grid on (-B, B], B the
Cauchy bound, and makes ``Fraction`` ends only for what it reports.
One Sturm-count bisection splits cells until each holds one root of one
of its chains; a box then keeps the half where its polynomial changes
sign.  A rational root of a primitive polynomial is a multiple of 1/L,
L its leading coefficient, so a one-root cell narrower than 1/L has one
candidate, tested by its exact sign and deflated out before any cell is
narrowed to the tolerance; the rule holds at every coefficient size.
Both verdicts are exact ("pass" or "fail"): interlacing is the order of
the one-root cells of the bisection over both polynomials' chains.
"""

from fractions import Fraction
from math import gcd

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
    return (x > 0) - (x < 0)


def _sign_at(coeffs, u, w):
    """Sign of the polynomial at x = u / w (w > 0), by homogenized integer Horner."""
    if not coeffs:
        return 0
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


def _variations_at(chain, u, w):
    """Sign variations of the chain at x = u / w (w > 0)."""
    return _variations(_sign_at(p, u, w) for p in chain)


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
        return _variations_at(self.chain, x.numerator, x.denominator)

    def count_roots(self, low, high):
        """Distinct real roots in (low, high]; None means +-infinity.

        The count is exact at either end: a root at ``high`` is counted
        and one at ``low`` is not, since at a simple root the vanishing
        first member drops out and the variations equal those just right
        of it.
        """
        if low is not None and high is not None and low >= high:
            raise ValueError("empty interval: low must be below high")
        if low is None:
            va = _variations(_sign(p[-1]) * (-1) ** (len(p) - 1) for p in self.chain)
        else:
            va = self.variations_at(low)
        if high is None:
            vb = _variations(_sign(p[-1]) for p in self.chain)
        else:
            vb = self.variations_at(high)
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


def _bisect(work, cell):
    """The half of a one-root cell that holds its root.

    A cell (a, b, w, s) is the interval (a/w, b/w], w > 0, with s the sign
    of ``work`` at b/w.  Its halves are (2a, a + b, 2w) and (a + b, 2b, 2w),
    or the point (a + b, a + b, 2w, 0) if the midpoint is the root.
    """
    a, b, w, sign_b = cell
    m, w = a + b, 2 * w
    sign = _sign_at(work, m, w)
    if sign == 0:
        return m, m, w, 0
    if sign == sign_b:
        return 2 * a, m, w, sign
    return m, 2 * b, w, sign_b


def _narrow(work, cell, fine):
    """Bisect a one-root cell until its denominator reaches ``fine`` or it is a point."""
    while cell[2] < fine and cell[0] < cell[1]:
        cell = _bisect(work, cell)
    return cell


def _box(cell):
    """A cell as (lo, hi, sign at hi) with ``Fraction`` ends."""
    a, b, w, sign_b = cell
    return Fraction(a, w), Fraction(b, w), sign_b


def _cells(chains, bn, bd):
    """One-root cells of the bisection of (-B, B], B = bn / bd, in increasing order.

    A cell (a, b, w) at depth k is (a/w, b/w] with w = bd 2^k and
    b - a = 2 bn, carried with every chain's Sturm variations at both
    ends.  One holding exactly one root of one chain i is yielded as
    (i, (a, b, w)); one holding more is halved, so the chains must share
    no root.  No split point needs a sign test: a half-open Sturm count
    is exact even when an end is a root.
    """

    def variations(u, w):
        return [_variations_at(chain, u, w) for chain in chains]

    pending = [(-bn, bn, bd, variations(-bn, bd), variations(bn, bd))]
    while pending:
        a, b, w, left, right = pending.pop()
        counts = [va - vb for va, vb in zip(left, right)]
        if sum(counts) == 1:
            yield counts.index(1), (a, b, w)
        elif sum(counts):
            m, w = a + b, 2 * w
            mid = variations(m, w)
            pending.append((m, 2 * b, w, mid, right))
            pending.append((2 * a, m, w, left, mid))


def _isolate(work, tolerance):
    """Exact roots, boxes (lo, hi, sign at hi), and ``work`` deflated.

    A pass takes the one-root cells of ``work`` from ``_cells`` on the
    grid of its Cauchy bound B = bn / bd, so width tests compare w with
    integers.  A root p/q of
    the primitive ``work`` has q | L, its leading coefficient, so a
    one-root cell (a, b] narrower than 1/L holds no rational root but
    floor(L b) / L.  A pass narrows one-root cells that far, tests those
    candidates and deflates the roots found before the next pass; only a
    pass that finds none narrows its boxes to the tolerance.
    """
    tolerance = Fraction(tolerance)
    exact = []
    while len(work) > 1:
        chain = SturmChain(BivariatePolynomial.from_q_coefficients(work)).chain
        lead = abs(chain[0][-1])
        bound = _cauchy_bound(work)
        bn, bd = bound.numerator, bound.denominator
        # cells are no wider than the tolerance from w = fine on, and
        # narrower than 1/L from w = coarse on
        fine = coarse = bd
        while fine * tolerance.numerator < 2 * bn * tolerance.denominator:
            fine *= 2
        while coarse <= 2 * bn * lead:
            coarse *= 2
        boxes, found = [], []
        for _, (a, b, w) in _cells([chain], bn, bd):
            box = _narrow(work, (a, b, w, _sign_at(work, b, w)), min(fine, coarse))
            a, b, w, _ = _narrow(work, box, coarse)
            p = b * lead // w
            # a candidate at or left of the open end may be another cell's root
            if (a == b or a * lead < p * w) and _sign_at(work, p, lead) == 0:
                found.append(Fraction(p, lead))
            else:
                boxes.append(box)
        if not found:
            return sorted(exact), sorted(_box(_narrow(work, box, fine)) for box in boxes), work
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

    Every rational root is recognized, at whatever coefficient size, as
    ``_isolate`` says, and deflated out.  The boxes come from a last pass
    over the deflated polynomial, so they hold the irrational roots and
    never have roots at their endpoints.
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

    The pattern is read off ``_cells`` over the Sturm chains of both
    polynomials, on the grid of the larger Cauchy bound: its one-root
    cells, in increasing order, tagged "s" or "L".  The bisection ends
    because the two share no root, which is checked first.
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
    chains = [SturmChain(smaller).chain, SturmChain(larger).chain]
    bound = max(_cauchy_bound(ps), _cauchy_bound(pl))
    pattern = "".join("sL"[i] for i, _ in _cells(chains, bound.numerator, bound.denominator))
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
