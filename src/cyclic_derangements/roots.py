"""Exact real-root analysis for the excedance polynomial families.

A polynomial comes in as a t-free ``BivariatePolynomial`` and is worked
on as its ascending integer coefficient list.  Sturm chains are
primitive pseudo-remainder sequences: every member is a primitive
integer polynomial and a positive multiple of the classical member, so
it has the classical signs.  Every sign comes from one helper: at a
rational x = u/w (w > 0) it is the sign of the homogenized value
sum c_j u^j w^(d-j), found by integer Horner.  Roots are isolated by
bisection into exact rational roots and disjoint rational intervals
(``isolate_roots`` returns that pair), and the two verification entry
points, whose reports are plain dicts with the keys ``roots --format
json`` prints, certify

* ``verify_negative_distinct`` -- all roots real, distinct, negative,
  apart from an explicitly reported zero root of multiplicity <= 1, and
* ``verify_interlacing`` -- the roots of one polynomial strictly
  separate the roots of the next one in the family.

Bisection works on integer cells of a dyadic grid on (-B, B] and makes
``Fraction`` ends only for what it reports.  One bisection, ``_cells``,
splits cells until each holds one root of one polynomial, counting the
roots in a cell from ranks at its ends.  Each such cell is narrowed
once, to be no wider than the tolerance and narrower than 1/L, L the
leading coefficient; a box is read off as an ancestor of that cell.  A
rational root of a primitive polynomial is a multiple of 1/L, so the
narrowed cell has one candidate, tested by its exact sign and deflated
out before a pass returns boxes; the rule holds at every coefficient
size.

Isolation and the two certificates reach their verdicts by separate
routes.  Isolation bisects the grid of the Cauchy bound under a
sign-alternation certificate: Laguerre approximations of all roots, in
floats or in ``decimal``, put points between the roots, and exact signs
at those points prove the roots real and simple, one to a gap.  Each
approximation first jumps to a deep grid cell inside its gap, checked
by the signs at its ends; those cells are the narrowed cells, and they
give every rank of the bisection with no sign.  Floats are never
trusted: where the approximations fail or do not certify, or a jump
fails, isolation takes its ranks from Sturm counts and narrows by
bisection instead, with the same cells.  Negativity is a Sturm count,
and interlacing the order of the one-root cells of ``_cells`` over both
polynomials' Sturm chains, on the grid of a power-of-two Fujiwara
bound.  Both verdicts are exact ("pass" or "fail").
"""

from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, inf, sqrt

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
        x = Fraction(x)  # exact for int, float and Fraction ends
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


def _below(c, lead, shift):
    """Whether c < lead * 2^shift, for integers c, lead >= 0."""
    return c < lead << shift if shift >= 0 else c << -shift < lead


def _fujiwara_bound(coeffs):
    """A power of two 2^k strictly above the magnitude of every root.

    Fujiwara's bound: every root has |z| <= 2 max_j |c_(d-j) / c_d|^(1/j),
    the j = d term taken with c_0 / 2.  So 2^k is strictly above it once
    |c_(d-j)| < |c_d| 2^((k-1) j) for every j (times 2 at j = d); the
    least such k is found per term from bit lengths, then by exact tests.
    """
    lead, d = abs(coeffs[-1]), len(coeffs) - 1
    e = -1
    for j in range(1, d + 1):
        c, extra = abs(coeffs[d - j]), int(j == d)
        if c:
            # c < 2^bits(c) <= lead 2^(e j + extra) holds from this e on
            ej = -((lead.bit_length() - 1 + extra - c.bit_length()) // j)
            while _below(c, lead, (ej - 1) * j + extra):
                ej -= 1
            e = max(e, ej)
    return Fraction(2) ** (e + 1)


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


def _narrow(work, cell, fine):
    """Bisect a one-root cell until its denominator reaches ``fine`` or it is a point.

    A cell (a, b, w) is the interval (a/w, b/w], w > 0.  Its halves are
    (2a, a + b, 2w) and (a + b, 2b, 2w), or the point (a + b, a + b, 2w)
    if the midpoint is the root.  The half kept holds the root, so its
    right end keeps the sign of ``work`` at b/w, taken once.
    """
    a, b, w = cell
    sign_b = _sign_at(work, b, w)
    while w < fine:
        m, w = a + b, 2 * w
        sign = _sign_at(work, m, w)
        if sign == 0:
            return m, m, w
        a, b = (2 * a, m) if sign == sign_b else (m, 2 * b)
    return a, b, w


def _newton(work, x, fine):
    """One exact Newton step from x, rounded down to a multiple of 1 / (4 fine).

    With x = u / v, Horner gives v^m p(x) and v^(m-1) p'(x) as integers.
    None where p' vanishes.
    """
    u, v = x.numerator, x.denominator
    value, slope, power = work[-1], 0, 1
    for c in reversed(work[:-1]):
        power *= v
        slope = slope * u + value
        value = value * u + c * power
    if not slope:
        return None
    return Fraction((u * slope - value) * 4 * fine // (v * slope), 4 * fine)


def _jump(work, gap, bn, bd, fine, x):
    """The grid cell (lo, hi, w) that holds the one root in ``gap``, found from x; or None.

    ``gap`` is ((cu, cw), (du, dw)), the open interval (cu/cw, du/dw)
    between two certificate points, which holds one root of ``work`` and
    no other.  From w = ``fine`` the denominator doubles until the cell
    of the grid on (-B, B], B = bn / bd, that holds x lies inside the
    gap: integer comparisons, no sign.  That cell holds the root when
    ``work`` vanishes at its right end or changes sign across it.  On a
    miss x is refined by an exact Newton step and the jump tried again,
    twice; None if x leaves the gap or the last try misses.
    """
    (cu, cw), (du, dw) = gap
    for _ in range(3):
        u, v = x.numerator, x.denominator
        if not cu * v < u * cw or not u * dw < du * v:
            return None
        w = fine
        while True:
            # the cells at w are (lo, lo + 2 bn] with lo = -bn w / bd + 2 bn j
            origin = bn * (w // bd)
            lo = -((-u * w - origin * v) // (2 * bn * v)) * 2 * bn - 2 * bn - origin
            hi = lo + 2 * bn
            if cu * w <= lo * cw and hi * dw <= du * w:
                break
            w *= 2
        sign_hi = _sign_at(work, hi, w)
        if sign_hi == 0 or _sign_at(work, lo, w) == -sign_hi:
            return lo, hi, w
        x = _newton(work, x, w)
        if x is None:
            return None
    return None


def _box(a, w, depth, bn, bd):
    """(lo, hi): the ancestor at denominator ``depth`` <= w of the grid cell from a / w.

    Cells at w = bd 2^k start at -bn 2^k + j 2 bn, so its j is the cell's
    j shifted right by log2(w / depth): integer arithmetic alone.
    """
    scale, origin = w // depth, bn * (depth // bd)
    lo = (a + origin * scale) // (2 * bn * scale) * 2 * bn - origin
    return Fraction(lo, depth), Fraction(lo + 2 * bn, depth)


def _sturm_ranks(chains):
    """Ranks for ``_cells`` from Sturm chains: minus the variations at u / w."""
    return lambda u, w: [-_variations_at(chain, u, w) for chain in chains]


def _jumped_ranks(cells):
    """Ranks for ``_cells`` from one-root grid cells (a, b, w), disjoint and in order.

    The rank at u / w is the number of cells whose right end is at or
    left of it, compared as integers at the deepest w; it is exact where
    w is no deeper and u / w lies inside no cell.
    """
    top = max(w for _, _, w in cells)
    ends = [b * (top // w) for _, b, w in cells]
    return lambda u, w: [bisect_right(ends, u * (top // w))]


def _cells(ranks, bn, bd):
    """One-root cells of the bisection of (-B, B], B = bn / bd, in increasing order.

    ``ranks(u, w)`` gives, per polynomial i, its number of roots at or
    below u / w up to a constant, so a difference of ranks counts roots
    in a half-open cell.  A cell (a, b, w) at depth k is (a/w, b/w] with
    w = bd 2^k and b - a = 2 bn, carried with the ranks at both ends.
    One holding exactly one root of one polynomial i is yielded as
    (i, (a, b, w)); one holding more is halved, so the polynomials must
    share no root.  No split point needs a sign test: a half-open count
    is exact even when an end is a root.
    """
    pending = [(-bn, bn, bd, ranks(-bn, bd), ranks(bn, bd))]
    while pending:
        a, b, w, left, right = pending.pop()
        counts = [rb - ra for ra, rb in zip(left, right)]
        if sum(counts) == 1:
            yield counts.index(1), (a, b, w)
        elif sum(counts):
            m, w = a + b, 2 * w
            mid = ranks(m, w)
            pending.append((m, 2 * b, w, mid, right))
            pending.append((2 * a, m, w, left, mid))


#: Laguerre steps allowed for one root before an approximation run gives up
_LAGUERRE_STEPS = 60


def _laguerre(coeffs, num, sqrt, start, eps):
    """Approximations of the roots of ``coeffs`` as sorted Fractions, or None.

    Laguerre's method in the number type ``num`` (float or Decimal, with
    its ``sqrt``) and Maehly's implicit deflation: the roots z found so
    far are divided out of G = p'/p and H = G^2 - p''/p, not out of p.
    The first root is sought from ``start``, left of every root, and
    each later one from sqrt(``eps``) |z| right of the last root z found,
    clear of the rounding noise of p near z; on a real-rooted polynomial
    each run then converges from the left to the next root.  A run stops
    one step after its step falls below ``eps`` |x|.  None if n H - G^2
    turns clearly negative, which no real-rooted polynomial allows, or a
    run does not settle; an overflow raises.
    """
    c = [num(a) for a in reversed(coeffs)]
    zero, slack, nudge = num(0), num(1) / 2**10, sqrt(eps)
    found = []
    x = num(start)
    for n in range(len(c) - 1, 0, -1):
        settled = False
        for _ in range(_LAGUERRE_STEPS):
            p, d1, d2 = c[0], zero, zero  # p, p' and p''/2 by Horner
            for a in c[1:]:
                d2 = d2 * x + d1
                d1 = d1 * x + p
                p = p * x + a
            if not abs(p) < inf:
                raise OverflowError("polynomial value out of range")
            if not p:
                break
            g = d1 / p
            h = g * g - 2 * d2 / p
            for z in found:
                t = 1 / (x - z)
                g -= t
                h -= t * t
            e = n * h - g * g
            if n > 1 and e < -slack * g * g:
                return None
            root = sqrt((n - 1) * max(e, zero))
            step = n / (g - root if g < 0 else g + root)
            x -= step
            if settled:
                break
            settled = abs(step) <= eps * abs(x)
        else:
            return None
        found.append(x)
        x += abs(x) * nudge or nudge
    return sorted(map(Fraction, found))


def _approximations(work):
    """Candidate approximations of the roots of ``work``: in floats, then in ``decimal``.

    A generator, so that the ``decimal`` run is made only when the float
    run overflows, fails, or does not certify.  ``decimal`` never
    overflows, and its precision grows with the coefficient bits, as the
    depth of the grid cells the approximations must name does.
    """
    start = -_fujiwara_bound(work)
    try:
        yield _laguerre(work, float, sqrt, float(start), 2.0**-26)
    except (ArithmeticError, ValueError):
        pass
    digits = 20 + max(abs(c).bit_length() for c in work) * 3 // 10
    with localcontext() as context:
        context.prec = digits
        try:
            run = _laguerre(
                work, Decimal, Decimal.sqrt, Decimal(start.numerator) / start.denominator,
                Decimal(10) ** -(digits // 2),
            )
        except (ArithmeticError, ValueError):
            run = None
    yield run


def _dyadic_between(x, y):
    """(u, 2^e) or (u, 1): a dyadic u / 2^e with few bits strictly between x < y.

    The midpoint rounded down to a multiple of 2^-e <= (y - x) / 2; when
    x >= y, a point no smaller than y.
    """
    num, den = x.numerator * y.denominator, x.denominator * y.denominator
    gap = y.numerator * x.denominator - num
    if gap <= 0:
        return y.numerator, y.denominator
    e = den.bit_length() - gap.bit_length() + 2
    if e >= 0:
        return ((2 * num + gap) << e) // (2 * den), 1 << e
    return ((2 * num + gap) // (2 * den << -e)) << -e, 1


def _certificate(work, bound, candidates):
    """(approximations, points) from the first candidate list that certifies, or None.

    A list x_1 < ... < x_m for ``work`` of degree m gives the points
    c_0 = -B < c_1 < ... < c_m = B, each c_i a dyadic u / w between x_i
    and x_(i+1), as pairs (u, w).  If ``work`` changes sign between every
    two consecutive points, it has a root in each of the m gaps, so its m
    roots are real, simple and one to a gap.
    """
    m = len(work) - 1
    bn, bd = bound.numerator, bound.denominator
    for xs in candidates:
        if xs is None or len(xs) != m:
            continue
        points = [(-bn, bd), *map(_dyadic_between, xs, xs[1:]), (bn, bd)]
        if any(u * z >= v * w for (u, w), (v, z) in zip(points, points[1:])):
            continue
        signs = [_sign_at(work, u, w) for u, w in points]
        if all(s and s == -t for s, t in zip(signs, signs[1:])):
            return xs, points
    return None


def _isolate(work, tolerance, candidates=()):
    """(exact_roots, boxes): sorted tuples of ``Fraction`` roots and (lo, hi) pairs.

    A pass takes the one-root cells of ``work`` from ``_cells`` on the
    grid of its Cauchy bound B = bn / bd, so width tests compare w with
    integers.  A root p/q of the primitive ``work`` has q | L, its
    leading coefficient, so a one-root cell (a, b] narrower than 1/L
    holds no rational root but floor(L b) / L.  A pass narrows each
    one-root cell once, past 1/L and the tolerance, tests its candidate
    and reads its box off as the ancestor at w = max(w of the one-root
    cell, fine).  The roots found are deflated before the next pass;
    only a pass that finds none returns its boxes.

    A pass counts roots and narrows cells in one of two ways.  If one of
    ``candidates`` (lists of root approximations, see ``_approximations``)
    certifies, each approximation first jumps to a grid cell that holds
    its root (``_jump``), and the k-th narrowed cell is the k-th jumped
    cell.  Each jumped cell lies in a certificate gap, so it holds one
    root, and it is deeper than every cell ``_cells`` splits, which holds
    two or more: no split point lies inside one, and the rank at a
    split point is the number of jumped cells whose right end is at or
    left of it, with no sign.  The next pass gets the approximations of
    the roots not deflated.  Where no candidate certifies or a jump
    fails, the counts come from the Sturm chain of ``work`` and cells
    are narrowed by bisection, in this pass and every later one.  Both
    find the same cells, and name the same candidate and box, so the
    result does not depend on the way.
    """
    tolerance = Fraction(tolerance)
    exact = []
    while len(work) > 1:
        lead = abs(_primitive(work)[-1])
        bound = _cauchy_bound(work)
        bn, bd = bound.numerator, bound.denominator
        # cells are no wider than the tolerance from w = fine on, and
        # narrower than 1/L from w = coarse on
        fine = coarse = bd
        while fine * tolerance.numerator < 2 * bn * tolerance.denominator:
            fine *= 2
        while coarse <= 2 * bn * lead:
            coarse *= 2
        deep = max(fine, coarse)
        certified = _certificate(work, bound, candidates)
        if certified:
            xs, points = certified
            gaps = zip(points, points[1:])
            jumped = [_jump(work, gap, bn, bd, deep, x) for gap, x in zip(gaps, xs)]
        if certified and None not in jumped:
            ranks = _jumped_ranks(jumped)
        else:
            jumped = None
            chain = SturmChain(BivariatePolynomial.from_q_coefficients(work)).chain
            ranks = _sturm_ranks([chain])
        boxes, found = [], {}
        # one root to a cell, so the k-th cell holds the k-th root
        for k, (_, cell) in enumerate(_cells(ranks, bn, bd)):
            depth = max(cell[2], fine)
            a, b, w = jumped[k] if jumped else _narrow(work, cell, deep)
            p = b * lead // w
            # a candidate at or left of the open end may be another cell's root
            if (a == b or a * lead < p * w) and _sign_at(work, p, lead) == 0:
                found[k] = Fraction(p, lead)
            else:
                boxes.append(_box(a, w, depth, bn, bd))
        if not found:
            return tuple(sorted(exact)), tuple(boxes)
        for root in found.values():
            exact.append(root)
            work = _deflate(work, root)
        candidates = [[x for k, x in enumerate(xs) if k not in found]] if jumped else ()
    return tuple(sorted(exact)), ()


def isolate_roots(poly, tolerance=DEFAULT_TOLERANCE):
    """(exact_roots, intervals) of a squarefree polynomial, both sorted tuples.

    ``exact_roots`` holds every rational root as a ``Fraction``.  Every
    interval (lo, hi] holds exactly one real root, an irrational one, has
    width at most ``tolerance``, and overlaps no other interval; an exact
    root deflated out before the last bisection may lie in one.

    Every rational root is recognized, at whatever coefficient size, as
    ``_isolate`` says, and deflated out.  The boxes come from a last pass
    over the deflated polynomial, so they hold the irrational roots and
    never have roots at their endpoints.  The cells come from Laguerre
    approximations certified by exact signs and jumped to their roots
    where that works, and from Sturm counts where not; a polynomial with
    a repeated root never certifies, and its Sturm chain raises
    ``NotSquarefreeError``.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    original = _coefficients(poly)
    if not original:
        raise ValueError("cannot isolate roots of the zero polynomial")
    return _isolate(original, tolerance, _approximations(original))


# -- verification reports -------------------------------------------------------


def _zero_multiplicity(coeffs):
    return next((k for k, c in enumerate(coeffs) if c), 0)


def verify_negative_distinct(poly):
    """Certify: roots all real, pairwise distinct, and negative.

    A single root at zero is tolerated (and reported): the derangement
    excedance polynomials pick one up whenever the cyclic group is
    trivial.  The report is a
    dict: passed, detail, degree (-1 for the zero polynomial),
    zero_root_multiplicity and negative_roots.
    """
    return _negative_distinct(_coefficients(poly))[0]


def _negative_distinct(p):
    """(report, chain): ``verify_negative_distinct`` on the coefficients p.

    ``chain`` is the ``SturmChain`` the report counted with, or None
    where it needed none.
    """
    degree, k = len(p) - 1, _zero_multiplicity(p)
    report = {
        "passed": False,
        "detail": "zero polynomial",
        "degree": degree,
        "zero_root_multiplicity": k,
        "negative_roots": 0,
    }
    chain = None
    if not p:
        return report, chain
    if k > 1:
        report["detail"] = f"root at zero has multiplicity {k}"
    elif degree == k:
        report.update(passed=True, detail="no roots besides the reported zero root")
    else:
        try:
            chain = SturmChain(BivariatePolynomial.from_q_coefficients(p[k:]))
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
    return report, chain


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

    The pattern is read off ``_cells`` over the Sturm chains that the
    negativity checks built, on the grid of the larger Fujiwara bound, a
    power of two: its one-root cells, in increasing order, tagged "s" or
    "L".  The order of the roots, and so the pattern, does not depend on
    the grid.  The bisection ends because the two share no root, which
    is checked first.
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
    ps, pl = ps[ks:], pl[kl:]
    chains = []
    for name, p in (("smaller", ps), ("larger", pl)):
        report, chain = _negative_distinct(p)
        if not report["passed"]:
            return _interlacing("fail", f"{name} polynomial: {report['detail']}")
        chains.append(chain)
    if _share_a_root(ps, pl):
        return _interlacing("fail", "polynomials share a root")
    if len(ps) == 1:
        return _interlacing("pass", "nothing to separate", pattern="L")
    ranks = _sturm_ranks([chain.chain for chain in chains])
    bound = max(_fujiwara_bound(ps), _fujiwara_bound(pl))
    cells = _cells(ranks, bound.numerator, bound.denominator)
    pattern = "".join("sL"[i] for i, _ in cells)
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
            exact, intervals = isolate_roots(BivariatePolynomial.from_q_coefficients(coeffs[k:]))
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
