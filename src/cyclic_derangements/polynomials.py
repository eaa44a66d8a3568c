"""Exact polynomial arithmetic: the one polynomial core of the package.

``BivariatePolynomial`` holds dense polynomials in q and t with
arbitrary-precision integer coefficients (no floats anywhere).  It
carries every q,t-generating function, the Z[q] coefficients of the
q-exponential generating functions in ``series``, and, as ascending
integer coefficient lists of t-free members, the Sturm chains in
``roots``.  Large products go through Kronecker substitution: both
operands are packed into single Python integers, so the work is done by
CPython's integer multiplication (Karatsuba).  Exact division is dense
long division with its remainder checked.  A route may also run whole on
integer images (``_Image``) and read its result off once, at the end.

Plus the classical q-analogs: q-integers, q-factorials, the t-bracket
[r]_t and Gaussian binomial coefficients.
"""

from itertools import starmap, zip_longest
from operator import add, sub


class InexactDivisionError(ArithmeticError):
    """Polynomial division that was required to be exact left a remainder."""


# -- dense coefficients and Kronecker packing -----------------------------------
#
# A polynomial is a flat tuple of coefficients, row by row: the entry at
# dt * width + dq is the coefficient of q^dq t^dt, with width = q-degree + 1.
# In canonical form the last row and the last column each hold a nonzero
# entry, and the zero polynomial is the empty tuple with width 0.  Packing
# evaluates at q = 2^(8k), t = 2^(8k * stride): every coefficient gets a
# k-byte slot, and rows laid ``stride`` >= width slots apart stay apart,
# so a product whose coefficients fit their slots is read off its digits.


def _canonical(c, width):
    """(coefficients, width) of a row-major list, trimmed to canonical form."""
    if c and c[-1]:  # the last entry is in the last row and the last column
        return tuple(c), width
    while c and not any(c[-width:]):
        del c[-width:]
    if not c:
        return (), 0
    if not any(c[width - 1 :: width]):
        narrow = max(k % width for k, x in enumerate(c) if x) + 1
        c = [x for k, x in enumerate(c) if k % width < narrow]
        width = narrow
    return tuple(c), width


def _restride(c, width, stride):
    """Rows of ``width`` entries laid out ``stride`` apart; one row stays as is."""
    if len(c) <= width or width == stride:
        return c
    pad = [0] * (stride - width)
    out = []
    for start in range(0, len(c), width):
        out.extend(c[start : start + width])
        out.extend(pad)
    return out


def _unstride(c, stride, width):
    """Inverse of ``_restride``; None if an entry between rows is nonzero."""
    out = []
    for start in range(0, len(c), stride):
        if any(c[start + width : start + stride]):
            return None
        out.extend(c[start : start + width])
    return out


def _max_abs(c):
    return max(map(abs, c))


def _slot_bytes(bits):
    """Bytes per slot for signed values of magnitude below 2**bits."""
    return bits // 8 + 1


def _bias(slots, k):
    """The packed value with 2^(8k-1) in every slot."""
    return int.from_bytes((1 << (8 * k - 1)).to_bytes(k, "little") * slots, "little")


def _pack(c, width, stride, k):
    c = _restride(c, width, stride)
    half = 1 << (8 * k - 1)
    data = b"".join([(x + half).to_bytes(k, "little") for x in c])
    return int.from_bytes(data, "little") - _bias(len(c), k)


def _unpack(value, slots, k):
    """``slots`` coefficients of a packed value, each within its slot."""
    data = (value + _bias(slots, k)).to_bytes(k * slots, "little")
    half = 1 << (8 * k - 1)
    from_bytes = int.from_bytes
    return [from_bytes(data[i : i + k], "little") - half for i in range(0, k * slots, k)]


class _Image:
    """Z[q,t] -> Z by q -> X = 2^(8k), t -> X^width: ring homomorphisms, so
    a whole computation on images is exact.  A result of q-degree below
    ``width`` and coefficients of magnitude at most ``bound``, below X / 2
    (``_slot_bytes``), is read off the signed digits of its image, once.
    """

    def __init__(self, bound, width):
        self.k, self.width = _slot_bytes(bound.bit_length()), width
        self.q_bits = 8 * self.k  # shifting left by q_bits * e multiplies by q^e
        self.t_bits = self.q_bits * width

    @staticmethod
    def norm(poly):
        """|poly|_1, the sum of |coefficients|; |a b|_1 <= |a|_1 |b|_1 sizes a slot."""
        return sum(map(abs, poly._c))

    def q_integer(self, i):
        """The image (X^i - 1) / (X - 1) of [i]_q."""
        return ((1 << self.q_bits * i) - 1) // ((1 << self.q_bits) - 1)

    def times_bracket(self, value, r):
        """value * [r]_t, by r - 1 shifted adds."""
        return sum(value << self.t_bits * j for j in range(r))

    def of(self, poly):
        """The image of ``poly``, whose q-degree must lie below ``width``."""
        c, w = poly._c, poly._w
        rows = [_pack(c[s : s + w], w, w, self.k) for s in range(0, len(c), w or 1)]
        return sum(row << self.t_bits * j for j, row in enumerate(rows))

    def read(self, value):
        """The polynomial whose image is ``value``."""
        # a top digit in row R makes |value| > X^(R * width) / 2
        c = _unpack(value, (abs(value).bit_length() // self.t_bits + 1) * self.width, self.k)
        return BivariatePolynomial._of(*_canonical(c, self.width))


#: schoolbook steps (one multiply-add each) that cost as much as packing
#: and unpacking one slot; measured on CPython 3.11, break-even lies at
#: 2-4 steps per slot for small coefficients and 4-7 for 200-bit ones
_STEPS_PER_SLOT = 4


def _product(a, wa, b, wb):
    """Coefficients of a * b for nonzero canonical operands; width wa + wb - 1.

    The schoolbook loop runs over the nonzero entries of the sparser
    operand and all entries of the other; packing takes over once that is
    more steps than packing and unpacking cost.
    """
    width = wa + wb - 1
    size = (len(a) // wa + len(b) // wb - 1) * width
    if len(b) - b.count(0) < len(a) - a.count(0):
        a, wa, b, wb = b, wb, a, wa
    inner = _restride(b, wb, width)
    steps = (len(a) - a.count(0)) * len(inner)
    if steps <= _STEPS_PER_SLOT * (len(a) // wa * width + len(inner) + size):
        out = [0] * (size + width)
        for i, x in enumerate(_restride(a, wa, width)):
            if x:
                for j, y in enumerate(inner, i):
                    out[j] += x * y
        return tuple(out[:size])
    bits = _max_abs(a).bit_length() + _max_abs(b).bit_length()
    k = _slot_bytes(bits + min(len(a), len(b)).bit_length())
    return tuple(_unpack(_pack(a, wa, width, k) * _pack(b, wb, width, k), size, k))


def _long_division(p, wp, d, wd):
    """Coefficients of p / d for nonzero canonical operands, by long
    division; None if d does not divide p.

    Degrees in q and in t each add under multiplication, which fixes the
    quotient's shape.  Laying the rows ``wp`` apart maps q to y and t to
    y^wp, which is injective below q-degree wp, so p / d in Z[y] is the
    image of the quotient in Z[q,t] and exists exactly when that does.
    """
    height, width = len(p) // wp - len(d) // wd + 1, wp - wd + 1
    if height < 1 or width < 1:
        return None
    rem = list(p)
    flat_d = list(_restride(d, wd, wp))
    while not flat_d[-1]:
        flat_d.pop()
    shift, lead = len(flat_d) - 1, flat_d[-1]
    terms = [(j, x) for j, x in enumerate(flat_d) if x]
    quotient = [0] * (len(rem) - shift)
    for i in range(len(quotient) - 1, -1, -1):
        c = rem[i + shift] // lead  # a residue stays in rem and fails the check below
        if c:
            quotient[i] = c
            for j, x in terms:
                rem[i + j] -= c * x
    if any(rem):
        return None
    return _unstride(quotient, wp, width)


class BivariatePolynomial:
    """Dense polynomial in q and t with integer coefficients.

    Immutable: the coefficients are stored in canonical form (see above)
    as ``_c`` with row width ``_w`` and never mutated.
    """

    __slots__ = ("_c", "_w")

    def __init__(self, coeffs=None):
        terms = []
        for (dq, dt), c in (coeffs or {}).items():
            c = int(c)
            if dq < 0 or dt < 0:
                raise ValueError("monomial degrees must be nonnegative")
            if c:
                terms.append((int(dq), int(dt), c))
        width = max((dq for dq, _, _ in terms), default=-1) + 1
        flat = [0] * (width * (max((dt for _, dt, _ in terms), default=-1) + 1))
        for dq, dt, c in terms:
            flat[dt * width + dq] = c
        self._c, self._w = _canonical(flat, width)

    @classmethod
    def _of(cls, c, width):
        result = cls.__new__(cls)
        result._c, result._w = c, width
        return result

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls._of((1,), 1)

    @classmethod
    def constant(cls, c):
        c = int(c)
        return cls._of((c,), 1) if c else cls._of((), 0)

    @classmethod
    def monomial(cls, c, q_degree, t_degree=0):
        c = int(c)
        if q_degree < 0 or t_degree < 0:
            raise ValueError("monomial degrees must be nonnegative")
        if not c:
            return cls._of((), 0)
        return cls._of((0,) * ((q_degree + 1) * t_degree + q_degree) + (c,), q_degree + 1)

    @classmethod
    def q(cls):
        return cls.monomial(1, 1)

    @classmethod
    def t(cls):
        return cls.monomial(1, 0, 1)

    @classmethod
    def from_q_coefficients(cls, coeffs):
        """Build a t-free polynomial from an ascending coefficient list."""
        coeffs = [int(c) for c in coeffs]
        return cls._of(*_canonical(coeffs, len(coeffs)))

    # -- basic queries -------------------------------------------------

    def terms(self):
        """Monomials as ((q_degree, t_degree), coefficient), sorted."""
        c, width = self._c, self._w
        return [
            ((dq, dt), x)
            for dq in range(width)
            for dt, x in enumerate(c[dq::width])
            if x
        ]

    def coefficient(self, q_degree, t_degree=0):
        if 0 <= q_degree < self._w and 0 <= t_degree * self._w < len(self._c):
            return self._c[t_degree * self._w + q_degree]
        return 0

    @property
    def q_degree(self):
        return self._w - 1

    @property
    def t_degree(self):
        return len(self._c) // self._w - 1 if self._c else -1

    def is_t_free(self):
        return len(self._c) == self._w

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = BivariatePolynomial.constant(other)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._w == other._w and self._c == other._c

    def __hash__(self):
        return hash((self._w, self._c))

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, BivariatePolynomial):
            return other
        if isinstance(other, int):
            return BivariatePolynomial.constant(other)
        return None

    def _combine(self, other, op):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        (a, wa), (b, wb) = (self._c, self._w), (other._c, other._w)
        width = max(wa, wb)
        a, b = _restride(a, wa, width), _restride(b, wb, width)
        c = list(starmap(op, zip_longest(a, b, fillvalue=0)))
        return BivariatePolynomial._of(*_canonical(c, width))

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePolynomial._of(tuple(-x for x in self._c), self._w)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._combine(self, sub)

    def __mul__(self, other):
        if isinstance(other, int):  # scaling: _canonical trims a product by 0
            return BivariatePolynomial._of(*_canonical([other * x for x in self._c], self._w))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._c or not other._c:
            return BivariatePolynomial.zero()
        c = _product(self._c, self._w, other._c, other._w)
        return BivariatePolynomial._of(c, self._w + other._w - 1)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = BivariatePolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- calculus and evaluation ----------------------------------------

    def derivative_q(self):
        width = self._w
        c = [k % width * x for k, x in enumerate(self._c) if k % width]
        return BivariatePolynomial._of(*_canonical(c, width - 1))

    def evaluate(self, q_value, t_value=1):
        """Exact evaluation; accepts ints or Fractions."""
        total = 0
        for start in reversed(range(0, len(self._c), self._w or 1)):
            value = 0
            for x in reversed(self._c[start : start + self._w]):
                value = value * q_value + x
            total = total * t_value + value
        return total

    def q_coefficient_list(self):
        """Ascending integer coefficients; requires a t-free polynomial."""
        if not self.is_t_free():
            raise ValueError("polynomial involves t")
        return list(self._c)

    # -- exact division --------------------------------------------------

    def exact_div(self, divisor):
        """Exact division in Z[q,t]; raises InexactDivisionError otherwise."""
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if not self._c:
            return self
        c = _long_division(self._c, self._w, divisor._c, divisor._w)
        if c is None:
            raise InexactDivisionError(f"{self!r} is not divisible by {divisor!r}")
        return BivariatePolynomial._of(tuple(c), self._w - divisor._w + 1)

    # -- rendering --------------------------------------------------------

    @staticmethod
    def _term_text(dq, dt, c):
        parts = []
        if dq:
            parts.append("q" if dq == 1 else f"q^{dq}")
        if dt:
            parts.append("t" if dt == 1 else f"t^{dt}")
        body = "".join(parts)
        if not body:
            return str(c)
        if c == 1:
            return body
        if c == -1:
            return f"-{body}"
        return f"{c}{body}"

    def text(self):
        """Canonical human-readable form, ascending by (t, q) degree."""
        w = self._w
        terms = [self._term_text(k % w, k // w, c) for k, c in enumerate(self._c) if c]
        return " + ".join(terms).replace("+ -", "- ") or "0"

    def to_json(self):
        """Term list sorted by (q, t); coefficients as decimal strings."""
        return [
            {"q": dq, "t": dt, "c": str(c)} for (dq, dt), c in self.terms()
        ]

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"BivariatePolynomial({self.text()!r})"


def reciprocal_check(poly, n):
    """Test q^n * p(1/q) == p(q) for a t-free polynomial p."""
    if not poly.is_t_free():
        raise ValueError("reciprocal check applies to t-free polynomials")
    if poly.q_degree > n:
        return False
    return all(
        poly.coefficient(k) == poly.coefficient(n - k) for k in range(n + 1)
    )


def is_palindromic(poly):
    """Coefficient symmetry across the polynomial's own support.

    Equivalent to q^(v+d) * p(1/q) == p(q) where v and d are the lowest
    and highest exponents with nonzero coefficient.
    """
    if not poly.is_t_free():
        raise ValueError("palindromicity applies to t-free polynomials")
    if not poly:
        return True
    coeffs = poly.q_coefficient_list()
    low = next(i for i, c in enumerate(coeffs) if c)
    trimmed = coeffs[low:]
    return trimmed == trimmed[::-1]


# -- q-analogs ---------------------------------------------------------------


def q_integer(i):
    """[i]_q = 1 + q + ... + q^(i-1)."""
    if i < 0:
        raise ValueError("q-integer defined for i >= 0")
    return BivariatePolynomial({(k, 0): 1 for k in range(i)})


def q_factorial(n):
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    result = BivariatePolynomial.one()
    for i in range(1, n + 1):
        result = result * q_integer(i)
    return result


def t_bracket(r):
    """[r]_t = 1 + t + ... + t^(r-1)."""
    if r < 0:
        raise ValueError("t-bracket defined for r >= 0")
    return BivariatePolynomial({(0, k): 1 for k in range(r)})


def q_binomial(m, k):
    """Gaussian binomial via the q-Pascal recurrence."""
    if k < 0 or k > m:
        return BivariatePolynomial.zero()
    # row-by-row Pascal triangle keeps every step in Z[q]
    row = [BivariatePolynomial.one()]
    for m_cur in range(1, m + 1):
        new_row = [BivariatePolynomial.one()]
        for j in range(1, m_cur):
            new_row.append(row[j - 1] + BivariatePolynomial.monomial(1, j) * row[j])
        new_row.append(BivariatePolynomial.one())
        row = new_row
    return row[k]


def q_binomial_by_division(m, k):
    """Gaussian binomial as [m]_q! / ([k]_q! [m-k]_q!), checked exact."""
    if k < 0 or k > m:
        return BivariatePolynomial.zero()
    return q_factorial(m).exact_div(q_factorial(k) * q_factorial(m - k))
