"""Correctness checks of job results, each by a route independent of the job.

Runs in the client process, outside the timed region.  ``check(job,
reply)`` returns None when the result is right and a one-line reason when
it is not.  Expected values are cached per parameter set, since rounds
repeat the same cells.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from cyclic_derangements import counting
from cyclic_derangements.polynomials import BivariatePolynomial
from cyclic_derangements.series import coefficient_as_polynomial

REFERENCE_DISCREPANCY = [{"r": 3, "n": 2, "reference": 12, "computed": 13}]


def _terms(poly):
    return poly.to_json()


def _count(r, n):
    return counting.derangement_count_one_term(r, n)


# -- enumerate ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tally_expected(fn, r, n):
    """Closed forms and recurrences that the enumeration tallies must match."""
    if fn == "qt_derangement_bruteforce":
        return _terms(counting.qt_derangement_one_term(r, n))
    if fn == "group_qt_bruteforce":
        return _terms(counting.group_qt_closed(r, n))
    if fn in ("eulerian_by_descents", "eulerian_by_excedances"):
        return _terms(counting.eulerian_from_exc(r, n))
    if fn == "exc_derangement_bruteforce":
        return _terms(counting.exc_derangement_poly(r, n))
    if fn == "derangement_count_enumerated":
        return _count(r, n)
    raise ValueError(f"no check for {fn}")


def _check_tally(spec, digest):
    expected = _tally_expected(spec["fn"], spec["r"], spec["n"])
    if digest != expected:
        return f"{spec['fn']} disagrees with its closed form"
    return None


def _check_dump(spec, digest):
    r, n, only = spec["r"], spec["n"], spec["derangements_only"]
    lines = _count(r, n) if only else r**n * factorial(n)
    if digest["lines"] != lines:
        return f"dump printed {digest['lines']} lines, expected {lines}"
    if not digest["keys_ok"]:
        return "a dump line lacks one of maj, des, sgn, exc, sub"
    maj_sgn = BivariatePolynomial({(m, s): c for m, s, c in digest["maj_sgn"]})
    exc = BivariatePolynomial({(k, 0): c for k, c in digest["exc"]})
    if only:
        routes = [
            (maj_sgn, counting.qt_derangement_one_term(r, n)),
            (exc, counting.exc_derangement_poly(r, n)),
        ]
    else:
        des = BivariatePolynomial({(n - k, 0): c for k, c in digest["des"]})
        eulerian = counting.eulerian_from_exc(r, n)
        routes = [
            (maj_sgn, counting.group_qt_closed(r, n)),
            (exc, eulerian),
            (des, eulerian),
        ]
    if any(tally != expected for tally, expected in routes):
        return "dump statistics disagree with the closed forms"
    return None


# -- algebra -----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _egf_series(kind, r, order):
    if kind == "exc-derangement":
        return counting.exc_derangement_egf(r, order)
    return counting.eulerian_egf(r, order)


def _convolve(factors):
    out = [1]
    for factor in factors:
        product = [0] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        out = product
    return out


def _group_product(r, n):
    """[r]_t^n [n]_q! by plain coefficient convolution."""
    t_part = _convolve([[1] * r] * n)
    q_part = _convolve([[1] * k for k in range(1, n + 1)])
    return BivariatePolynomial(
        {(i, j): a * b for i, a in enumerate(q_part) for j, b in enumerate(t_part)}
    )


@lru_cache(maxsize=None)
def _poly_expected(kind, r, n):
    """Each polynomial kind by a route other than the one ``poly`` uses."""
    if kind == "qt-derangement":
        one = counting.qt_derangement_one_term(r, n)
        if counting.qt_derangement_two_term(r, n) != one:
            raise ArithmeticError("the two recurrences disagree")
        return _terms(one), _count(r, n)
    if kind == "qt-group":
        return _terms(_group_product(r, n)), r**n * factorial(n)
    series = _egf_series(kind, r, 14)
    total = _count(r, n) if kind == "exc-derangement" else r**n * factorial(n)
    return _terms(coefficient_as_polynomial(series, n)), total


def _check_poly(spec, doc):
    terms, total = _poly_expected(spec["poly"], spec["r"], spec["n"])
    if doc["terms"] != terms:
        return f"poly {spec['poly']} disagrees with its independent route"
    if sum(int(t["c"]) for t in doc["terms"]) != total:
        return "polynomial at q = t = 1 is not the count"
    return None


def _check_recurrence(spec, digest):
    r, n = spec["r"], spec["n"]
    other = (
        counting.qt_derangement_two_term
        if spec["fn"] == "qt_derangement_one_term"
        else counting.qt_derangement_one_term
    )
    if digest != _terms(other(r, n)):
        return f"{spec['fn']} disagrees with the other recurrence"
    if sum(int(t["c"]) for t in digest) != _count(r, n):
        return "polynomial at q = t = 1 is not the count"
    return None


def _check_egf(spec, digest):
    if len(digest) != spec["order"] + 1:
        return f"{len(digest)} coefficient checks, expected {spec['order'] + 1}"
    failed = [line["label"] for line in digest if not line["passed"]]
    if failed:
        return f"EGF check failed: {failed[0]}"
    return None


# -- certify -----------------------------------------------------------------------


def _evaluate(coefficients, x):
    total = Fraction(0)
    for c in reversed(coefficients):
        total = total * x + Fraction(c)
    return total


def _check_roots(spec, doc):
    r, n = spec["r"], spec["n"]
    coefficients = [Fraction(c) for c in doc["coefficients"]]
    total = _count(r, n) if spec["poly"] == "exc-derangement" else r**n * factorial(n)
    if sum(coefficients) != total:
        return "polynomial at q = 1 is not the count"
    if not doc["negative_distinct"]["passed"]:
        return "negative-distinct certificate failed"
    if doc["real_roots"] + doc["zero_root_multiplicity"] != doc["degree"]:
        return "real-root count differs from the degree"
    boxes = sorted(
        [(Fraction(x), Fraction(x)) for x in doc["exact_roots"]]
        + [(Fraction(lo), Fraction(hi)) for lo, hi in doc["intervals"]]
    )
    # boxes are (lo, hi] intervals or exact roots lo == hi
    for (_, hi), (lo, next_hi) in zip(boxes, boxes[1:]):
        if hi > lo or (hi == lo and lo == next_hi):
            return "root boxes overlap"
    for lo, hi in boxes:
        if hi >= 0:
            return "a root box reaches zero or beyond"
        at_lo, at_hi = _evaluate(coefficients, lo), _evaluate(coefficients, hi)
        if lo == hi:
            if at_lo:
                return f"exact root {lo} is not a root"
        elif at_hi and (at_lo > 0) == (at_hi > 0):
            return f"no sign change on ({lo}, {hi}]"
    if spec["interlace"] and doc["interlacing_with_next"]["verdict"] != "pass":
        return "interlacing verdict is not pass"
    return None


# -- verify ------------------------------------------------------------------------


def _check_verify(spec, doc):
    summary = doc["summary"]
    if summary["failed"] or summary["total"] != len(doc["checks"]) or not doc["checks"]:
        return f"verify reported {summary['failed']} failed of {summary['total']}"
    if spec["suite"] in (None, "counts"):
        reference = [c for c in doc["checks"] if c["name"] == "reference-table"]
        if len(reference) != 1 or reference[0]["params"]["discrepancies"] != REFERENCE_DISCREPANCY:
            return "reference-table check no longer reports (r=3, n=2) as 12 vs 13"
    return None


CHECKS = {
    "tally": _check_tally,
    "dump": _check_dump,
    "poly": _check_poly,
    "recurrence": _check_recurrence,
    "egf": _check_egf,
    "roots": _check_roots,
    "verify": _check_verify,
}


def check(job, reply):
    """None if the job's reply is correct, else the reason it is not."""
    if reply.get("error"):
        return reply["error"]
    if "exit" in reply and reply["exit"] != 0:
        return f"exit code {reply['exit']}: {reply.get('stderr', '').strip()}"
    spec = job["check"]
    try:
        return CHECKS[spec["kind"]](spec, reply["digest"])
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return f"malformed result: {type(exc).__name__}: {exc}"
