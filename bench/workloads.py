"""The job mixes of the benchmark, its two workloads and the seeded job generator.

There are four job mixes, ``enumerate``, ``verify``, ``algebra`` and
``certify``, each a fixed list of jobs drawn from its grid.  A workload
pairs two mixes: ``enumerate-verify`` (enumeration, statistics and the
cross-check battery) and ``algebra-certify`` (polynomial arithmetic,
series and root certificates, with no enumeration).  Its *round* is both
mixes' jobs, shuffled together.  A run executes at least ``MIN_ROUNDS``
whole rounds, one job at a time, and more until its job time is used up;
throughput and median latency are medians of their per-round values.

The seed shuffles every round and draws each parameter that does not
change the amount of work (the letter order of an enumeration).  Sizes
stay fixed on purpose: job cost grows steeply with (r, n), and a
simulation with measured job costs showed that drawing sizes by seed
moves the median and tail latency of a 20-second run by 15-25% between
seeds.  For the same reason each mix is a thinned lattice of its grid:
the machine this was measured on changes speed by up to 2x in phases of
5 to 45 seconds, so a run needs about 40 seconds split into three
identical rounds, and two workloads rather than four, to stay within the
time the benchmark may take.

Every job is a dict with
  ``call``   what the worker runs: ``{"argv": [...]}`` for ``cli.main``
             or ``{"fn": "module.name", "args": [...], "order": ...}``
             for a public library function;
  ``check``  what the client compares the result against;
  ``label``  a short name for reports;
  ``mix``    the job mix it belongs to.
"""

import math
import random
from math import comb, factorial

MIXES = ("enumerate", "verify", "algebra", "certify")

WORKLOADS = {
    "enumerate-verify": ("enumerate", "verify"),
    "algebra-certify": ("algebra", "certify"),
}

#: every run holds at least this many identical rounds
MIN_ROUNDS = 3

ORDERS = ("standard", "alternate")

# -- enumerate -------------------------------------------------------------------


def enumerate_cells():
    """(r, n) with 1.5e4 <= r^n n! <= 1.3e5 for r in 1..5."""
    return [
        (r, n)
        for r in range(1, 6)
        for n in range(1, 10)
        if 15_000 <= r**n * factorial(n) <= 130_000
    ]


#: each job kind on two cells, every cell three or four times; a kind takes
#: a letter order when it is marked True.  ``dump`` avoids (4,5), where one
#: job alone would take 4.5 s.
ENUMERATE_PLAN = (
    ("qt_derangement_bruteforce", True, ((4, 5), (1, 8))),
    ("group_qt_bruteforce", True, ((2, 6), (5, 4))),
    ("eulerian_by_descents", True, ((3, 5), (1, 8))),
    ("eulerian_by_excedances", False, ((4, 5), (2, 6))),
    ("exc_derangement_bruteforce", False, ((3, 5), (5, 4))),
    ("derangement_count_enumerated", False, ((4, 5), (2, 6))),
    ("dump", True, ((5, 4), (3, 5))),
    ("dump --derangements-only", True, ((1, 8), (2, 6))),
)


def _enumerate_jobs(rng):
    jobs = []
    for kind, takes_order, cells in ENUMERATE_PLAN:
        for r, n in cells:
            order = rng.choice(ORDERS) if takes_order else None
            if kind.startswith("dump"):
                only = kind.endswith("only")
                argv = ["dump", "--r", str(r), "--n", str(n), "--order", order]
                if only:
                    argv.append("--derangements-only")
                call = {"argv": argv}
                check = {"kind": "dump", "r": r, "n": n, "derangements_only": only}
            else:
                call = {"fn": f"counting.{kind}", "args": [r, n], "order": order}
                check = {"kind": "tally", "fn": kind, "r": r, "n": n}
            label = f"{kind} r={r} n={n}" + (f" {order}" if order else "")
            jobs.append({"call": call, "check": check, "label": label})
    return jobs


# -- verify ----------------------------------------------------------------------

SUITES = ("counts", "qt", "bijections", "eulerian", "egf", "roots")


def _verify_jobs(rng):
    jobs = []
    for suite in (None,) + SUITES:
        argv = ["verify", "--format", "json"]
        if suite is not None:
            argv += ["--suite", suite]
        jobs.append(
            {
                "call": {"argv": argv},
                "check": {"kind": "verify", "suite": suite},
                "label": f"verify {suite or 'all'}",
            }
        )
    return jobs


# -- algebra ---------------------------------------------------------------------

POLY_KINDS = ("qt-derangement", "qt-group", "exc-derangement", "eulerian")

#: cap on (t-degree + 1)(q-degree + 1) of the q,t-result; at n = 14 it keeps
#: r = 2, 3, since the formula route takes 4.6 s at (4,14) and 7.2 s at (5,14)
ALGEBRA_SIZE_CAP = 3000

ALGEBRA_N = (6, 10, 14)

EGF_CHECKS = ("egf_check_eulerian", "egf_check_exc_derangements")
EGF_ORDERS = (8, 14, 20)


def algebra_cells():
    """(r, n) in 2..5 x ALGEBRA_N whose q,t-result fits the size cap."""
    return [
        (r, n)
        for r in range(2, 6)
        for n in ALGEBRA_N
        if (n * (r - 1) + 1) * (comb(n, 2) + 1) <= ALGEBRA_SIZE_CAP
    ]


def _algebra_jobs(rng):
    jobs = []
    for r, n in algebra_cells():
        for kind in POLY_KINDS:
            argv = ["poly", "--kind", kind, "--r", str(r), "--n", str(n), "--format", "json"]
            jobs.append(
                {
                    "call": {"argv": argv},
                    "check": {"kind": "poly", "poly": kind, "r": r, "n": n},
                    "label": f"poly {kind} r={r} n={n}",
                }
            )
        for fn in ("qt_derangement_one_term", "qt_derangement_two_term"):
            jobs.append(
                {
                    "call": {"fn": f"counting.{fn}", "args": [r, n]},
                    "check": {"kind": "recurrence", "fn": fn, "r": r, "n": n},
                    "label": f"{fn} r={r} n={n}",
                }
            )
    for fn in EGF_CHECKS:
        for r in range(2, 6):
            for order in EGF_ORDERS:
                jobs.append(
                    {
                        "call": {"fn": f"counting.{fn}", "args": [r, order]},
                        "check": {"kind": "egf", "order": order},
                        "label": f"{fn} r={r} order={order}",
                    }
                )
    return jobs


# -- certify ---------------------------------------------------------------------

#: (kind, --interlace-next, n); each runs for every r in 1..5
CERTIFY_LATTICE = (
    ("exc-derangement", False, 8),
    ("exc-derangement", True, 6),
    ("eulerian", False, 7),
    ("eulerian", True, 4),
)

#: the divisor-search cliff: roots_report cost grows with r^n
CERTIFY_TAIL = (("exc-derangement", False, 5, 13),)


def certify_cells():
    cells = [
        (kind, interlace, r, n)
        for kind, interlace, n in CERTIFY_LATTICE
        for r in range(1, 6)
    ]
    return cells + list(CERTIFY_TAIL)


def _certify_jobs(rng):
    jobs = []
    for kind, interlace, r, n in certify_cells():
        argv = ["roots", "--kind", kind, "--r", str(r), "--n", str(n), "--format", "json"]
        if interlace:
            argv.append("--interlace-next")
        jobs.append(
            {
                "call": {"argv": argv},
                "check": {"kind": "roots", "poly": kind, "r": r, "n": n, "interlace": interlace},
                "label": f"roots {kind} r={r} n={n}" + (" +interlace" if interlace else ""),
            }
        )
    return jobs


_MIX_JOBS = {
    "enumerate": _enumerate_jobs,
    "verify": _verify_jobs,
    "algebra": _algebra_jobs,
    "certify": _certify_jobs,
}


def _round(workload, rng):
    jobs = []
    for mix in WORKLOADS[workload]:
        for job in _MIX_JOBS[mix](rng):
            job["mix"] = mix
            jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def rounds(workload, seed):
    """Endless stream of shuffled rounds; the same seed gives the same stream."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield _round(workload, rng)


def round_size(workload, mix=None):
    jobs = _round(workload, random.Random(0))
    return len([job for job in jobs if mix is None or job["mix"] == mix])


def tail_percentile(jobs):
    """Highest whole percentile (at least 50) with ten of ``jobs`` beyond it."""
    return max(50, math.floor(100 * (jobs - 10) / jobs))


# Per-layer counters each mix must move, and those it must leave at zero.
# A nonzero counter where zero is expected (or the reverse) means a wrapper
# sits in the wrong namespace or the mix lost its purpose.
COVERAGE = {
    "enumerate": {
        "nonzero": [
            "wreath.elements", "stats.calls", "counting.calls", "cli.calls",
            "cli.output_bytes",
        ],
        "zero": [
            "roots.calls", "roots.sturm_chain.calls", "series.calls", "verify.checks",
            "polynomials.exact_div.calls", "polynomials.ratfunc_new.calls",
        ],
    },
    "algebra": {
        "nonzero": [
            "cli.calls", "cli.output_bytes", "counting.calls",
            "polynomials.bivariate_mul.calls", "polynomials.exact_div.calls",
            "polynomials.ratfunc_new.calls", "polynomials.max_coeff_bits",
            "series.divide.calls",
        ],
        "zero": [
            "wreath.elements", "stats.calls", "roots.calls",
            "roots.sturm_chain.calls", "verify.checks",
        ],
    },
    "certify": {
        "nonzero": [
            "cli.calls", "roots.calls", "roots.sturm_chain.calls",
            "roots.count_roots.calls", "roots.isolate_roots.self_s",
            "roots.interlacing.self_s", "polynomials.qpoly_evaluate.calls",
            "polynomials.qpoly_divmod.calls",
        ],
        "zero": [
            "wreath.elements", "stats.calls", "series.calls", "verify.checks",
            "polynomials.exact_div.calls", "polynomials.ratfunc_new.calls",
        ],
    },
    "verify": {
        "nonzero": [
            "cli.calls", "verify.checks", "wreath.elements", "stats.calls",
            "counting.calls", "roots.sturm_chain.calls", "series.divide.calls",
            "polynomials.ratfunc_new.calls", "polynomials.exact_div.calls",
        ]
        + [f"verify.suite.{suite}.busy_s" for suite in SUITES],
        "zero": [],
    },
}
