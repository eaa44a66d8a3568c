"""Command-line interface.

Subcommands::

    table    count tables over ranges of the modulus and the size
    poly     one polynomial from the q,t / excedance / Eulerian families
    verify   run the exact cross-check suites
    roots    root isolation and negativity/interlacing certificates
    dump     per-element statistics, streamed as JSON lines

Exit codes: 0 on success (also when the reader of the output closes the
pipe early, as ``dump ... | head`` does), 1 when a verification fails (or
a root certificate does not pass), 2 on bad input or a refused
enumeration.
All JSON documents carry ``"schema": 1``.

One argument parser, built on first use, serves every ``main`` call in
a process, and commands dispatch through ``COMMANDS`` by subcommand
name, so a command replaced there after the parser was built is the one
that runs.
"""

import argparse
import functools
import json
import os
import sys

from . import counting, roots, verify
from .stats import dump_lines, stat_record
from .wreath import (
    EnumerationBoundError,
    OrderVariant,
    check_enumerable,
    enumerate_derangements,
    enumerate_group,
    is_derangement,
    parse,
    to_text,
)

SCHEMA = 1


def _parse_range(text):
    """'A..B' (inclusive) or a single 'N'."""
    if ".." in text:
        low_text, _, high_text = text.partition("..")
        low, high = int(low_text), int(high_text)
    else:
        low = high = int(text)
    if low > high:
        raise ValueError(f"empty range {text!r}")
    return range(low, high + 1)


def _bound(text):
    """An enumeration cap from the command line; caps below 1 are rejected."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# -- table -------------------------------------------------------------------


def _table_cell(method, r, n, bound):
    try:
        return counting.count_by_method(method, r, n, bound)
    except (ValueError, EnumerationBoundError) as exc:
        return str(exc)


def cmd_table(args):
    r_range = _parse_range(args.r)
    n_range = _parse_range(args.n)
    rows = []
    for r in r_range:
        cells = [_table_cell(args.method, r, n, args.bound) for n in n_range]
        rows.append((r, cells))
    discrepancies = (
        counting.reference_discrepancies() if args.compare_reference else None
    )
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "method": args.method,
            "n": [n for n in n_range],
            "rows": [
                {
                    "r": r,
                    "counts": [c if isinstance(c, int) else None for c in cells],
                    "refusals": {
                        str(n): c
                        for n, c in zip(n_range, cells)
                        if not isinstance(c, int)
                    },
                }
                for r, cells in rows
            ],
        }
        if discrepancies is not None:
            doc["reference_discrepancies"] = discrepancies
        print(json.dumps(doc, sort_keys=True))
        return 0
    if args.format == "csv":
        print(",".join(["r"] + [f"n={n}" for n in n_range]))
        for r, cells in rows:
            print(
                ",".join(
                    [str(r)]
                    + [str(c) if isinstance(c, int) else "refused" for c in cells]
                )
            )
    else:
        width = max(
            [6]
            + [
                len(str(c)) if isinstance(c, int) else 7
                for _, cells in rows
                for c in cells
            ]
        )
        header = "r\\n " + " ".join(f"{n:>{width}}" for n in n_range)
        print(header)
        for r, cells in rows:
            body = " ".join(
                f"{(c if isinstance(c, int) else 'refused'):>{width}}"
                for c in cells
            )
            print(f"{r:<4}{body}")
    if discrepancies is not None:
        # beside a CSV stream the report goes to stderr, so stdout stays CSV
        report = sys.stderr if args.format == "csv" else sys.stdout
        if discrepancies:
            for d in discrepancies:
                print(
                    f"reference mismatch at r={d['r']}, n={d['n']}: "
                    f"published {d['reference']}, computed {d['computed']}",
                    file=report,
                )
        else:
            print("reference table matches everywhere", file=report)
    return 0


# -- poly --------------------------------------------------------------------


_POLY_KINDS = {
    "qt-derangement": counting.qt_derangement_formula,
    "qt-group": counting.group_qt_closed,
    "exc-derangement": counting.exc_derangement_poly,
    "eulerian": counting.eulerian_from_exc,
}


def cmd_poly(args):
    poly = _POLY_KINDS[args.kind](args.r, args.n)
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "kind": args.kind,
            "r": args.r,
            "n": args.n,
            "terms": poly.to_json(),
            "text": poly.text(),
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(poly.text())
    return 0


# -- verify --------------------------------------------------------------------


def cmd_verify(args):
    checks = verify.run_suites(args.suite or None)
    report = verify.report_json(checks)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for check in checks:
            status = "ok" if check["passed"] else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in check["params"].items())
            line = f"[{status}] {check['suite']}/{check['name']}"
            if params:
                line += f" ({params})"
            if not check["passed"]:
                line += f": {check['detail']}"
            print(line)
        summary = report["summary"]
        print(
            f"{summary['passed']}/{summary['total']} checks passed, "
            f"{summary['failed']} failed"
        )
    return 0 if report["summary"]["failed"] == 0 else 1


# -- roots --------------------------------------------------------------------


def cmd_roots(args):
    kind = args.kind
    builder = _POLY_KINDS[kind]
    poly = builder(args.r, args.n)
    body = roots.roots_report(poly)
    body["kind"] = kind
    body["r"] = args.r
    body["n"] = args.n
    failed = not body["negative_distinct"]["passed"]
    if args.interlace_next:
        nxt = builder(args.r, args.n + 1)
        report = roots.verify_interlacing(poly, nxt)
        body["interlacing_with_next"] = report
        failed = failed or report["verdict"] != "pass"
    if args.format == "json":
        body["schema"] = SCHEMA
        print(json.dumps(body, sort_keys=True))
    else:
        nd = body["negative_distinct"]
        print(f"{kind} r={args.r} n={args.n}: degree {body['degree']}")
        for x in body.get("exact_roots", []):
            print(f"  root {x}")
        for low, high in body.get("intervals", []):
            print(f"  root in ({low}, {high}]")
        print(f"  negative-distinct: {'pass' if nd['passed'] else 'FAIL'} ({nd['detail']})")
        print(f"  log-concave: {body['log_concave']}  unimodal: {body['unimodal']}")
        if args.interlace_next:
            inter = body["interlacing_with_next"]
            print(
                f"  interlacing with n={args.n + 1}: {inter['verdict']} "
                f"({inter['detail']})"
            )
    return 1 if failed else 0


# -- dump ---------------------------------------------------------------------


def cmd_dump(args):
    order = OrderVariant(args.order)
    if args.element is not None:
        if args.derangements_only or args.bound is not None:
            flag = "--derangements-only" if args.derangements_only else "--bound"
            raise ValueError(f"{flag} applies only to enumeration")
        sigma = parse(args.element, args.r)
        if args.n is not None and args.n != sigma.size:
            raise ValueError(f"--element has {sigma.size} letters but --n is {args.n}")
        doc = stat_record(sigma, order)
        doc["element"] = to_text(sigma)
        doc["derangement"] = is_derangement(sigma)
        doc["order"] = args.order
        doc["schema"] = SCHEMA
        print(json.dumps(doc, sort_keys=True))
        return 0
    if args.n is None:
        raise ValueError("dump needs --n (or --element)")
    # refuse before dump_lines builds the rank tables, whose size grows with r
    check_enumerable(args.r, args.n, args.bound)
    source = enumerate_derangements if args.derangements_only else enumerate_group
    sys.stdout.writelines(dump_lines(source(args.r, args.n, args.bound), args.r, args.n, order))
    return 0


# -- parser ----------------------------------------------------------------------

COMMANDS = {
    "table": cmd_table,
    "poly": cmd_poly,
    "verify": cmd_verify,
    "roots": cmd_roots,
    "dump": cmd_dump,
}


@functools.cache
def build_parser():
    """The argument parser; one is built per process and serves every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="cyclic-derangements",
        description=(
            "Exact counts, statistics, polynomial identities, and root "
            "certificates for derangements in the wreath product C_r wr S_n."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="count tables over (r, n) ranges")
    p_table.add_argument("--r", default="1..5", help="modulus range A..B or single value")
    p_table.add_argument("--n", default="0..6", help="size range A..B or single value")
    p_table.add_argument(
        "--method",
        default="formula",
        choices=sorted(counting.COUNT_METHODS),
        help="counting route; refusals (e.g. transform at r=1) are reported per cell",
    )
    p_table.add_argument("--format", default="pretty", choices=("pretty", "csv", "json"))
    p_table.add_argument(
        "--compare-reference",
        action="store_true",
        help="also diff against the published table embedded in the package",
    )
    p_table.add_argument(
        "--bound", type=_bound, default=None, help="enumeration cap for brute-force"
    )

    p_poly = sub.add_parser("poly", help="print one polynomial from the families")
    p_poly.add_argument("--kind", required=True, choices=sorted(_POLY_KINDS))
    p_poly.add_argument("--r", type=int, required=True)
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--format", default="text", choices=("text", "json"))

    p_verify = sub.add_parser("verify", help="run the exact cross-check suites")
    p_verify.add_argument(
        "--suite",
        action="append",
        choices=sorted(verify.SUITES) + ["all"],
        help="repeatable; default runs every suite",
    )
    p_verify.add_argument("--format", default="pretty", choices=("pretty", "json"))

    p_roots = sub.add_parser("roots", help="root isolation and certificates")
    p_roots.add_argument(
        "--kind", default="exc-derangement", choices=("exc-derangement", "eulerian")
    )
    p_roots.add_argument("--r", type=int, required=True)
    p_roots.add_argument("--n", type=int, required=True)
    p_roots.add_argument(
        "--interlace-next",
        action="store_true",
        help="also certify interlacing with the n+1 member",
    )
    p_roots.add_argument("--format", default="pretty", choices=("pretty", "json"))

    p_dump = sub.add_parser("dump", help="per-element statistics as JSON lines")
    p_dump.add_argument("--r", type=int, required=True)
    p_dump.add_argument("--n", type=int, default=None)
    p_dump.add_argument(
        "--element",
        default=None,
        help="analyze a single element given as comma-separated letters 's' or 's^e'",
    )
    p_dump.add_argument(
        "--derangements-only",
        action="store_true",
        help="enumerate only the derangements; refused with --element",
    )
    p_dump.add_argument("--order", default="standard", choices=("standard", "alternate"))
    p_dump.add_argument(
        "--bound",
        type=_bound,
        default=None,
        help="enumeration cap; refused with --element",
    )

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (EnumerationBoundError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early (``dump ... | head``); point stdout at the
        # null device so the flush at exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
