import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from importlib import metadata
from math import factorial
from pathlib import Path

import pytest

from cyclic_derangements import cli, counting, verify
from cyclic_derangements.polynomials import BivariatePolynomial
from cyclic_derangements.stats import dump_lines
from cyclic_derangements.wreath import STANDARD, enumerate_group


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- table --------------------------------------------------------------------


def test_table_pretty_contains_counts(capsys):
    code, out, err = run(capsys, "table", "--r", "2", "--n", "0..4")
    assert code == 0 and err == ""
    assert "233" in out  # count at r=2, n=4


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--r", "1..2", "--n", "0..3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,n=0,n=1,n=2,n=3"
    assert lines[1] == "1,1,0,1,2"
    assert lines[2] == "2,1,1,5,29"


def test_table_json_schema(capsys):
    code, out, _ = run(
        capsys, "table", "--r", "3", "--n", "0..2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["method"] == "formula"
    assert doc["n"] == [0, 1, 2]
    assert doc["rows"] == [{"r": 3, "counts": [1, 2, 13], "refusals": {}}]


def test_table_transform_refuses_trivial_modulus_per_cell(capsys):
    code, out, _ = run(
        capsys,
        "table", "--r", "1..2", "--n", "0..2", "--method", "transform",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "1,refused,refused,refused"
    assert lines[2] == "2,1,1,5"


def test_table_compare_reference_reports_the_mismatch(capsys):
    code, out, _ = run(capsys, "table", "--compare-reference")
    assert code == 0
    assert "reference mismatch at r=3, n=2: published 12, computed 13" in out


def test_table_csv_compare_reference_keeps_stdout_csv(capsys):
    code, out, err = run(capsys, "table", "--compare-reference", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    width = len(next(csv.reader([lines[0]])))
    assert len(lines) == 6
    assert all(len(next(csv.reader([line]))) == width for line in lines)
    assert "reference mismatch at r=3, n=2: published 12, computed 13" in err


def test_table_compare_reference_json(capsys):
    code, out, _ = run(
        capsys, "table", "--compare-reference", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["reference_discrepancies"] == [
        {"r": 3, "n": 2, "reference": 12, "computed": 13}
    ]


def test_table_bounded_brute_force_reports_refusals(capsys):
    code, out, _ = run(
        capsys,
        "table", "--r", "2", "--n", "0..4", "--method", "brute-force",
        "--bound", "100", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["counts"][:3] == [1, 1, 5]
    assert row["counts"][4] is None  # 2^4 * 4! = 384 > 100
    assert "4" in row["refusals"]


# -- poly ---------------------------------------------------------------------


def test_poly_text(capsys):
    code, out, _ = run(
        capsys, "poly", "--kind", "qt-derangement", "--r", "2", "--n", "2"
    )
    assert code == 0
    assert out.strip() == "q + t + qt + t^2 + qt^2"


def test_poly_json(capsys):
    code, out, _ = run(
        capsys,
        "poly", "--kind", "exc-derangement", "--r", "3", "--n", "2",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["kind"] == "exc-derangement"
    assert (doc["r"], doc["n"]) == (3, 2)
    assert doc["text"] == "4 + 9q"


def test_poly_eulerian_and_group(capsys):
    code, out, _ = run(capsys, "poly", "--kind", "eulerian", "--r", "2", "--n", "2")
    assert out.strip() == "1 + 6q + q^2"
    code, out, _ = run(capsys, "poly", "--kind", "qt-group", "--r", "1", "--n", "3")
    assert code == 0 and out.strip() == "1 + 2q + 2q^2 + q^3"


#: sha256 of the concatenated ``poly --format json`` output for every kind
#: on r 1..5, n 0..10, as printed before the polynomial core became dense
POLY_JSON_SHA256 = "a17b29495d3063512298118503cb7e34afe4a628e6d24a33862a1e9de58a5981"


def test_poly_json_is_byte_identical_on_the_golden_grid():
    digest = hashlib.sha256()
    for kind in ("qt-derangement", "qt-group", "exc-derangement", "eulerian"):
        for r in range(1, 6):
            for n in range(11):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    argv = ["poly", "--kind", kind, "--r", str(r), "--n", str(n)]
                    assert cli.main(argv + ["--format", "json"]) == 0
                digest.update(out.getvalue().encode())
    assert digest.hexdigest() == POLY_JSON_SHA256


#: sha256 of single ``poly --kind qt-derangement --format json`` runs at the
#: benchmark's largest q,t cells, printed while the routes still ran their
#: step loops over ``BivariatePolynomial``
POLY_QT_JSON_SHA256 = {
    (3, 14): "25effedb23beee410a9e9ad04666f53bf1aa32d344d3eff6dfb7342e3ea29da0",
    (2, 14): "53f0922f28feab7e9bafb38e968edb1f8d5286abf7a58de1f18be5503096d1b7",
}


@pytest.mark.parametrize("r, n", sorted(POLY_QT_JSON_SHA256))
def test_poly_qt_json_is_byte_identical_past_the_grid(r, n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["poly", "--kind", "qt-derangement", "--r", str(r), "--n", str(n)]
        assert cli.main(argv + ["--format", "json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == POLY_QT_JSON_SHA256[r, n]


# sha256 of the output of each command, fixed before the enumeration and
# tally paths were merged
ENUMERATION_GOLDEN_SHA256 = {
    ("verify", "--format", "json"):
        "b95366f2f4738190ddecc883d28cee92d1606b8dba73215592e6d87068432eb7",
    ("dump", "--r", "2", "--n", "5", "--order", "alternate"):
        "004c7c8e466a64960dd8aa8a083fdf918f1add80d9d77cbc95a594f936f8695a",
    ("dump", "--r", "3", "--n", "4", "--derangements-only"):
        "89198f4d725cc65a20f5d76868f8918fc529d103e05723f37fccfdc292383e73",
    ("table", "--method", "brute-force", "--r", "1..4", "--n", "0..6", "--format", "json"):
        "3bbd01e26cde6e95ba8c2eb654629f2f6080bc3949d5497703b306bdfa7c9e75",
}


# sha256 of the pretty ``verify`` output, which prints each check's params in
# insertion order (the JSON report sorts its keys and cannot see that order)
VERIFY_PRETTY_SHA256 = {
    ("verify",): "51e6e867e75dac28b9bf61f6e5f8e3b9af84b1c142d9a91fc27047fa69fa72b5",
}


# sha256 of ``dump`` output at r = 1, for a whole group in the standard
# order and with exponents up to 4, fixed before dump rendered each line
# from one template
DUMP_GOLDEN_SHA256 = {
    ("dump", "--r", "1", "--n", "6", "--derangements-only", "--order", "alternate"):
        "a03a6ad8304cf382200115c1b00cf49e515034e4a69103a9f1bac91e389413d4",
    ("dump", "--r", "4", "--n", "3"):
        "637254fd1c09ab26f561d87dd9d1f4b8c601003d08122eae6881b9b45004cd07",
    ("dump", "--r", "5", "--n", "3", "--derangements-only", "--order", "alternate"):
        "7d78dd1592245208728e510e9dd7c886d9a31e96d121f017f40803576a68ab00",
}


def test_enumeration_and_battery_output_is_byte_identical():
    golden = {**ENUMERATION_GOLDEN_SHA256, **VERIFY_PRETTY_SHA256, **DUMP_GOLDEN_SHA256}
    for argv, expected in golden.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == expected, argv


# -- verify ---------------------------------------------------------------------


def test_verify_single_suite_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "counts", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["passed"] == doc["summary"]["total"] > 0
    assert all(c["suite"] == "counts" for c in doc["checks"])


def test_verify_pretty_summary_line(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bijections")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("[ok]") for line in lines[:-1])
    assert lines[-1].endswith("checks passed, 0 failed")


def test_verify_failure_sets_exit_code(capsys, monkeypatch):
    def fake(names=None):
        return [
            {
                "suite": "fake",
                "name": "always-red",
                "passed": False,
                "detail": "boom",
                "params": {},
            }
        ]

    monkeypatch.setattr(verify, "run_suites", fake)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "[FAIL] fake/always-red: boom" in out
    assert "0/1 checks passed, 1 failed" in out


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "nonsense"])
    capsys.readouterr()


def test_verify_suite_all_anywhere_and_repeats_run_each_suite_once(capsys, monkeypatch):
    def fake(name):
        return lambda: [
            {"suite": name, "name": "green", "passed": True, "detail": "", "params": {}}
        ]

    monkeypatch.setattr(
        verify, "SUITES", {name: fake(name) for name in ("counts", "qt", "egf")}
    )

    def suites_run(*names):
        argv = ["verify", "--format", "json"]
        for name in names:
            argv += ["--suite", name]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return [check["suite"] for check in json.loads(out)["checks"]]

    assert suites_run("all", "counts") == ["counts", "qt", "egf"]
    assert suites_run("egf", "all") == ["counts", "qt", "egf"]
    assert suites_run("counts", "counts") == ["counts"]
    assert suites_run("egf", "counts", "egf") == ["egf", "counts"]


# -- roots ---------------------------------------------------------------------


def test_roots_pretty_certificates(capsys):
    code, out, _ = run(
        capsys, "roots", "--r", "2", "--n", "4", "--interlace-next"
    )
    assert code == 0
    assert "negative-distinct: pass" in out
    assert "interlacing with n=5: pass" in out


def test_roots_json(capsys):
    code, out, _ = run(
        capsys,
        "roots", "--kind", "eulerian", "--r", "2", "--n", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["kind"] == "eulerian"
    assert doc["negative_distinct"]["passed"] is True
    assert doc["log_concave"] is True


#: sha256 over f"{exit code}\n{stdout}" of ``roots --format json`` for each
#: kind, r 1..5, n 0..7 (exc-derangement) or 0..6 (eulerian), without and
#: then with ``--interlace-next``, taken while the Sturm chains still ran
#: over rational coefficients
ROOTS_GRID_SHA256 = "7a38ab77204ee7f476527eee3cda50b768ca256a4f3086975803a0c53b530da5"

#: sha256 of the stdout of single ``roots --format json`` runs, same origin;
#: the last three were taken while every root cell still came from Sturm
#: counts.  Now the cells come from certified root approximations: in
#: floats up to (4, 30), and at (5, 40), past float range, in ``decimal``
ROOTS_JSON_SHA256 = {
    ("--r", "3", "--n", "20"):
        "7a8d070b269ad75d10261d3caf0f046e66a02daabfdcf9ab2f0889cc79a26e77",
    ("--r", "5", "--n", "16"):
        "65c8d5a0dd7c97ba4242e4017fbdd29e314536812ce7f8f82701dc853bc567ac",
    ("--r", "5", "--n", "24"):
        "c8595fc4e0be4d4aec4fb3f6e49daaca5153ec0b46fd942ed446c4c63570fd56",
    ("--r", "4", "--n", "30"):
        "a0d74f7bf219aaaeceb8446cda3e1d394bb3b5c62e87a4a29d3a809f9ea04645",
    ("--r", "5", "--n", "40"):
        "0f8529df2a92061f6df485bfa43e51483b04ffccb7ecfa4afdf6664e186e6b3b",
}


def _roots_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["roots", *argv, "--format", "json"])
    return code, out.getvalue()


def test_roots_json_is_byte_identical_on_the_golden_grid():
    digest = hashlib.sha256()
    for kind, n_max in (("exc-derangement", 7), ("eulerian", 6)):
        for r in range(1, 6):
            for n in range(n_max + 1):
                for extra in ((), ("--interlace-next",)):
                    code, out = _roots_json("--kind", kind, "--r", str(r), "--n", str(n), *extra)
                    digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == ROOTS_GRID_SHA256
    for argv, expected in ROOTS_JSON_SHA256.items():
        code, out = _roots_json(*argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, argv


def test_roots_zero_root_is_reported_not_fatal(capsys):
    code, out, _ = run(
        capsys, "roots", "--r", "1", "--n", "4", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["zero_root_multiplicity"] == 1
    assert doc["negative_distinct"]["passed"] is True


# -- dump ---------------------------------------------------------------------


def test_dump_single_element(capsys):
    code, out, _ = run(capsys, "dump", "--r", "2", "--element", "2^1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["element"] == "2^1,1"
    assert doc["derangement"] is True
    assert (doc["maj"], doc["des"], doc["sgn"], doc["exc"], doc["sub"]) == (
        0, 1, 1, 1, 2,
    )


def test_dump_single_element_checks_a_given_size(capsys):
    code, out, err = run(capsys, "dump", "--r", "2", "--element", "1,2", "--n", "3")
    assert code == 2
    assert out == "" and err.startswith("error:") and "--n is 3" in err
    code, sized, _ = run(capsys, "dump", "--r", "2", "--element", "2^1,1", "--n", "2")
    assert code == 0
    assert sized == run(capsys, "dump", "--r", "2", "--element", "2^1,1")[1]


@pytest.mark.parametrize(
    "flag", [("--derangements-only",), ("--bound", "1")], ids=lambda f: f[0]
)
def test_dump_single_element_refuses_enumeration_flags(capsys, flag):
    code, out, err = run(capsys, "dump", "--r", "2", "--element", "1,2", *flag)
    assert code == 2
    assert out == "" and err == f"error: {flag[0]} applies only to enumeration\n"


def test_dump_enumerates_jsonl(capsys):
    code, out, _ = run(capsys, "dump", "--r", "2", "--n", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 8
    assert sum(1 for doc in lines if doc["derangement"]) == 5


def test_dump_derangements_only_with_alternate_order(capsys):
    code, out, _ = run(
        capsys,
        "dump", "--r", "3", "--n", "2", "--derangements-only",
        "--order", "alternate",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 13
    assert all(doc["derangement"] for doc in lines)
    assert all(doc["order"] == "alternate" for doc in lines)


DUMP_KEYS = ("maj", "des", "sgn", "exc", "sub")


def _dump_lines(capsys, r, n, order, only):
    argv = ["dump", "--r", str(r), "--n", str(n), "--order", order]
    if only:
        argv.append("--derangements-only")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    return [json.loads(line) for line in out.splitlines()]


@pytest.mark.parametrize("only", [False, True], ids=["group", "derangements"])
@pytest.mark.parametrize("r, n", [(2, 4), (3, 3), (1, 6)])
def test_dump_statistics_match_the_closed_forms(capsys, r, n, only):
    excs = {}
    for order in ("standard", "alternate"):
        lines = _dump_lines(capsys, r, n, order, only)
        expected_lines = counting.derangement_count(r, n) if only else r**n * factorial(n)
        assert len(lines) == expected_lines
        assert all(key in doc for doc in lines for key in DUMP_KEYS)
        maj_sgn = BivariatePolynomial(Counter((doc["maj"], doc["sgn"]) for doc in lines))
        exc = BivariatePolynomial(Counter((doc["exc"], 0) for doc in lines))
        ascents = BivariatePolynomial(Counter((n - doc["des"], 0) for doc in lines))
        if only:
            assert maj_sgn == counting.qt_derangement_one_term(r, n)
            assert exc == counting.exc_derangement_poly(r, n)
        else:
            assert maj_sgn == counting.group_qt_closed(r, n)
            assert exc == counting.eulerian_from_exc(r, n)
            assert ascents == counting.eulerian_from_exc(r, n)
        excs[order] = [doc["exc"] for doc in lines]
    # exc is read in the standard order whatever --order says
    assert excs["standard"] == excs["alternate"]


def _source_env():
    """The environment of a child Python that imports the package from its source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_dump_streams_its_lines():
    # (4,5) prints about 14.6 MB; joined in memory before writing, the
    # lines raise the peak by about 17 MB
    script = (
        "import resource, sys\n"
        "from cyclic_derangements import cli\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "code = cli.main(['dump', '--r', '4', '--n', '5'])\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(code, after - before, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=_source_env(),
        text=True,
        timeout=300,
    )
    exit_code, grown_kb = map(int, proc.stderr.split())
    assert exit_code == 0
    assert grown_kb < 8 * 1024  # ru_maxrss is in kB on Linux


def test_dump_lines_draw_one_element_per_line():
    elements = iter(list(enumerate_group(2, 3)))
    lines = dump_lines(elements, 2, 3, STANDARD)
    assert json.loads(next(lines))["element"] == "1,2,3"
    assert len(list(elements)) == 47


# -- error handling ----------------------------------------------------------------


def test_dump_into_a_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyclic_derangements.cli", "dump", "--r", "2", "--n", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_source_env(),
    )
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()  # like ``| head -1``; 3840 lines overflow the pipe
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert first["element"] == "1,2,3,4,5"


def test_bad_element_exits_two(capsys):
    code, out, err = run(capsys, "dump", "--r", "2", "--element", "1,1")
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_dump_without_target_exits_two(capsys):
    code, _, err = run(capsys, "dump", "--r", "2")
    assert code == 2 and "--n" in err


def test_bound_refusal_exits_two(capsys):
    code, _, err = run(capsys, "dump", "--r", "2", "--n", "4", "--bound", "10")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("bound", ["0", "-3"])
@pytest.mark.parametrize(
    "command", [("table", "--method", "brute-force"), ("dump", "--r", "2", "--n", "3")]
)
def test_bound_below_one_exits_two_before_any_work(capsys, command, bound):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*command, "--bound", bound])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--bound: must be at least 1" in captured.err


def test_the_environment_does_not_set_the_bound(monkeypatch, capsys):
    # only bound= and --bound set the cap; the environment is not read
    monkeypatch.setenv(f"{cli.__package__.upper()}_BOUND", "zero")
    assert sum(1 for _ in enumerate_group(2, 3)) == 48
    code, out, err = run(capsys, "dump", "--r", "2", "--n", "2")
    assert code == 0 and err == "" and len(out.splitlines()) == 8


def test_bad_range_exits_two(capsys):
    code, _, err = run(capsys, "table", "--r", "5..2")
    assert code == 2 and "empty range" in err


# -- one parser per process ------------------------------------------------------------


def test_one_parser_is_built_per_process():
    assert cli.build_parser() is cli.build_parser()


MIXED_ROUND = (
    ("poly", "--kind", "eulerian", "--r", "2", "--n", "3"),
    ("roots", "--r", "2", "--n", "3", "--interlace-next"),
    ("dump", "--r", "2", "--n", "3", "--bound", "0"),
    ("verify", "--suite", "counts"),
    ("dump", "--element", "2,1", "--r", "2"),
)


def test_the_shared_parser_answers_a_repeated_round_alike(capsys):
    rounds = []
    for _ in range(2):
        outcomes = []
        for argv in MIXED_ROUND:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse refuses the bound
                code = exc.code
            outcomes.append((code, capsys.readouterr().out))
        rounds.append(outcomes)
    assert rounds[1] == rounds[0]
    assert [code for code, _ in rounds[0]] == [0, 0, 2, 0, 0]
    assert all(out for code, out in rounds[0] if code == 0)


def test_a_command_replaced_after_the_parser_was_built_is_the_one_that_runs(
    monkeypatch, capsys
):
    # a wrapper installed in COMMANDS later (as the benchmark tracer does)
    # must see every call; a parser that captured cmd_poly would bypass it
    cli.build_parser()
    monkeypatch.setitem(cli.COMMANDS, "poly", lambda args: print("replaced", args.kind) or 0)
    code, out, _ = run(capsys, "poly", "--kind", "eulerian", "--r", "2", "--n", "3")
    assert (code, out) == (0, "replaced eulerian\n")


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SCRIPT = "cyclic-derangements"


def declared_scripts():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def distribution_installed(name):
    try:
        metadata.distribution(name)
    except metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_entry_point():
    value = declared_scripts()[SCRIPT]
    assert value == "cyclic_derangements.cli:main"
    ep = metadata.EntryPoint(name=SCRIPT, value=value, group="console_scripts")
    assert ep.load() is cli.main


@pytest.mark.skipif(
    not distribution_installed(SCRIPT),
    reason=f"distribution {SCRIPT!r} is not installed",
)
def test_installed_console_script_matches_pyproject():
    eps = metadata.distribution(SCRIPT).entry_points.select(
        group="console_scripts", name=SCRIPT
    )
    assert [ep.value for ep in eps] == [declared_scripts()[SCRIPT]]
