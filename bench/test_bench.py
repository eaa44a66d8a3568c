"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They start real workers on small jobs, so they take a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _job(kind, call, **check):
    return {"call": call, "check": {"kind": kind, **check}, "label": kind}


SMALL_JOBS = [
    _job("tally", {"fn": "counting.qt_derangement_bruteforce", "args": [2, 3], "order": "alternate"},
         fn="qt_derangement_bruteforce", r=2, n=3),
    _job("tally", {"fn": "counting.derangement_count_enumerated", "args": [3, 3]},
         fn="derangement_count_enumerated", r=3, n=3),
    _job("dump", {"argv": ["dump", "--r", "2", "--n", "3"]}, r=2, n=3, derangements_only=False),
    _job("poly", {"argv": ["poly", "--kind", "qt-group", "--r", "2", "--n", "4", "--format", "json"]},
         poly="qt-group", r=2, n=4),
    _job("poly", {"argv": ["poly", "--kind", "eulerian", "--r", "3", "--n", "4", "--format", "json"]},
         poly="eulerian", r=3, n=4),
    _job("recurrence", {"fn": "counting.qt_derangement_two_term", "args": [2, 4]},
         fn="qt_derangement_two_term", r=2, n=4),
    _job("egf", {"fn": "counting.egf_check_eulerian", "args": [2, 5]}, order=5),
    _job("roots", {"argv": ["roots", "--r", "2", "--n", "5", "--format", "json", "--interlace-next"]},
         poly="exc-derangement", r=2, n=5, interlace=True),
    _job("verify", {"argv": ["verify", "--suite", "bijections", "--format", "json"]}, suite="bijections"),
]


def _corrupt(job, reply):
    """Change the part of a reply that the job's check reads."""
    digest = reply["digest"]
    kind = job["check"]["kind"]
    if kind in ("tally", "recurrence") and isinstance(digest, int):
        reply["digest"] = digest + 1
    elif kind in ("tally", "recurrence"):
        digest[0]["c"] = str(int(digest[0]["c"]) + 1)
    elif kind == "dump":
        digest["maj_sgn"][0][2] += 1
    elif kind == "poly":
        digest["terms"][-1]["c"] = str(int(digest["terms"][-1]["c"]) + 1)
    elif kind == "egf":
        digest[-1]["passed"] = False
    elif kind == "roots":
        digest["intervals"][1] = digest["intervals"][0]
    elif kind == "verify":
        digest["summary"]["failed"] = 1


class Corrupting:
    """Worker proxy that corrupts the replies of the jobs it is told to."""

    def __init__(self, worker, victims):
        self.worker = worker
        self.victims = victims

    def ask(self, request):
        reply = self.worker.ask(request)
        for job in self.victims:
            if job["call"] is request.get("call"):
                _corrupt(job, reply)
        return reply


@pytest.fixture(scope="module")
def worker():
    with run.Worker(ROOT) as w:
        yield w


def test_same_seed_gives_same_jobs():
    for workload in workloads.WORKLOADS:
        a, b = workloads.rounds(workload, 7), workloads.rounds(workload, 7)
        assert [next(a) for _ in range(2)] == [next(b) for _ in range(2)]
        first, other = next(workloads.rounds(workload, 7)), next(workloads.rounds(workload, 8))
        key = lambda job: json.dumps(job["check"], sort_keys=True)  # noqa: E731
        assert sorted(map(key, first)) == sorted(map(key, other))
        assert len(first) == workloads.round_size(workload)


def test_grids_match_their_definitions():
    assert workloads.enumerate_cells() == [(1, 8), (2, 6), (3, 5), (4, 5), (5, 4)]
    assert len(workloads.algebra_cells()) == 10
    assert {cell for _, _, cells in workloads.ENUMERATE_PLAN for cell in cells} == set(
        workloads.enumerate_cells()
    )
    assert ("exc-derangement", False, 5, 13) in workloads.certify_cells()
    assert workloads.round_size("enumerate-verify") == 16 + 7
    assert workloads.tail_percentile(40) == 75
    assert workloads.tail_percentile(100) == 90


def test_clean_results_pass_and_corrupted_results_fail(worker):
    for job in SMALL_JOBS:
        reply = worker.ask({"op": "job", "call": job["call"]})
        assert checks.check(job, reply) is None, job["label"]
        _corrupt(job, reply)
        assert checks.check(job, reply) is not None, job["label"]


def test_corrupted_result_counts_in_failed_frac(worker):
    victims = SMALL_JOBS[2:4]
    rounds = run.closed_loop(Corrupting(worker, victims), [SMALL_JOBS], 0, checks.check)
    failed = [job["label"] for job, _, failure in rounds[0] if failure]
    assert len(rounds) == 1 and len(rounds[0]) == len(SMALL_JOBS)
    assert failed == [job["label"] for job in victims]
    metrics = run.end_to_end(rounds, 75, 0.1, 20.0)
    busy = run.job_time(rounds[0])
    assert metrics["jobs_per_s"] == pytest.approx((len(SMALL_JOBS) - len(victims)) / busy)


def test_runs_at_least_the_minimum_rounds(worker):
    rounds = run.closed_loop(worker, iter([SMALL_JOBS[:1]] * 5), 0, checks.check, min_rounds=3)
    assert len(rounds) == 3


def test_tracer_patches_every_namespace():
    with run.Worker(ROOT) as w:
        w.ask({"op": "trace"})
        for job in SMALL_JOBS[:1] + SMALL_JOBS[-2:]:
            w.ask({"op": "job", "call": job["call"]})
        report = w.ask({"op": "report"})
    metrics = tracing.layer_metrics(report["trace"], 0.0)
    assert metrics["wreath.elements"] > 29  # d(2,3) = 29 from the tally, more from verify
    assert metrics["stats.calls"] >= 2 * 29  # major_index is imported by name into counting
    assert metrics["roots.sturm_chain.calls"] > 0
    assert metrics["verify.checks"] > 0
    assert metrics["verify.suite.bijections.busy_s"] > 0
    assert metrics["series.calls"] == 0
    assert report["trace"]["missing"] == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enumerate-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
