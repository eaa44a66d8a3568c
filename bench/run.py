"""Benchmark of the cyclic-derangements CLI and library: seeded job mixes.

Run from the repository root (no install needed; the worker imports the
package from ``src``):

    python3 bench/run.py --workload enumerate-verify --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1      # one row per workload

A closed loop: this process is the one client; it sends jobs one at a time
to one worker process (``bench/worker.py``) and checks each result by an
independent route while the worker waits, outside the timed region.  A run
executes whole rounds of the workload (see ``workloads.py``), at least
three, until the measured job time reaches ``--seconds``.  Throughput and
median latency are medians of their per-round values; the tail latency is
taken over all jobs of the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
round untraced, then the same round with the per-layer tracer installed
(``tracing.py``), one job mix after the other, prints the per-layer
metrics, checks each mix's coverage and writes the spans to
``.bench_out/``.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent

END_TO_END = (
    ("jobs_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: fresh worker start-ups timed per run; setup_s is their median
SETUP_SAMPLES = 5


class Worker:
    """One worker process; its start-up time is ``setup_s``."""

    def __init__(self, root):
        env = dict(os.environ)
        env.pop("CYCLIC_DERANGEMENTS_BOUND", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=root,
        )
        try:
            self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def closed_loop(worker, rounds, seconds, check, min_rounds=1):
    """Run whole rounds, at least ``min_rounds``, until job time reaches ``seconds``.

    Returns one list per round of (job, seconds, failure reason or None).
    """
    done = []
    busy = 0.0
    for jobs in rounds:
        samples = []
        for job in jobs:
            reply = worker.ask({"op": "job", "call": job["call"]})
            samples.append((job, reply["elapsed"], check(job, reply)))
            busy += reply["elapsed"]
        done.append(samples)
        if busy >= seconds and len(done) >= min_rounds:
            break
    return done


def job_time(samples):
    return sum(elapsed for _, elapsed, _ in samples)


def nearest_rank(sorted_values, percentile):
    return sorted_values[max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)]


def end_to_end(rounds, tail_pct, setup_s, peak_rss_mb):
    """End-to-end metrics of a run.

    Throughput and median latency are medians of their per-round values;
    the tail percentile is taken over all jobs of the run.
    """
    throughput, p50 = [], []
    for samples in rounds:
        correct = sum(1 for _, _, failure in samples if failure is None)
        throughput.append(correct / job_time(samples))
        p50.append(statistics.median(elapsed for _, elapsed, _ in samples))
    times = sorted(elapsed for samples in rounds for _, elapsed, _ in samples)
    return {
        "jobs_per_s": statistics.median(throughput),
        "latency_p50_s": statistics.median(p50),
        "latency_tail_s": nearest_rank(times, tail_pct),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def read_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def measure_end_to_end(root, workload, stream, seconds, check, env, notes):
    setups = []
    for _ in range(SETUP_SAMPLES):
        probe = Worker(root)
        probe.close()
        setups.append(probe.setup_s)
    with Worker(root) as worker:
        rounds = closed_loop(worker, stream, seconds, check, workloads.MIN_ROUNDS)
        peak_rss_mb = worker.ask({"op": "report"})["peak_rss_mb"]
    setup_s = statistics.median(setups)
    tail_pct = workloads.tail_percentile(workloads.round_size(workload) * workloads.MIN_ROUNDS)
    env["rounds"] = len(rounds)
    env["tail_percentile"] = tail_pct
    notes.append(f"medians over {len(rounds)} rounds; latency_tail_s is p{tail_pct} "
                 f"of all {sum(map(len, rounds))} jobs")
    for mix in workloads.WORKLOADS[workload]:
        own = [[sample for sample in samples if sample[0]["mix"] == mix] for samples in rounds]
        pct = workloads.tail_percentile(len(own[0]) * workloads.MIN_ROUNDS)
        mix_metrics = end_to_end(own, pct, setup_s, peak_rss_mb)
        notes.append(
            f"mix {mix} ({len(own[0])} jobs a round, tail p{pct}): "
            + " ".join(f"{name}={mix_metrics[name]:.6g}"
                       for name in ("jobs_per_s", "latency_p50_s", "latency_tail_s"))
        )
    samples = [sample for samples in rounds for sample in samples]
    return samples, end_to_end(rounds, tail_pct, setup_s, peak_rss_mb), []


def measure_layers(root, workload, stream, check, env, notes):
    """One round untraced, then the same round traced, mix by mix."""
    mixes = workloads.WORKLOADS[workload]
    first = sorted(next(stream), key=lambda job: mixes.index(job["mix"]))
    traced, reports = [], []
    with Worker(root) as worker:
        plain = closed_loop(worker, [first], 0, check)[0]
        worker.ask({"op": "trace"})
        for mix in mixes:
            traced += closed_loop(worker, [[j for j in first if j["mix"] == mix]], 0, check)[0]
            reports.append(worker.ask({"op": "report"})["trace"])
    missing = reports[0]["missing"]
    coverage = []
    for mix, report in zip(mixes, reports):
        metrics = tracing.layer_metrics(report, 0.0)
        coverage += [f"{mix}: {failure}" for failure in
                     tracing.coverage_failures(metrics, workloads.COVERAGE[mix], missing)]
    notes += [f"coverage: {failure}" for failure in coverage]
    notes.append(f"coverage check {'failed' if coverage else 'passed'}")
    if missing:
        notes.append(f"not in the program, not traced: {', '.join(missing)}")
    overhead = (job_time(traced) - job_time(plain)) / job_time(plain)
    metrics = tracing.layer_metrics(tracing.merge_reports(reports), overhead)
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    spans_file = out / f"trace-{workload}-seed{env['seed']}.json"
    spans_file.write_text(json.dumps({
        "env": env,
        "metrics": metrics,
        "mixes": {mix: {"aggregates": r["aggregates"], "spans": r["spans"]}
                  for mix, r in zip(mixes, reports)},
    }))
    notes.append(f"spans written to {spans_file.relative_to(root)}")
    return plain + traced, metrics, coverage


def run_workload(root, workload, seed, seconds, trace):
    """One run; returns (result dict for the last line, environment, notes)."""
    import checks  # imports the package, so only once src is on sys.path

    stream = workloads.rounds(workload, seed)
    env = {
        "python": platform.python_version(),
        "commit": read_commit(root),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "jobs_per_round": workloads.round_size(workload),
    }
    notes = []
    if trace:
        samples, metrics, coverage = measure_layers(root, workload, stream, checks.check, env, notes)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        samples, metrics, coverage = measure_end_to_end(
            root, workload, stream, seconds, checks.check, env, notes
        )
        units = {name: unit for name, unit, _ in END_TO_END}
    env["jobs"] = len(samples)
    failures = [(job["label"], failure) for job, _, failure in samples if failure]
    notes += [f"FAILED {label}: {failure}" for label, failure in failures[:10]]
    result = {
        "correct": not failures and not coverage,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, env, notes


def print_run(result, env, notes):
    print(f"workload {env['workload']}  seed {env['seed']}  jobs {result['attempted']}  "
          f"failed {result['failed']}  failed_frac {result['failed'] / result['attempted']:g}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    print("env " + json.dumps(env, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cyclic_derangements" / "__init__.py").is_file():
        print("error: run from the repository root; src/cyclic_derangements is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, env, notes = run_workload(root, name, args.seed, args.seconds, args.trace)
        print_run(result, env, notes)
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    metric_names = list(next(iter(results.values()))["metrics"])
    if args.trace:  # one row per metric: there are dozens
        print(f"{'metric':40s} " + " ".join(f"{name:>18s}" for name in names))
        for m in metric_names:
            print(f"{m:40s} " + " ".join(f"{results[n]['metrics'][m]['value']:>18.6g}" for n in names))
    else:
        print(f"{'workload':18s} " + " ".join(f"{m:>15s}" for m in metric_names) + "  failed_frac")
        for name, result in results.items():
            cells = " ".join(f"{result['metrics'][m]['value']:>15.6g}" for m in metric_names)
            print(f"{name:18s} {cells}  {result['failed'] / result['attempted']:g}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
