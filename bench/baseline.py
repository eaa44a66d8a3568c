"""Repeat runs over several seeds and summarize each end-to-end metric.

    python3 bench/baseline.py --seeds 1..10 [--workload algebra-certify ...] [--record]

Runs ``bench/run.py`` once per workload and seed (untraced), then prints
per metric the median, the quartiles and the spread, which is the
interquartile range as a share of the median.  With ``--record`` it
appends the summary, with the environment, to ``bench/baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None):
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1..10", help="inclusive range A..B")
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    low, _, high = args.seeds.partition("..")
    seeds = range(int(low), int(high or low) + 1)

    summary = {}
    env = None
    for workload in args.workload or workloads.WORKLOADS:
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} is not correct:\n{proc.stdout}")
            runs.append({m: v["value"] for m, v in result["metrics"].items()} | {"jobs": env["jobs"]})
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{m}={v:.6g}" for m, v in runs[-1].items()), flush=True)
        summary[workload] = {
            "jobs": [run["jobs"] for run in runs],
            "metrics": {m: summarize([run[m] for run in runs]) for m in runs[0] if m != "jobs"},
        }
        for metric, stats in summary[workload]["metrics"].items():
            print(f"  {workload:10s} {metric:16s} median {stats['median']:.6g}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}")
    if args.record:
        path = BENCH / "baseline.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        env = {k: env[k] for k in ("python", "commit", "nproc")}
        entries.append({"env": env, "seeds": f"{seeds.start}..{seeds.stop - 1}",
                        "seconds": args.seconds, "workloads": summary})
        path.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    main()
