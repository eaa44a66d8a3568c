"""Benchmark worker: runs one job per request, in-process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the source tree.  It
imports the package, builds the CLI parser once as warm-up, then prints
``{"ready": true}`` and answers one JSON request per stdin line with one
JSON line on stdout:

  {"op": "job", "call": {...}}  run the job; reply with its time and digest
  {"op": "trace"}               install the per-layer tracer for later jobs
  {"op": "report"}              peak RSS and the trace report, then a fresh trace

Only the job itself is timed.  Turning its output into a digest for the
client's checks (parsing JSON, tallying ``dump`` lines) happens after the
clock stops.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time
from collections import Counter

import cyclic_derangements
from cyclic_derangements import cli, wreath

ORDERS = {"standard": wreath.STANDARD, "alternate": wreath.ALTERNATE}

DUMP_KEYS = ("maj", "des", "sgn", "exc", "sub")


def _callable(call):
    if "argv" in call:
        return lambda: cyclic_derangements.cli.main(call["argv"])
    module, name = call["fn"].split(".")
    fn = getattr(getattr(cyclic_derangements, module), name)
    kwargs = {"order": ORDERS[call["order"]]} if call.get("order") else {}
    return lambda: fn(*call["args"], **kwargs)


def _lines(text):
    """Lines of ``text`` one at a time, without a list of all of them."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1


def dump_digest(text):
    """Line count, key check and statistic tallies of ``dump`` output."""
    lines = 0
    keys_ok = True
    maj_sgn, exc, des = Counter(), Counter(), Counter()
    for line in _lines(text):
        record = json.loads(line)
        lines += 1
        if any(key not in record for key in DUMP_KEYS):
            keys_ok = False
            continue
        maj_sgn[record["maj"], record["sgn"]] += 1
        exc[record["exc"]] += 1
        des[record["des"]] += 1
    return {
        "lines": lines,
        "keys_ok": keys_ok,
        "maj_sgn": [[m, s, c] for (m, s), c in sorted(maj_sgn.items())],
        "exc": sorted(exc.items()),
        "des": sorted(des.items()),
    }


def value_digest(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, list):
        return [value_digest(item) for item in value]
    return value


class Worker:
    def __init__(self):
        self.tracer = None

    def job(self, call):
        run = _callable(call)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                value = self.tracer.job(run) if self.tracer else run()
        except Exception as exc:  # a failed job is reported, the loop goes on
            elapsed = time.perf_counter() - start
            return {"elapsed": elapsed, "error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        reply = {"elapsed": elapsed, "error": None}
        if "argv" in call:
            text = out.getvalue()
            if self.tracer:
                self.tracer.output_bytes += len(text.encode())
            reply["exit"] = value
            reply["stderr"] = err.getvalue()[-500:]
            try:
                reply["digest"] = (
                    dump_digest(text) if call["argv"][0] == "dump" else json.loads(text)
                )
            except ValueError as exc:
                reply["error"] = f"unparsable output: {exc}"
        else:
            reply["digest"] = value_digest(value)
        return reply

    def handle(self, request):
        op = request["op"]
        if op == "job":
            reply = self.job(request["call"])
            gc.collect()
            return reply
        if op == "trace":
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install(cyclic_derangements)
            return {"ok": True}
        if op == "report":
            reply = {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "trace": self.tracer.report() if self.tracer else None,
            }
            if self.tracer:
                self.tracer.reset()
            return reply
        raise ValueError(f"unknown op {op!r}")


def main():
    channel = sys.stdout
    cli.build_parser()
    worker = Worker()
    channel.write('{"ready": true}\n')
    channel.flush()
    for line in sys.stdin:
        channel.write(json.dumps(worker.handle(json.loads(line))) + "\n")
        channel.flush()


if __name__ == "__main__":
    main()
