"""Per-layer tracing for the benchmark worker, installed from outside the package.

``Tracer.install`` wraps the public functions of every module of the
package (the layers) and the methods of its arithmetic and Sturm classes.
A wrapped function is rebound in every module namespace and module-level
dict that refers to it (``counting`` imports ``major_index`` by name,
``verify.SUITES`` holds the suite functions), and a method is replaced on
its class.  Nothing inside the package changes.

Every wrapped call pushes a frame on one stack.  When it returns, its
duration minus the time of the wrapped calls it made is its self time.
Calls are aggregated per (parent, function); coarse boundaries (``cli``,
``verify``, ``counting``, ``roots``, ``series`` entry points and whole
jobs) are also kept as spans in memory.  A generator counts one call per
item it yields; the items of ``enumerate_group`` and
``enumerate_derangements`` are the enumerated elements.

``wreath.compare`` and ``wreath.letter_sort_key`` run once per letter pair
and are left unwrapped; their time counts as the caller's (``stats``).
Value classes of ``wreath`` and ``stats`` are left unwrapped for the same
reason.
"""

import inspect
import types
from time import perf_counter

from workloads import SUITES

LAYERS = ("cli", "verify", "counting", "roots", "series", "polynomials", "stats", "wreath")

#: layers whose public functions are recorded as spans, not only aggregates
SPAN_LAYERS = ("cli", "verify", "counting", "roots", "series")

#: classes whose methods are wrapped, per layer
CLASSES = {
    "polynomials": ("BivariatePolynomial", "QPoly", "RationalFunctionQ"),
    "roots": ("SturmChain",),
    "series": ("TruncatedSeries",),
}

UNWRAPPED = {"wreath.compare", "wreath.letter_sort_key"}

ELEMENT_SOURCES = {"wreath.enumerate_group", "wreath.enumerate_derangements"}

#: named per-layer metric -> traced function
FUNCTIONS = {
    "polynomials.bivariate_mul": "polynomials.BivariatePolynomial.__mul__",
    "polynomials.exact_div": "polynomials.BivariatePolynomial.exact_div",
    "polynomials.ratfunc_new": "polynomials.RationalFunctionQ.__init__",
    "polynomials.qpoly_evaluate": "polynomials.QPoly.evaluate",
    "polynomials.qpoly_divmod": "polynomials.QPoly.__divmod__",
    "series.divide": "series.series_divide",
    "roots.sturm_chain": "roots.SturmChain.__init__",
    "roots.count_roots": "roots.SturmChain.count_roots",
    "roots.isolate_roots": "roots.isolate_roots",
    "roots.interlacing": "roots.verify_interlacing",
}

#: every per-layer metric: (name, unit, better)
PER_LAYER = (
    [(f"{layer}.{what}", unit, "lower") for layer in LAYERS
     for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("wreath.elements", "count", "higher"),
        ("wreath.us_per_element", "us", "lower"),
        ("stats.us_per_element", "us", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
    ]
    + [(f"{metric}.{what}", unit, "lower")
       for metric in ("polynomials.bivariate_mul", "polynomials.exact_div",
                      "polynomials.ratfunc_new", "polynomials.qpoly_evaluate",
                      "polynomials.qpoly_divmod", "series.divide", "roots.sturm_chain")
       for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("polynomials.max_coeff_bits", "bits", "lower"),
        ("roots.count_roots.calls", "count", "lower"),
        ("roots.isolate_roots.self_s", "s", "lower"),
        ("roots.interlacing.self_s", "s", "lower"),
        ("verify.checks", "count", "higher"),
    ]
    + [(f"verify.suite.{suite}.busy_s", "s", "lower") for suite in SUITES]
    + [("trace.overhead_frac", "ratio", "lower")]
)


def _max_coeff_bits(poly):
    return max((abs(c).bit_length() for _, c in poly.terms()), default=0)


class Tracer:
    def __init__(self):
        self.wrapped = set()
        self.missing = []
        self.reset()

    def reset(self):
        """Drop what was recorded; the wrappers stay installed."""
        # frame: [name, child seconds, span id of the nearest span frame]
        self.stack = [["job", 0.0, None]]
        self.aggregates = {}  # (parent, name) -> [calls, total s, self s]
        self.spans = []  # (id, parent id, job, name, start, end)
        self.elements = 0
        self.checks = 0
        self.max_coeff_bits = 0
        self.output_bytes = 0
        self.job_index = -1

    # -- recording ---------------------------------------------------------

    def _push(self, name, span):
        parent_span = self.stack[-1][2]
        if span:
            span_id = len(self.spans)
            self.spans.append(None)  # reserved; filled on exit
        else:
            span_id = parent_span
        self.stack.append([name, 0.0, span_id])
        return parent_span

    def _pop(self, start, end, span, parent_span):
        name, child, span_id = self.stack.pop()
        duration = end - start
        parent = self.stack[-1]
        parent[1] += duration
        entry = self.aggregates.get((parent[0], name))
        if entry is None:
            entry = self.aggregates[(parent[0], name)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if span:
            self.spans[span_id] = (span_id, parent_span, self.job_index, name, start, end)

    def job(self, call):
        """Run ``call()`` as the root span of one job."""
        self.job_index += 1
        self.stack = [["job", 0.0, None]]
        parent_span = self._push("job", True)
        start = perf_counter()
        try:
            return call()
        finally:
            self._pop(start, perf_counter(), True, parent_span)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, span):
        tracer = self
        post = self._post(name)
        self.wrapped.add(name)

        if inspect.isgeneratorfunction(fn):
            counts = name in ELEMENT_SOURCES

            def traced_generator(*args, **kwargs):
                return tracer._iterate(fn(*args, **kwargs), name, counts)

            return traced_generator

        def traced(*args, **kwargs):
            parent_span = tracer._push(name, span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(start, perf_counter(), span, parent_span)
            if post is not None:
                post(result)
            return result

        return traced

    def _iterate(self, generator, name, counts):
        while True:
            parent_span = self._push(name, False)
            start = perf_counter()
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._pop(start, perf_counter(), False, parent_span)
            if counts:
                self.elements += 1
            yield item

    def _post(self, name):
        if name in (FUNCTIONS["polynomials.bivariate_mul"], FUNCTIONS["polynomials.exact_div"]):
            def bits(result):
                if result is not NotImplemented:
                    self.max_coeff_bits = max(self.max_coeff_bits, _max_coeff_bits(result))
            return bits
        if name.startswith("verify.suite_"):
            def count(result):
                self.checks += len(result)
            return count
        return None

    def install(self, package):
        """Wrap the layers of ``package`` (the imported top-level package)."""
        replaced = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, value in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    replaced[value] = self._wrap(value, name, layer in SPAN_LAYERS)
            for class_name in CLASSES.get(layer, ()):
                cls = getattr(module, class_name, None)
                if cls is not None:
                    self._wrap_class(cls, layer)
        for module in [package] + [getattr(package, layer) for layer in LAYERS]:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in replaced:
                    setattr(module, attr, replaced[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in replaced:
                            value[key] = replaced[item]
        self.missing = [t for t in FUNCTIONS.values() if t not in self.wrapped]

    def _wrap_class(self, cls, layer):
        done = {}
        for attr, value in list(vars(cls).items()):
            fn = value.__func__ if isinstance(value, classmethod) else value
            if not isinstance(fn, types.FunctionType):
                continue  # properties, slots, constants
            if fn.__name__ in ("__repr__", "__str__") or (
                fn.__name__.startswith("_") and not fn.__name__.startswith("__")
            ):
                continue
            if fn not in done:
                done[fn] = self._wrap(fn, f"{layer}.{cls.__name__}.{fn.__name__}", False)
            wrapped = done[fn]
            setattr(cls, attr, classmethod(wrapped) if isinstance(value, classmethod) else wrapped)

    # -- report ------------------------------------------------------------

    def report(self):
        functions = {}
        for (_, name), (calls, total, self_s) in self.aggregates.items():
            entry = functions.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        return {
            "functions": functions,
            "aggregates": [
                [parent, name, calls, total, self_s]
                for (parent, name), (calls, total, self_s) in self.aggregates.items()
            ],
            "spans": self.spans,
            "elements": self.elements,
            "checks": self.checks,
            "max_coeff_bits": self.max_coeff_bits,
            "output_bytes": self.output_bytes,
            "missing": self.missing,
        }


def merge_reports(reports):
    """One report for the jobs of several reports (functions and counters)."""
    functions = {}
    for report in reports:
        for name, values in report["functions"].items():
            entry = functions.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
    return {
        "functions": functions,
        "elements": sum(r["elements"] for r in reports),
        "checks": sum(r["checks"] for r in reports),
        "max_coeff_bits": max(r["max_coeff_bits"] for r in reports),
        "output_bytes": sum(r["output_bytes"] for r in reports),
    }


def layer_metrics(report, overhead_frac):
    """Per-layer metrics named as in PER_LAYER, from a trace report."""
    functions = report["functions"]
    metrics = {}
    for layer in LAYERS:
        own = [v for name, v in functions.items() if name.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = sum(v[0] for v in own)
        metrics[f"{layer}.self_s"] = sum(v[2] for v in own)
    elements = report["elements"]
    metrics["wreath.elements"] = elements
    for layer in ("wreath", "stats"):
        metrics[f"{layer}.us_per_element"] = (
            metrics[f"{layer}.self_s"] / elements * 1e6 if elements else 0.0
        )
    metrics["cli.output_bytes"] = report["output_bytes"]
    for metric, target in FUNCTIONS.items():
        calls, total, self_s = functions.get(target, (0, 0.0, 0.0))
        metrics[f"{metric}.calls"] = calls
        metrics[f"{metric}.self_s"] = self_s
    metrics["polynomials.max_coeff_bits"] = report["max_coeff_bits"]
    metrics["verify.checks"] = report["checks"]
    for suite in SUITES:
        metrics[f"verify.suite.{suite}.busy_s"] = functions.get(
            f"verify.suite_{suite}", (0, 0.0, 0.0)
        )[1]
    metrics["trace.overhead_frac"] = overhead_frac
    return {name: metrics[name] for name, _, _ in PER_LAYER}


def coverage_failures(metrics, expected, missing):
    """Counters that break the workload's coverage expectation.

    A counter whose traced function no longer exists in the program is
    skipped, so removing a function does not read as a misplaced wrapper.
    """
    gone = {key for key, target in FUNCTIONS.items() if target in missing}
    failures = []
    for name in expected["nonzero"]:
        if not metrics[name] and name.rsplit(".", 1)[0] not in gone:
            failures.append(f"{name} is 0, expected nonzero")
    for name in expected["zero"]:
        if metrics[name]:
            failures.append(f"{name} is {metrics[name]}, expected 0")
    return failures
