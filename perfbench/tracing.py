"""Layer spans and counters recorded from outside the rhiconst package.

The tracer replaces public functions of the package modules with wrappers
while it is installed, and puts the originals back when it is removed.  A
wrapper records a span (name, start, end, parent span, operation) for each
call and adds the call's time, less the time of traced calls made inside
it, to the name's self time.  The hot inner calls (mean_ratio, quad_mean)
are aggregated without keeping their spans, and the integrand
(FunctionSpec.power_values of each base spec class) only counts calls and
nodes.  Spans stay in memory until write_spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name, keep individual spans)
TRACED_FUNCTIONS = (
    ("cli", "main", "cli.main", True),
    ("cli", "estimate_halfline", "generic.estimate_halfline", True),
    ("cli", "extension_ratio", "generic.extension_ratio", True),
    ("cli", "table_from_csv", "means.table_from_csv", True),
    ("generic", "estimate_halfline", "generic.estimate_halfline", True),
    ("generic", "estimate_extension", "generic.estimate_extension", True),
    ("generic", "mean_ratio", "means.mean_ratio", False),
    ("means", "quad_mean", "means.quad_mean", False),
    ("classconst", "class_constants", "classconst.class_constants", True),
    ("classconst", "gamma_sweep", "classconst.gamma_sweep", True),
    ("classconst", "power_report", "power.power_report", True),
    ("power", "maximize_curve", "power.maximize_curve", True),
    ("oracle", "brute_halfline", "oracle.brute_halfline", True),
    ("oracle", "brute_extension", "oracle.brute_extension", True),
)

# Base spec classes whose power_values is the quadrature integrand.
# EvenExtensionView is left out: the quadrature unwraps it to its base.
INTEGRAND_CLASSES = ("FunctionSpec", "PowerLaw")


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.raised: Counter = Counter()  # (name, exception type) -> count
        self.integrand_calls = 0
        self.integrand_nodes = 0
        self.search_points = 0
        self.operation = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time spent in traced children]
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module, attr, name, keep in TRACED_FUNCTIONS:
            owner = getattr(self.package, module)
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), keep))
        for cls_name in INTEGRAND_CLASSES:
            cls = getattr(self.package.means, cls_name)
            self._patch(cls, "power_values", self._count_integrand(cls.__dict__["power_values"]))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, keep: bool):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = None
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                if keep:
                    tracer.spans.append((span_id, parent, name, start, end, tracer.operation))
            if name.startswith("generic.estimate_"):
                tracer.search_points += result.search_points
            return result

        return traced

    def _count_integrand(self, fn):
        tracer = self

        def counted(spec, x, order):
            tracer.integrand_calls += 1
            tracer.integrand_nodes += np.size(x)
            return fn(spec, x, order)

        return counted

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
