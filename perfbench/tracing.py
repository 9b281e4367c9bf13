"""Spans around egocal's layer entry points, recorded from outside the package.

Each entry point is wrapped by module attribute. `solver.calibrate` looks its
callees up in module globals at call time, so replacing every binding of the
original function object inside the loaded egocal modules routes calls
through the wrapper without touching the package's source.

Spans are kept in memory as (name, start, end, parent, request, extra) and
written out once when the run ends. Self time is a span's duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

from common import median

# (span name, module, attribute); the layer is the part of the name before the dot.
ENTRY_POINTS = (
    ("problem.load_measurements", "egocal.problem", "load_measurements"),
    ("problem.check_observability", "egocal.problem", "check_observability"),
    ("qcqp.assemble", "egocal.qcqp", "assemble"),
    ("qcqp.constraint_catalog", "egocal.qcqp", "constraint_catalog"),
    ("solver.build_sdp_problem", "egocal.solver", "build_sdp_problem"),
    ("sdp.solve", "egocal.sdp", "solve"),
    ("sdp.certify_lmi", "egocal.sdp", "certify_lmi"),
    ("solver.extract_solution", "egocal.solver", "extract_solution"),
    ("solver.recover_translation", "egocal.solver", "recover_translation"),
    ("solver._polish", "egocal.solver", "_polish"),
    ("solver.evaluate_cost", "egocal.solver", "evaluate_cost"),
    ("solver.calibrate", "egocal.solver", "calibrate"),
)
LAYERS = ("problem", "qcqp", "sdp", "solver")
REQUEST = "request"

NAME, START, END, PARENT, REQ, EXTRA = range(6)


def _annotate(name, args, result):
    """Counts taken at the boundary from the call's input or returned value."""
    if name == "problem.load_measurements" and args and isinstance(args[0], (str, bytes)):
        return {"bytes": len(args[0])}
    if name == "problem.check_observability":
        return {"distinct_axes": getattr(result, "distinct_axis_count", 0)}
    if name == "sdp.solve":
        return {"iterations": getattr(result, "iterations", 0), "optimal": getattr(result, "status", None) == "optimal"}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.request_id = None
        self.absent = []  # entry points whose attribute does not exist

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request_id, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[EXTRA] = _annotate(name, args, result)
            return result

        return traced

    def install(self):
        self.absent = []
        modules = [mod for key, mod in sys.modules.items() if key == "egocal" or key.startswith("egocal.")]
        for name, module_name, attr in ENTRY_POINTS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def request(self, request_id, fn):
        """Run fn() under a root span for one request."""
        self.request_id = request_id
        wrapped = self._wrap(REQUEST, fn)
        try:
            return wrapped()
        finally:
            self.request_id = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fp:
            for name, start, end, parent, request, extra in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                fp.write(json.dumps({**row, **(extra or {})}) + "\n")


def self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def per_layer_metrics(spans, absent=(), untraced_p50=None, scale=None, outside_scale=1.0):
    """Median-per-request layer metrics from one traced run.

    Times are multiplied by scale[request] (outside_scale for spans outside a
    request) to put them in the same normalised seconds as the end-to-end
    metrics. Returns (metrics, missing): metrics maps a name to (value, unit);
    missing lists entry points that do not exist or never fired. Their
    metrics are reported as None, never as zero.
    """
    scale = scale or {}
    selfs = self_times(spans)
    per_request = defaultdict(lambda: defaultdict(float))  # request -> key -> value
    outside = defaultdict(list)  # entry point -> self times of calls made outside a request
    fired = set()
    load_bytes = load_s = 0.0
    solve_s = solve_iterations = solve_calls = solve_optimal = 0
    for span, own in zip(spans, selfs):
        name, request, extra = span[NAME], span[REQ], span[EXTRA] or {}
        factor = outside_scale if request is None else scale.get(request, 1.0)
        own *= factor
        fired.add(name)
        if name == "problem.load_measurements":
            load_bytes += extra.get("bytes", 0)
            load_s += own
        if name == "sdp.solve":
            solve_s += own
            solve_calls += 1
            solve_iterations += extra.get("iterations", 0)
            solve_optimal += bool(extra.get("optimal"))
        if request is None:
            outside[name].append(own)
            continue
        row = per_request[request]
        row[name + ".self"] += own
        row[name + ".calls"] += 1
        if name == REQUEST:
            row["duration"] = (span[END] - span[START]) * factor
        else:
            row[name.split(".")[0] + ".layer"] += own
        for key, value in extra.items():
            row[f"{name}.{key}"] += value

    rows = list(per_request.values())
    missing = [name for name, _, _ in ENTRY_POINTS if name not in fired]

    def per_req(key):
        return median([row[key] for row in rows]) if rows else None

    def entry_s(name):
        if name in missing:
            return None
        if any(row[name + ".calls"] for row in rows):
            return per_req(name + ".self")
        return median(outside[name])  # fired only outside requests, e.g. pre-timing parse

    m = {}
    for name, _, _ in ENTRY_POINTS:
        if name != "solver.calibrate":
            m[name + ".s"] = (entry_s(name), "s")
    m["solver.calibrate.self_s"] = (entry_s("solver.calibrate"), "s")
    m["problem.load_measurements.mb_per_s"] = (
        load_bytes / 1e6 / load_s if load_s > 0 else None,
        "MB/s",
    )
    m["problem.check_observability.distinct_axes"] = (
        None if "problem.check_observability" in missing else per_req("problem.check_observability.distinct_axes"),
        "count",
    )
    has_solve = "sdp.solve" not in missing
    m["sdp.solve.iterations"] = (per_req("sdp.solve.iterations") if has_solve else None, "count")
    m["sdp.solve.s_per_iteration"] = (solve_s / solve_iterations if solve_iterations else None, "s")
    m["sdp.solve.optimal_fraction"] = (solve_optimal / solve_calls if solve_calls else None, "fraction")
    retry = [row["solver.extract_solution.calls"] > 1 for row in rows]
    m["solver.extract_solution.retry_fraction"] = (
        sum(retry) / len(retry) if rows and "solver.extract_solution" not in missing else None,
        "fraction",
    )
    m["solver.evaluate_cost.calls_per_request"] = (
        None if "solver.evaluate_cost" in missing else per_req("solver.evaluate_cost.calls"),
        "count",
    )
    for layer in LAYERS:
        shares = [row[layer + ".layer"] / row["duration"] for row in rows]
        m[layer + ".share"] = (median(shares) if shares else None, "fraction")
    traced_p50 = per_req("duration")
    m["trace.request_s.p50"] = (traced_p50, "s")
    m["trace.overhead_s"] = (
        traced_p50 - untraced_p50 if traced_p50 is not None and untraced_p50 is not None else None,
        "s",
    )
    # Request time not covered by any layer's self time: the benchmark's own glue.
    unaccounted = [row["duration"] - sum(row[layer + ".layer"] for layer in LAYERS) for row in rows]
    m["trace.unaccounted_s"] = (median(unaccounted) if rows else None, "s")
    return m, sorted(set(missing) | set(absent))
