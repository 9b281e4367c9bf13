"""The measuring process: one fresh interpreter per use.

    python3 perfbench/measure.py setup DIR        # import + one warm-up request
    python3 perfbench/measure.py run DIR SECONDS TRACE

`setup` times `import egocal` plus the warm-up request in DIR/warmup.json and
prints {"setup_s", "wall_setup_s", ...}.

`run` drives the requests in DIR/inputs.json through the public API as a
closed loop with one caller: the next request starts when the previous one
returns. It loops for SECONDS and at least one full pass over the distinct
requests, checks every result against the soundness gate, and writes
DIR/measure-trace<TRACE>.json. With TRACE=1 the time is split into an
untraced half and a traced half, and the spans go to DIR/spans.jsonl.

The machine-speed reference (common.reference_seconds) is timed before
set-up, after it, and between requests; each normalised time uses the mean
of the reference times just before and just after the interval. A request
that runs longer than SAMPLE_INTERVAL_S is also sampled while it runs (see
SpeedSampler), and those samples join the mean.

Exits 1 on a soundness violation. An exception other than CalibrationError
propagates and exits nonzero with its traceback.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

import common

SAMPLE_INTERVAL_S = 0.25


class SpeedSampler:
    """Times one run of the reference every SAMPLE_INTERVAL_S while a request runs.

    A request of several seconds (log-n1000) outlasts the host's speed swings,
    so the two reference timings around it say little about the speed during
    it. While armed, a SIGALRM interval timer runs the reference in the main
    thread between bytecodes of the request; `spent` is the handler's own time,
    which the caller subtracts from the request's time. A request shorter than
    the interval is never sampled.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(common.reference_seconds(1))
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _request_fn(egocal, workload, request, datasets, parsed):
    """A zero-argument callable running one request, looked up at call time."""
    dataset = datasets[request["dataset"]]
    kind = request["constraint_set"]
    if workload in common.PARSE_IN_REQUEST:
        text = dataset["text"]
        return lambda: egocal.solver.calibrate(egocal.problem.load_measurements(text), kind)
    m = parsed[request["dataset"]]
    return lambda: egocal.solver.calibrate(m, kind)


def _check(result, dataset):
    """(verdict, sound, rotation error or None) of one result."""
    verdict = result.certificate.verdict
    ok = common.sound(verdict, result.cost, dataset["reference_cost"])
    error = None
    if dataset["truth"]:
        import numpy as np

        error = float(np.linalg.norm(result.extrinsic.rotation.m - np.asarray(dataset["theta"]["R"])))
    return verdict, ok, error


def _warm_up(egocal, warm):
    """Run the warm-up request; returns whether it passed the soundness gate."""
    from egocal.errors import CalibrationError

    dataset = warm["dataset"]
    try:
        result = egocal.solver.calibrate(egocal.problem.load_measurements(dataset["text"]), warm["constraint_set"])
    except CalibrationError:
        return True  # a refused request has no cost to check and still warms the path
    return _check(result, dataset)[1]


def _normalised(seconds, before, after, samples=()):
    """(reference seconds, normalised seconds) for an interval between two reference
    timings, with any reference samples taken during it."""
    times = [before, after, *samples]
    reference = sum(times) / len(times)
    return reference, seconds * common.REFERENCE_S / reference


def setup(directory: Path) -> dict:
    before = common.reference_seconds()
    t0 = perf_counter()
    egocal = common.import_egocal()
    t1 = perf_counter()
    warm = json.loads((directory / "warmup.json").read_text())
    t2 = perf_counter()
    ok = _warm_up(egocal, warm)
    t3 = perf_counter()
    reference, setup_s = _normalised((t1 - t0) + (t3 - t2), before, common.reference_seconds())
    if not ok:
        raise SystemExit("perfbench: warm-up result failed the soundness gate")
    return {
        "import_s": t1 - t0,
        "warmup_s": t3 - t2,
        "wall_setup_s": (t1 - t0) + (t3 - t2),
        "reference_s": reference,
        "setup_s": setup_s,
    }


def closed_loop(calls, seconds, min_requests, run_one):
    """Run calls cyclically for `seconds` and at least `min_requests`; returns records.

    The reference is timed between requests, outside each request's time.
    """
    records = []
    start = perf_counter()
    before = common.reference_seconds()
    i = 0
    while i < min_requests or perf_counter() - start < seconds:
        record = run_one(i, calls[i % len(calls)])
        after = common.reference_seconds()
        record["reference_s"], record["norm_s"] = _normalised(record["s"], before, after, record.pop("samples"))
        records.append(record)
        before = after
        i += 1
    return records


def blas_threads() -> dict:
    """Thread counts reported by each OpenBLAS loaded in this process (Linux only)."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fp:
            libs = sorted({line.split()[-1] for line in fp if "openblas" in line.lower()})
    except OSError:
        return out
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
    }


def _end_to_end(records, distinct):
    first_pass = records[:distinct]
    wall = [r["s"] for r in records]
    norm = [r["norm_s"] for r in records]
    rot = [r["rotation_error"] for r in first_pass if r["rotation_error"] is not None]
    return {
        "request_s.p50": common.median(norm),
        "request_s.p90": common.percentile(norm, 0.9) if len(norm) >= 100 else None,
        "requests_per_s": len(norm) / sum(norm),
        "certified_fraction": sum(r["verdict"] == "CertifiedGlobal" for r in first_pass) / len(first_pass),
        "error_fraction": sum(r["error"] is not None for r in first_pass) / len(first_pass),
        "rotation_error.p50": common.median(rot) if rot else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall.request_s.p50": common.median(wall),
        "wall.requests_per_s": len(wall) / sum(wall),
        "reference_s.p50": common.median([r["reference_s"] for r in records]),
    }


def run(directory: Path, seconds: float, trace: bool) -> int:
    egocal = common.import_egocal()
    from egocal.errors import CalibrationError

    inputs = json.loads((directory / "inputs.json").read_text())
    workload = inputs["workload"]
    datasets = inputs["datasets"]
    requests = inputs["requests"]

    violations = []
    # Untimed warm-up, so lazy imports and first-call costs stay out of the loop.
    if not _warm_up(egocal, json.loads((directory / "warmup.json").read_text())):
        violations.append({"request": "warm-up"})

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()  # so the pre-timing parse below is traced too
    before = common.reference_seconds()
    parsed = {}
    if workload not in common.PARSE_IN_REQUEST:
        parsed = {i: egocal.problem.load_measurements(d["text"]) for i, d in enumerate(datasets)}
    parse_reference = 0.5 * (before + common.reference_seconds())
    calls = [_request_fn(egocal, workload, r, datasets, parsed) for r in requests]
    sampler = SpeedSampler()

    def run_one(i, call, traced=False):
        request = requests[i % len(requests)]
        dataset = datasets[request["dataset"]]
        t0 = perf_counter()
        with sampler:
            try:
                result = tracer.request(i, call) if traced else call()
                error_name = None
            except CalibrationError as exc:
                result, error_name = None, type(exc).__name__
        elapsed = perf_counter() - t0 - sampler.spent
        record = {"i": i, "s": elapsed, "samples": sampler.samples, "speed_samples": len(sampler.samples),
                  "error": error_name, "verdict": None, "rotation_error": None}
        if result is not None:
            verdict, ok, rot_err = _check(result, dataset)
            record.update(verdict=verdict, rotation_error=rot_err)
            if not ok:
                violations.append({"request": i, **request, "cost": result.cost,
                                   "reference_cost": dataset["reference_cost"]})
        return record

    out = {"workload": workload, "environment": environment()}
    if trace:
        from tracing import per_layer_metrics

        tracer.uninstall()
        untraced = closed_loop(calls, seconds / 2.0, 1, run_one)
        tracer.install()
        traced = closed_loop(calls, seconds / 2.0, 1, lambda i, call: run_one(i, call, traced=True))
        tracer.uninstall()
        tracer.write(directory / "spans.jsonl")
        metrics, missing = per_layer_metrics(
            tracer.spans,
            tracer.absent,
            untraced_p50=common.median([r["norm_s"] for r in untraced]),
            scale={r["i"]: common.REFERENCE_S / r["reference_s"] for r in traced},
            outside_scale=common.REFERENCE_S / parse_reference,
        )
        records = untraced + traced
        out.update(per_layer={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   missing=missing, untraced_requests=len(untraced), traced_requests=len(traced))
    else:
        records = closed_loop(calls, seconds, len(calls), run_one)
        out["end_to_end"] = _end_to_end(records, len(calls))
        out["errors"] = sorted({r["error"] for r in records if r["error"]})
    out.update(attempted=len(records), failed=sum(r["error"] is not None for r in records),
               violations=violations)
    (directory / f"measure-trace{int(trace)}.json").write_text(json.dumps(out, indent=1))
    with open(directory / f"requests-trace{int(trace)}.jsonl", "w", encoding="utf-8") as fp:
        fp.writelines(json.dumps(r) + "\n" for r in records)
    return common.EXIT_FAILED if violations else common.EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(json.dumps(setup(Path(argv[1]))))
        return 0
    if argv[:1] == ["run"] and len(argv) == 4:
        return run(Path(argv[1]), float(argv[2]), argv[3] == "1")
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
