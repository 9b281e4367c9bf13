"""The egocal benchmark: one command per workload run.

    python3 perfbench/run.py --workload noise-sweep-n50 --seed 0 --seconds 20 --trace 0

Steps, each in its own interpreter so the measuring process holds none of
the generator's objects:

1. gen.py writes the seeded inputs and their SHA-256.
2. With --trace 0, measure.py setup runs SETUP_REPEATS times: `import egocal`
   plus one warm-up request in a fresh interpreter. setup_s is the median.
3. measure.py run drives the requests as a closed loop with one caller.

Prints every metric by name and unit, writes the result file (metrics,
environment record, input hashes) under perfbench/_runs/, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Exit codes: 0 on success, 1 on a soundness violation or a crash of any
step, 2 when the checkout holds no egocal sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
STEP_TIMEOUT_S = 170
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The gated end-to-end metrics (see BENCHMARK.json) and their units.
END_TO_END = {
    "request_s.p50": "s",
    "requests_per_s": "1/s",
    "certified_fraction": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed and recorded, not gated: zero, undefined, too few samples on some
# workload, or (wall.*) raw wall-clock times that move with the host's load.
REPORTED = {
    "request_s.p90": "s",
    "error_fraction": "fraction",
    "rotation_error.p50": "frobenius",
    "wall.request_s.p50": "s",
    "wall.requests_per_s": "1/s",
    "wall.setup_s": "s",
    "reference_s.p50": "s",
}


def _step(*args):
    """Run one benchmark step; returns (exit code, last stdout line)."""
    proc = subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=common.ROOT,
        env=common.child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=STEP_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def source_lines() -> int:
    total = 0
    for path in sorted(common.PACKAGE.rglob("*.py")):
        with open(path, "rb") as fp:
            total += sum(1 for _ in fp)
    return total


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "src_egocal_lines": source_lines(),
    }


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
    return common.EXIT_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_checkout()

    env = environment()
    directory = common.RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)

    code, line = _step(HERE / "gen.py", "--workload", args.workload, "--seed", args.seed, "--out", directory)
    if code != 0:
        return _fail(f"input generation exited {code}")
    inputs = json.loads(line)

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            code, line = _step(HERE / "measure.py", "setup", directory)
            if code != 0:
                return _fail(f"set-up probe exited {code}")
            setups.append(json.loads(line))

    code, _ = _step(HERE / "measure.py", "run", directory, args.seconds, args.trace)
    out_path = directory / f"measure-trace{args.trace}.json"
    if code not in (common.EXIT_OK, common.EXIT_FAILED) or not out_path.is_file():
        return _fail(f"measuring process exited {code}")
    measured = json.loads(out_path.read_text())

    if args.trace:
        metrics = measured["per_layer"]
        reported = {}
    else:
        e2e = dict(
            measured["end_to_end"],
            setup_s=common.median([s["setup_s"] for s in setups]),
            **{"wall.setup_s": common.median([s["wall_setup_s"] for s in setups])},
        )
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
        reported = {name: {"value": e2e[name], "unit": unit} for name, unit in REPORTED.items()}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**env, **measured["environment"]},
        "inputs": inputs,
        "setup": setups,
        "metrics": metrics,
        "reported": reported,
        "missing": measured.get("missing", []),
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "errors": measured.get("errors", []),
        "violations": measured["violations"],
    }
    (directory / "result.json").write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"inputs sha256 {inputs['inputs_sha256']} ({inputs['input_bytes']} bytes of measurements)")
    print(f"environment {json.dumps(result['environment'], sort_keys=True)}")
    for name, metric in {**metrics, **reported}.items():
        value = "missing" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{args.workload} {name} = {value} {metric['unit']}")
    print(f"attempted {measured['attempted']} failed {measured['failed']} errors {result['errors']}")
    for violation in measured["violations"]:
        print(f"soundness violation: {json.dumps(violation)}", file=sys.stderr)
    print(f"result file {directory / 'result.json'}")

    correct = not measured["violations"]
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }))
    return common.EXIT_OK if correct else common.EXIT_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
