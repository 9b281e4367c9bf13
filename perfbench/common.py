"""Definitions shared by the benchmark's steps: paths, workloads, the
reference cost, the soundness gate and the machine-speed reference.

Nothing here imports egocal, so the orchestrator can use it without loading
numpy or the package under test.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "egocal"
RUNS = Path(__file__).resolve().parent / "_runs"

NOISE_SWEEP = "noise-sweep-n50"
LOG_N1000 = "log-n1000"
TWO_MOTION = "two-motion-hard"
WORKLOADS = (NOISE_SWEEP, LOG_N1000, TWO_MOTION)

CONSTRAINT_SETS = ("r", "r+c", "r+h", "r+c+h")

# Workloads whose requests include parsing the JSON-lines text; the others
# parse every dataset once before timing.
PARSE_IN_REQUEST = {LOG_N1000}

SOUNDNESS_REL_TOL = 1e-9

# Machine-speed reference. The host this benchmark runs on is shared: its
# speed swings by up to 2x over tens of seconds as other tenants load the
# cores, which moves raw request times by far more than any bound. Every
# timing is therefore also measured against a fixed pure-Python computation
# timed just before and just after it, and reported in normalised seconds:
#     normalised = wall seconds * REFERENCE_S / (reference time around it)
# REFERENCE_S is the time of reference_work() on an uncontended vCPU of a
# 2-vCPU x86-64 host with CPython 3.11, so there normalised and wall seconds
# agree. The reference touches no numpy or BLAS, so a change to the
# program's threading or numerics cannot move it.
REFERENCE_ITERATIONS = 15000
REFERENCE_S = 0.0033
REFERENCE_REPEATS = 3

# Exit codes of the benchmark command.
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_NO_CHECKOUT = 2


def require_checkout() -> None:
    """Exit unless the egocal sources sit beside the benchmark directory."""
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no egocal sources at {PACKAGE}", file=sys.stderr)
        sys.exit(EXIT_NO_CHECKOUT)


def import_egocal():
    """Import egocal from this checkout's src/, never from site-packages."""
    require_checkout()
    sys.path.insert(0, str(SRC))
    import egocal

    if Path(egocal.__file__).resolve().parent != PACKAGE.resolve():
        print(f"perfbench: egocal imported from {egocal.__file__}, not {PACKAGE}", file=sys.stderr)
        sys.exit(EXIT_NO_CHECKOUT)
    return egocal


def child_env() -> dict:
    """Environment for the benchmark's own subprocesses.

    BLAS thread settings are inherited unchanged: the benchmark records them
    but never sets them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def parse_pairs(text: str):
    """Plain-JSON parse of measurement lines into lists, independent of egocal."""
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    ra = [r["a"]["R"] for r in records]
    rb = [r["b"]["R"] for r in records]
    ta = [r["a"]["t"] for r in records]
    tb = [r["b"]["t"] for r in records]
    kappa = [float(r.get("kappa", 1.0)) for r in records]
    tau = [float(r.get("tau", 1.0)) for r in records]
    return ra, rb, ta, tb, kappa, tau


def reference_cost(text: str, rotation, translation) -> float:
    """Weighted calibration cost at a given extrinsic, computed with plain numpy.

    sum_i kappa_i |R Ra_i - Rb_i R|_F^2 + tau_i |R ta_i + t - Rb_i t - tb_i|^2
    """
    import numpy as np

    ra, rb, ta, tb, kappa, tau = (np.asarray(x, dtype=float) for x in parse_pairs(text))
    r = np.asarray(rotation, dtype=float)
    t = np.asarray(translation, dtype=float)
    rot_res = np.einsum("ij,njk->nik", r, ra) - np.einsum("nij,jk->nik", rb, r)
    trans_res = ta @ r.T + t - np.einsum("nij,j->ni", rb, t) - tb
    return float(kappa @ np.sum(rot_res**2, axis=(1, 2)) + tau @ np.sum(trans_res**2, axis=1))


def sound(verdict: str, cost: float, reference: float) -> bool:
    """Soundness gate: a certified cost may not exceed the cost at a known feasible point."""
    if not math.isfinite(cost):
        return False
    if verdict != "CertifiedGlobal":
        return True
    return cost <= reference or math.isclose(cost, reference, rel_tol=SOUNDNESS_REL_TOL)


def reference_work() -> float:
    """Fixed pure-Python work: float arithmetic, list indexing and dict stores."""
    values = [((i * 7919) % 1000) / 1000.0 for i in range(200)]
    table = {}
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        x = values[i % 200]
        acc += math.sqrt(x * x + 1.0) - abs(x - 0.5)
        table[i & 255] = acc
        if i % 3 == 0:
            acc -= len(table) * 1e-6
    return acc


def reference_seconds(repeats: int = REFERENCE_REPEATS) -> float:
    """Median time of `repeats` runs of the reference computation."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return median(times)


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values, q: float):
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
