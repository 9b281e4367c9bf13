"""Tests of the benchmark itself: smoke runs, the soundness gate, determinism
of the inputs and the refusal to run without egocal sources.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=common.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float | int), metric["name"]
        assert f"{workload} {metric['name']} = " in proc.stdout
    record = json.loads((common.RUNS / f"{workload}-seed0-trace{trace}" / "result.json").read_text())
    for key in ("nproc", "loadavg_at_start", "numpy", "scipy", "blas", "blas_env", "src_egocal_lines"):
        assert key in record["environment"]
    assert len(record["inputs"]["inputs_sha256"]) == 64


def test_soundness_gate_rejects_certified_cost_above_reference():
    reference = 2.0
    assert common.sound("CertifiedGlobal", reference * (1 + 1e-12), reference)
    assert not common.sound("CertifiedGlobal", reference * (1 + 1e-6), reference)
    assert common.sound("NotCertified", reference * 10, reference)
    assert not common.sound("NotCertified", float("nan"), reference)

    dataset = {"reference_cost": reference, "truth": False}
    fabricated = SimpleNamespace(
        certificate=SimpleNamespace(verdict="CertifiedGlobal"),
        cost=reference * 1.01,
    )
    _, ok, _ = measure._check(fabricated, dataset)
    assert not ok


def test_reference_cost_matches_package_cost():
    common.import_egocal()
    from egocal import sim
    from egocal.problem import load_measurements
    from egocal.solver import evaluate_cost

    datasets, _, _ = gen.two_motion_hard(0)
    theta = sim.DEFAULT_THETA
    for d in datasets[:5]:
        ours = d["reference_cost"]
        theirs = evaluate_cost(load_measurements(d["text"]), theta)
        assert ours == pytest.approx(theirs, rel=1e-12)


def test_inputs_repeat_exactly_at_a_seed(tmp_path):
    common.import_egocal()
    first = gen.generate(common.TWO_MOTION, 3, tmp_path / "a")
    second = gen.generate(common.TWO_MOTION, 3, tmp_path / "b")
    other = gen.generate(common.TWO_MOTION, 4, tmp_path / "c")
    assert first == second
    assert first["inputs_sha256"] != other["inputs_sha256"]
    assert first["requests_per_pass"] == gen.TWO_MOTION_GRID**2 * len(common.CONSTRAINT_SETS)


def test_refuses_to_run_without_egocal_sources():
    bare = common.RUNS / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(["--workload", common.TWO_MOTION, "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
