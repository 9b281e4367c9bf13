import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import egocal
from conftest import loose_two_motion_instance
from egocal import cli, geom, sdp, sim, solver
from egocal.errors import InvalidRotation, ParseError
from egocal.geom import RotationMatrix, Transform
from egocal.problem import MeasurementSet, dump_measurements


def _write_two_motion_fixture(path, theta=sim.DEFAULT_THETA):
    m = sim.two_motion_instance(theta)
    with open(path, "w", encoding="utf-8") as fp:
        dump_measurements(m, fp)
    return m


def test_calibrate_noise_free_exit_zero(tmp_path):
    fixture = tmp_path / "clean.jsonl"
    _write_two_motion_fixture(fixture)
    out = tmp_path / "report.json"
    code = cli.main(["calibrate", "--input", str(fixture), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["certificate"]["verdict"] == "CertifiedGlobal"
    got = np.asarray(report["theta"]["R"])
    assert np.linalg.norm(got - sim.DEFAULT_THETA.rotation.m) < 1e-6


def test_calibrate_not_certified_exit_two(tmp_path):
    # R-only constraints go loose for this particular pi/2 perturbation axis
    axis = sim.fibonacci_sphere(100)[40]
    m = sim._perturb_instance(sim.two_motion_instance(), axis, np.pi / 2)
    fixture = tmp_path / "loose.jsonl"
    with open(fixture, "w", encoding="utf-8") as fp:
        dump_measurements(m, fp)
    out = tmp_path / "report.json"
    code = cli.main(
        ["calibrate", "--input", str(fixture), "--output", str(out), "--constraint-set", "r"]
    )
    assert code == 2
    report = json.loads(out.read_text())
    assert report["certificate"]["verdict"] == "NotCertified"


def test_calibrate_malformed_line_exit_one(tmp_path, capsys):
    fixture = tmp_path / "bad.jsonl"
    good = json.dumps(
        {
            "t": 0,
            "a": {"R": np.eye(3).tolist(), "t": [0, 0, 0]},
            "b": {"R": np.eye(3).tolist(), "t": [0, 0, 0]},
        }
    )
    fixture.write_text(good + "\n{broken\n")
    code = cli.main(["calibrate", "--input", str(fixture)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_calibrate_missing_file_exit_one(tmp_path, capsys):
    code = cli.main(["calibrate", "--input", str(tmp_path / "absent.jsonl")])
    assert code == 1
    assert capsys.readouterr().err != ""


def test_calibrate_single_axis_exit_one(tmp_path, capsys):
    r = [geom.rotation_about(np.array([0.0, 0.0, 1.0]), angle).m for angle in (0.5, 1.1)]
    t = np.tile([1.0, 0.0, 0.0], (2, 1))
    fixture = tmp_path / "planar.jsonl"
    with open(fixture, "w", encoding="utf-8") as fp:
        dump_measurements(MeasurementSet(r, r, t, t, np.ones(2), np.ones(2)), fp)
    code = cli.main(["calibrate", "--input", str(fixture)])
    assert code == 1
    assert "single axis" in capsys.readouterr().err


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for prefix in (a, b):
        code = cli.main(
            ["simulate", "--output", str(prefix), "--seed", "9", "--n-motions", "12"]
        )
        assert code == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a_truth.json").read_bytes() == (tmp_path / "b_truth.json").read_bytes()
    assert (tmp_path / "a_path.csv").read_bytes() == (tmp_path / "b_path.csv").read_bytes()


def test_simulate_then_calibrate_round_trip(tmp_path):
    prefix = tmp_path / "run"
    code = cli.main(
        ["simulate", "--output", str(prefix), "--seed", "10", "--n-motions", "25"]
    )
    assert code == 0
    out = tmp_path / "report.json"
    code = cli.main(["calibrate", "--input", str(prefix) + ".jsonl", "--output", str(out)])
    assert code == 0
    truth = json.loads((tmp_path / "run_truth.json").read_text())
    report = json.loads(out.read_text())
    assert np.linalg.norm(
        np.asarray(report["theta"]["R"]) - np.asarray(truth["theta"]["R"])
    ) < 1e-6
    assert np.linalg.norm(
        np.asarray(report["theta"]["t"]) - np.asarray(truth["theta"]["t"])
    ) < 1e-6


def test_simulate_accepts_a_negative_amplitude(tmp_path):
    # a negative amplitude flips the terrain; only a non-finite one is refused
    prefix = str(tmp_path / "neg")
    argv = ["simulate", "--output", prefix, "--seed", "3", "--n-motions", "12"]
    assert cli.main([*argv, "--amplitude", "-1.5"]) == 0
    assert json.loads(Path(prefix + "_truth.json").read_text())["observability"]["observable"]


def test_simulate_flat_terrain_flags_unobservable(tmp_path):
    prefix = tmp_path / "flat"
    code = cli.main(
        [
            "simulate",
            "--output",
            str(prefix),
            "--seed",
            "11",
            "--n-motions",
            "15",
            "--amplitude",
            "0",
        ]
    )
    assert code == 0

    def reject(name):  # Infinity, -Infinity and NaN are not JSON (RFC 8259)
        raise ValueError(f"non-standard JSON constant {name}")

    truth = json.loads((tmp_path / "flat_truth.json").read_text(), parse_constant=reject)
    assert truth["observability"] == {"observable": False, "condition_estimate": None}


def test_certify_self_consistency(tmp_path):
    fixture = tmp_path / "clean.jsonl"
    _write_two_motion_fixture(fixture)
    report_path = tmp_path / "report.json"
    assert cli.main(["calibrate", "--input", str(fixture), "--output", str(report_path)]) == 0
    out = tmp_path / "cert.json"
    code = cli.main(
        [
            "certify",
            "--input",
            str(fixture),
            "--theta",
            str(report_path),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["certified"] is True


def test_certify_ground_truth_zero_gap(tmp_path):
    fixture = tmp_path / "clean.jsonl"
    _write_two_motion_fixture(fixture)
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(
        json.dumps(
            {
                "theta": {
                    "R": sim.DEFAULT_THETA.rotation.m.tolist(),
                    "t": sim.DEFAULT_THETA.translation.tolist(),
                }
            }
        )
    )
    out = tmp_path / "cert.json"
    code = cli.main(
        ["certify", "--input", str(fixture), "--theta", str(theta_path), "--output", str(out)]
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["gap"] < 1e-8


def test_certify_perturbed_candidate_rejected(tmp_path):
    fixture = tmp_path / "clean.jsonl"
    _write_two_motion_fixture(fixture)
    offset = geom.rotation_about(np.array([0.0, 0.0, 1.0]), 0.5)
    bad = Transform(
        RotationMatrix(sim.DEFAULT_THETA.rotation.m @ offset.m),
        sim.DEFAULT_THETA.translation,
    )
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(
        json.dumps({"theta": {"R": bad.rotation.m.tolist(), "t": bad.translation.tolist()}})
    )
    out = tmp_path / "cert.json"
    code = cli.main(
        ["certify", "--input", str(fixture), "--theta", str(theta_path), "--output", str(out)]
    )
    assert code == 2
    cert = json.loads(out.read_text())
    assert cert["gap"] > 0.1
    assert cert["certificate"]["verdict"] == "NotCertified"


def test_certify_applies_the_calibrate_rule(tmp_path):
    # calibrate's extrinsic on a loose relaxation, handed to certify, gets the
    # same bound, gap and verdict: one routine refines y against the rotation
    m = loose_two_motion_instance()
    result = solver.calibrate(m, "r")
    assert result.certificate.verdict == "NotCertified"
    fixture = tmp_path / "hard.jsonl"
    with open(fixture, "w", encoding="utf-8") as fp:
        dump_measurements(m, fp)
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(result.to_dict()))
    out = tmp_path / "cert.json"
    code = cli.main(
        [
            "certify",
            "--input",
            str(fixture),
            "--theta",
            str(report_path),
            "--output",
            str(out),
            "--constraint-set",
            "r",
        ]
    )
    assert code == 2
    cert = json.loads(out.read_text())
    assert cert["certified"] is False
    assert cert["certificate"]["verdict"] == result.certificate.verdict
    assert cert["dual_lower_bound"] == pytest.approx(result.certificate.lower_bound, rel=1e-9)
    assert cert["gap"] == pytest.approx(result.certificate.gap, rel=1e-9)


def test_certify_non_optimal_sdp_exit_two(tmp_path, monkeypatch):
    # an SDP stopped at its iteration cap still gives a bound, as in calibrate
    solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda p, **kw: solve(p, **{**kw, "max_iter": 2}))
    fixture = tmp_path / "hard.jsonl"
    with open(fixture, "w", encoding="utf-8") as fp:
        dump_measurements(loose_two_motion_instance(), fp)
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps({"theta": {"R": np.eye(3).tolist(), "t": [0.0, 0.0, 0.0]}}))
    out = tmp_path / "cert.json"
    args = ["--input", str(fixture), "--theta", str(theta_path), "--output", str(out)]
    assert cli.main(["certify", *args, "--constraint-set", "r"]) == 2
    cert = json.loads(out.read_text())
    assert cert["sdp_status"] == "max_iter"
    assert cert["dual_lower_bound"] <= cert["candidate_cost"]


@pytest.mark.parametrize(
    "name, shape, where",
    [
        ("eigh", (10, 10), "dual slack eigendecomposition"),
        ("lstsq", (10, 22), "certificate refinement"),
        ("eigh", (3, 3), "polish"),
        ("solve", (3, 3), "translation solve"),
        ("svd", (3, 3), "rotation projection"),
    ],
)
def test_lapack_failure_exit_one(tmp_path, capsys, monkeypatch, name, shape, where):
    # a LinAlgError from the LAPACK call of that shape surfaces as NumericalFailure
    fixture = tmp_path / "clean.jsonl"
    _write_two_motion_fixture(fixture)
    original = getattr(np.linalg, name)

    def failing(a, *args, **kwargs):
        if np.shape(a)[-2:] == shape:
            raise np.linalg.LinAlgError("injected")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, failing)
    assert cli.main(["calibrate", "--input", str(fixture)]) == 1
    assert f"error: {where}: injected" in capsys.readouterr().err


def test_calibrate_and_certify_need_no_scipy(tmp_path):
    # A fresh interpreter in which `import scipy` fails runs the CLI's calibrate path.
    prefix = tmp_path / "run"
    noise = ["--sigma-r", "0.01", "--sigma-t", "0.01"]
    assert cli.main(["simulate", "--output", str(prefix), "--seed", "0", *noise]) == 0
    data, report = f"{prefix}.jsonl", str(tmp_path / "report.json")
    script = "\n".join(
        [
            "import sys",
            "sys.modules['scipy'] = None",
            "from egocal import cli",
            f"assert cli.main(['calibrate', '--input', {data!r}, '--output', {report!r}]) == 0",
            f"assert cli.main(['certify', '--input', {data!r}, '--theta', {report!r}]) == 0",
            "assert not [name for name in sys.modules if name.startswith('scipy.')]",
        ]
    )
    src = str(Path(egocal.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_experiment_runtime_writes_outputs(tmp_path):
    prefix = tmp_path / "rt"
    code = cli.main(
        [
            "experiment",
            "runtime",
            "--output",
            str(prefix),
            "--seed",
            "12",
            "--n-list",
            "10",
            "20",
            "--n-runs",
            "2",
        ]
    )
    assert code == 0
    csv_text = (tmp_path / "rt.csv").read_text()
    assert csv_text.startswith("n,run,method,solve_seconds")
    summary = json.loads((tmp_path / "rt.json").read_text())
    assert "means" in summary


def test_experiment_noise_sweep_writes_outputs(tmp_path):
    prefix = tmp_path / "ns"
    code = cli.main(
        [
            "experiment",
            "noise-sweep",
            "--output",
            str(prefix),
            "--seed",
            "13",
            "--n-trials",
            "2",
            "--n-motions",
            "10",
            "--sigma-r",
            "0.05",
            "--sigma-t",
            "0.05",
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "ns.json").read_text())
    assert "0.05,0.05" in summary["grid"]


def test_seed_required_for_simulate(capsys):
    code = cli.main(["simulate", "--output", "x"])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--input", "m.jsonl", "--no-such-flag"],
        ["calibrate", "--input", "m.jsonl", "--tol-gap", "1e-9"],
        ["certify", "--input", "m.jsonl", "--theta", "t.json", "--tol-feas", "1e-9"],
        ["calibrate", "--input", "m.jsonl", "--strict-observability"],
        ["calibrate"],
    ],
    ids=[
        "unknown-flag",
        "removed-tol-gap",
        "removed-tol-feas",
        "removed-strict-observability",
        "missing-input",
    ],
)
def test_usage_error_exit_one(capsys, argv):
    # exit 2 means "completed but not certified", so a usage error must not use it
    assert cli.main(argv) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, argument",
    [
        (["simulate", "--n-motions", "1"], "--n-motions"),
        (["simulate", "--radius", "0"], "--radius"),
        (["simulate", "--sigma-r", "-1"], "--sigma-r"),
        (["simulate", "--amplitude", "nan"], "--amplitude"),
        (["simulate", "--amplitude", "inf"], "--amplitude"),
        (["experiment", "runtime", "--n-list", "10", "1"], "--n-list"),
        (["experiment", "noise-sweep", "--n-trials", "0"], "--n-trials"),
        (["experiment", "heatmap", "--n-inits", "0"], "--n-inits"),
        (["experiment", "ablation", "--n-axes", "0"], "--n-axes"),
        (["experiment", "ablation", "--jobs", "0"], "--jobs"),
    ],
    ids=[
        "one-motion",
        "zero-radius",
        "negative-sigma",
        "nan-amplitude",
        "infinite-amplitude",
        "one-motion-run",
        "no-trials",
        "no-inits",
        "no-axes",
        "no-jobs",
    ],
)
def test_out_of_range_argument_exit_one(tmp_path, capsys, argv, argument):
    # rejected while parsing: no traceback, no run and no output files
    command = [*argv, "--output", str(tmp_path / "out"), "--seed", "0"]
    assert cli.main(command) == 1
    assert f"error: argument {argument}: must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_help_exit_zero(capsys):
    assert cli.main(["calibrate", "--help"]) == 0
    assert "--input" in capsys.readouterr().out


@pytest.mark.parametrize(
    "theta_text",
    [
        json.dumps({"theta": {"R": np.eye(3).tolist()}}),  # no "t"
        "{not json",
        json.dumps([1, 2, 3]),
        json.dumps({"theta": {"R": np.eye(3).tolist(), "t": [0.0, float("nan"), 0.0]}}),
        '{"a": ' + "[" * 100_000,
    ],
    ids=["missing-t", "not-json", "not-an-object", "nan-t", "nested-too-deeply"],
)
def test_certify_bad_theta_file_exit_one(tmp_path, capsys, theta_text):
    fixture = tmp_path / "clean.jsonl"
    _write_two_motion_fixture(fixture)
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(theta_text)
    with pytest.raises(ParseError):
        cli._load_theta(theta_path)
    code = cli.main(["certify", "--input", str(fixture), "--theta", str(theta_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_certify_theta_nested_near_the_recursion_limit_exit_one(tmp_path):
    # Nestings that json.loads reads may still exceed the limit when the pose is checked.
    fixture = tmp_path / "clean.jsonl"
    _write_two_motion_fixture(fixture)
    theta_path = tmp_path / "theta.json"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 300, limit + 10):
        theta_path.write_text('{"theta": {"R": ' + "[" * depth + "]" * depth + ', "t": [0, 0, 0]}}')
        assert cli.main(["certify", "--input", str(fixture), "--theta", str(theta_path)]) == 1


@pytest.mark.parametrize("r", [2.0 * np.eye(3), -np.eye(3)], ids=["2I", "-I"])
def test_certify_theta_not_a_rotation_exit_one(tmp_path, capsys, r):
    # the candidate gets the measurement loader's rotation check, not a silent projection
    fixture = tmp_path / "clean.jsonl"
    _write_two_motion_fixture(fixture)
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps({"theta": {"R": r.tolist(), "t": [0.0, 0.0, 0.0]}}))
    with pytest.raises(InvalidRotation):
        cli._load_theta(theta_path)
    code = cli.main(["certify", "--input", str(fixture), "--theta", str(theta_path)])
    assert code == 1
    assert "rotation is not in SO(3)" in capsys.readouterr().err
