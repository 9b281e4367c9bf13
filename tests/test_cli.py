import inspect
import json
import os
import subprocess
import sys
import warnings
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
    r = [geom.rotation_about(np.array([0.0, 0.0, 1.0]), angle) for angle in (0.5, 1.1)]
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
    assert cert["sdp_tolerance"] == 1.0


def test_a_start_rung_answer_takes_no_interior_point_step(tmp_path, monkeypatch):
    # The start stage stops the solve at its start point, so calibrate and certify
    # answer from y0 and the least-norm y that annihilates the candidate, with no
    # NT scaling. Refined from y0 instead, seed 3's candidate does not certify
    # there, and the SDP is solved on to the strict tolerance.
    def no_step(*_):
        raise AssertionError("an interior-point step was taken")

    monkeypatch.setattr(sdp, "_nt_scaling", no_step)
    for seed in (0, 3):
        m = sim.terrain_instance(np.random.default_rng([seed, 50]), 50, 0.01, 0.01)[3]
        result = solver.calibrate(m)
        assert result.certificate.certified
        assert result.solve_stats["sdp_iters"] == 1
        assert result.solve_stats["sdp_tolerance"] == 1.0
        run = tmp_path / f"seed{seed}"
        run.mkdir()
        fixture, report_path, out = run / "run.jsonl", run / "report.json", run / "cert.json"
        with open(fixture, "w", encoding="utf-8") as fp:
            dump_measurements(m, fp)
        report_path.write_text(json.dumps(result.to_dict()))
        args = ["certify", "--input", str(fixture), "--theta", str(report_path), "--output", str(out)]
        assert cli.main(args) == 0
        cert = json.loads(out.read_text())
        assert cert["certified"] is True
        assert cert["sdp_tolerance"] == 1.0


def test_certify_continues_the_solve_for_a_candidate_that_does_not_certify(tmp_path):
    # the identity is no optimum of the terrain log: the start stage's bound
    # refuses it, and so does the strict one it is then checked against.
    # The bound is still tight on the global minimum: it is the bound at the
    # solver's y, since y refined against the identity proves only about -7.4.
    fixture = tmp_path / "run.jsonl"
    m = sim.terrain_instance(np.random.default_rng([0, 50]), 50, 0.01, 0.01)[3]
    with open(fixture, "w", encoding="utf-8") as fp:
        dump_measurements(m, fp)
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps({"theta": {"R": np.eye(3).tolist(), "t": [0.0, 0.0, 0.0]}}))
    out = tmp_path / "cert.json"
    args = ["certify", "--input", str(fixture), "--theta", str(theta_path), "--output", str(out)]
    assert cli.main(args) == 2
    cert = json.loads(out.read_text())
    assert cert["certified"] is False
    assert cert["sdp_status"] == "optimal"
    assert cert["sdp_tolerance"] == sdp.TOL
    optimum = solver.calibrate(m).cost
    assert cert["dual_lower_bound"] <= cert["candidate_cost"]
    assert abs(cert["dual_lower_bound"] - optimum) <= 1e-5 * optimum


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
        RotationMatrix(sim.DEFAULT_THETA.rotation.m @ offset),
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
    monkeypatch.setattr(sdp, "MAX_ITER", 2)
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


def _called_from(function_name):
    """Whether a frame of that name is on the stack."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_name != function_name:
        frame = frame.f_back
    return frame is not None


# The function whose LAPACK call a row fails, where its shape alone would also fail an
# earlier call: the refinement's 10x10 eigh (of B B^T) follows certify_lmi's (of H).
_FAIL_WITHIN = {"certificate refinement": "_refine"}


@pytest.mark.parametrize(
    "name, shape, where",
    [
        ("eigh", (10, 10), "dual slack eigendecomposition"),
        ("eigh", (10, 10), "certificate refinement"),
        ("eigvalsh", (3, 3), "observability"),
        ("solve", (3, 3), "translation elimination"),
        ("svd", (3, 3), "rotation projection"),
    ],
)
def test_lapack_failure_exit_one(tmp_path, capsys, monkeypatch, name, shape, where):
    # a LinAlgError from the LAPACK call of that shape surfaces as NumericalFailure
    fixture = tmp_path / "clean.jsonl"
    _write_two_motion_fixture(fixture)
    original = getattr(np.linalg, name)

    def failing(a, *args, **kwargs):
        within = _FAIL_WITHIN.get(where)
        if np.shape(a)[-2:] == shape and (within is None or _called_from(within)):
            raise np.linalg.LinAlgError("injected")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, failing)
    assert cli.main(["calibrate", "--input", str(fixture)]) == 1
    assert f"error: {where}: injected" in capsys.readouterr().err


def test_polish_eigenvalue_failure_exit_one(tmp_path, capsys, monkeypatch):
    # This log's polish meets Hessians with a nearly repeated eigenvalue pair, whose
    # extreme eigenvalues come from LAPACK: a LinAlgError there is the polish's failure.
    prefix = str(tmp_path / "run")
    assert cli.main(["simulate", "--output", prefix, "--seed", "3",
                     "--sigma-r", "0.01", "--sigma-t", "0.01"]) == 0
    original = np.linalg.eigvalsh

    def failing(a, *args, **kwargs):
        if _called_from("_extreme_eigenvalues"):
            raise np.linalg.LinAlgError("injected")
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    capsys.readouterr()
    assert cli.main(["calibrate", "--input", prefix + ".jsonl"]) == 1
    assert "error: polish: injected" in capsys.readouterr().err


def test_calibrate_overflowing_weights_exit_one(tmp_path, capsys):
    # tau = 1e308 on every line overflows the q_tt sum: refused by the finiteness
    # check, naming the weights, before the observability test's eigvalsh runs on it
    prefix = str(tmp_path / "run")
    assert cli.main(["simulate", "--output", prefix, "--seed", "0", "--n-motions", "10"]) == 0
    log = Path(prefix + ".jsonl")
    log.write_text(log.read_text().replace('"tau": 1.0', '"tau": 1e308'))
    capsys.readouterr()
    assert cli.main(["calibrate", "--input", str(log)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data matrix is not finite") and "kappa and tau" in err
    assert "Eigenvalues did not converge" not in err


@pytest.mark.parametrize("command", ["calibrate", "certify"])
def test_overflowing_kappa_exit_one(tmp_path, capsys, command):
    # kappa = 1e308 on every line overflows the rotation moments to NaN: the data
    # matrix is refused before the SDP, instead of failing inside it
    prefix = str(tmp_path / "run")
    assert cli.main(["simulate", "--output", prefix, "--seed", "0", "--n-motions", "10"]) == 0
    log = Path(prefix + ".jsonl")
    log.write_text(log.read_text().replace('"kappa": 1.0', '"kappa": 1e308'))
    theta = ["--theta", prefix + "_truth.json"] if command == "certify" else []
    capsys.readouterr()
    assert cli.main([command, "--input", str(log), *theta]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data matrix is not finite") and "kappa" in err
    assert "Eigenvalues did not converge" not in err


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _overflow_case(tmp_path, case):
    """A 10-motion log and the argv of a command that overflows on it: 'tau' or
    'kappa' set to 1e308 on every line, or a candidate translation of 1e200."""
    prefix = str(tmp_path / "run")
    assert cli.main(["simulate", "--output", prefix, "--seed", "0", "--n-motions", "10",
                     "--sigma-r", "0.01", "--sigma-t", "0.01"]) == 0
    log = Path(prefix + ".jsonl")
    if case == "candidate":
        truth = json.loads(Path(prefix + "_truth.json").read_text())
        truth["theta"]["t"] = [1e200, 0.0, 0.0]
        theta = tmp_path / "far.json"
        theta.write_text(json.dumps(truth))
        return ["certify", "--input", str(log), "--theta", str(theta)]
    log.write_text(log.read_text().replace(f'"{case}": 1.0', f'"{case}": 1e308'))
    return ["calibrate", "--input", str(log)]


def test_certify_refuses_an_infinite_candidate_cost(tmp_path, capsys):
    # t = 1e200 prices the candidate at inf, and inf <= 1e-7 inf must not certify;
    # the report writes the infinite cost and gap as null
    argv = _overflow_case(tmp_path, "candidate")
    capsys.readouterr()
    assert cli.main(argv) == 2
    report = _strict_json(capsys.readouterr().out)
    assert report["certified"] is False
    assert report["certificate"]["verdict"] == "NotCertified"
    assert report["candidate_cost"] is None and report["gap"] is None
    assert np.isfinite(report["dual_lower_bound"])


@pytest.mark.parametrize("case, code", [("tau", 1), ("kappa", 1), ("candidate", 2)])
def test_overflow_prints_no_runtime_warning(tmp_path, capsys, case, code):
    # the error or the null cost is the report; numpy's overflow warnings are not
    argv = _overflow_case(tmp_path, case)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == code


@pytest.mark.parametrize(
    "argv",
    [["--amplitude", "1e300"], ["--radius", "1e300"], ["--radius", "1e-300"]],
    ids=["huge-amplitude", "huge-radius", "tiny-radius"],
)
def test_simulate_route_without_finite_headings_exit_one(tmp_path, capsys, argv):
    # the terrain or a finite difference overflows, or a difference underflows to 0:
    # refused before the frames reach the rotation projection, and nothing is written
    command = ["simulate", "--output", str(tmp_path / "out"), "--seed", "0", *argv]
    assert cli.main(command) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: radius ") and " amplitude " in err
    assert "SVD did not converge" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--sigma-t", "1e308"],
        ["simulate", "--sigma-r", "1e308"],
        ["experiment", "noise-sweep", "--n-trials", "1", "--n-motions", "10",
         "--sigma-r", "0.01", "--sigma-t", "1e308"],
    ],
    ids=["simulate-sigma-t", "simulate-sigma-r", "noise-sweep-sigma-t"],
)
def test_noise_that_overflows_exit_one(tmp_path, capsys, argv):
    # a draw or a noisy translation overflows: refused by name, with no numpy
    # warning (cos(inf) warns), before the measurements are built or written
    command = [*argv, "--output", str(tmp_path / "out"), "--seed", "0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(command) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sigma_r ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


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


# The options each `egocal experiment` protocol reads besides --output, and the
# keyword of its sim function that each one sets.
PROTOCOL_OPTIONS = {
    "ablation": {"--jobs": "jobs", "--n-axes": "n_axes",
                 "--translation-variant": "translation_magnitudes"},
    "noise-sweep": {"--seed": "seed", "--jobs": "jobs", "--n-trials": "n_trials",
                    "--n-motions": "n_motions", "--sigma-r": "sigmas_r", "--sigma-t": "sigmas_t"},
    "heatmap": {"--seed": "seed", "--jobs": "jobs", "--n-inits": "n_inits",
                "--n-motions": "n_motions"},
    "runtime": {"--seed": "seed", "--n-list": "n_list", "--n-runs": "n_runs"},
}
PROTOCOL_RUNS = {"ablation": "ablation_experiment", "noise-sweep": "noise_sweep",
                 "heatmap": "init_heatmap", "runtime": "runtime_bench"}
# Each option's arguments in a sample, and the value they parse to.
OPTION_SAMPLES = {
    "--seed": (["3"], 3), "--jobs": (["2"], 2), "--n-trials": (["1"], 1),
    "--n-motions": (["10"], 10), "--n-axes": (["4"], 4),
    "--translation-variant": ([], [0.1, 1.0, 10.0]), "--n-list": (["10", "20"], [10, 20]),
    "--n-runs": (["1"], 1), "--n-inits": (["2"], 2), "--sigma-r": (["0.1"], [0.1]),
    "--sigma-t": (["0.2", "0.3"], [0.2, 0.3]),
}
UNREAD = [
    (protocol, option)
    for protocol, read in PROTOCOL_OPTIONS.items()
    for option in OPTION_SAMPLES
    if option not in read
]


def _experiment_argv(tmp_path, protocol, options):
    """`egocal experiment protocol` with each of `options` at its sample arguments."""
    tokens = [token for option in options for token in [option, *OPTION_SAMPLES[option][0]]]
    return ["experiment", protocol, "--output", str(tmp_path / "out"), *tokens]


@pytest.mark.parametrize(
    "protocol, options",
    [
        *[(p, ([] if p == "ablation" else ["--seed"]) + [o]) for p, o in UNREAD],
        ("ablation", ["--n-axes", "--translation-variant"]),  # the variant ignores --n-axes
    ],
    ids=[f"{p} {o}" for p, o in UNREAD] + ["ablation --n-axes --translation-variant"],
)
def test_experiment_refuses_an_option_its_protocol_does_not_read(
    tmp_path, capsys, monkeypatch, protocol, options
):
    assert len(UNREAD) == 28
    for run in PROTOCOL_RUNS.values():
        monkeypatch.setattr(sim, run, lambda **kwargs: pytest.fail(f"ran with {kwargs}"))
    assert cli.main(_experiment_argv(tmp_path, protocol, options)) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, usage, unread",
    [
        (["experiment", "heatmap", "--seed", "0"], "egocal experiment heatmap", "--sigma-r 0.1"),
        (["experiment", "runtime", "--seed", "0"], "egocal experiment runtime", "--jobs 2"),
        (["calibrate", "--input", "m.jsonl"], "egocal calibrate", "--no-such-flag"),
    ],
    ids=["heatmap", "runtime", "calibrate"],
)
def test_an_unread_option_prints_its_subcommands_usage(tmp_path, capsys, argv, usage, unread):
    # not the root's "usage: egocal [-h] {calibrate,...}": the subcommand's,
    # which lists the options it does take
    assert cli.main([*argv, "--output", str(tmp_path / "out"), *unread.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {usage} [-h]")
    assert f"{usage}: error: unrecognized arguments: {unread}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "protocol, options",
    [
        ("ablation", ["--jobs", "--n-axes"]),
        ("ablation", ["--jobs", "--translation-variant"]),
        *[(p, list(read)) for p, read in PROTOCOL_OPTIONS.items() if p != "ablation"],
    ],
)
def test_experiment_passes_each_option_it_reads_to_its_protocol(
    tmp_path, monkeypatch, protocol, options
):
    calls = []

    def run(**kwargs):
        calls.append(kwargs)
        return [], {"experiment": protocol}

    monkeypatch.setattr(sim, PROTOCOL_RUNS[protocol], run)
    assert cli.main(_experiment_argv(tmp_path, protocol, options)) == 0
    keywords = PROTOCOL_OPTIONS[protocol]
    assert calls == [{keywords[option]: OPTION_SAMPLES[option][1] for option in options}]
    assert json.loads((tmp_path / "out.json").read_text()) == {"experiment": protocol}


@pytest.mark.parametrize("protocol", PROTOCOL_OPTIONS)
def test_each_protocol_takes_exactly_the_keywords_its_options_set(protocol):
    # A protocol keyword that no option sets is a setting only tests could change.
    parameters = inspect.signature(getattr(sim, PROTOCOL_RUNS[protocol])).parameters
    assert set(parameters) == set(PROTOCOL_OPTIONS[protocol].values())


@pytest.mark.parametrize(
    "argv, run",
    [
        (["ablation", "--n-axes", "2", "--jobs", "2"],
         lambda: sim.ablation_experiment(n_axes=2, jobs=2)),
        (["heatmap", "--seed", "3", "--n-inits", "2", "--n-motions", "10"],
         lambda: sim.init_heatmap(seed=3, n_inits=2, n_motions=10)),
    ],
    ids=["ablation", "heatmap"],
)
def test_experiment_writes_the_summary_of_a_direct_call(tmp_path, argv, run):
    prefix = str(tmp_path / "out")
    assert cli.main(["experiment", argv[0], "--output", prefix, *argv[1:]]) == 0
    rows, summary = run()
    assert Path(prefix + ".json").read_text() == json.dumps(summary, indent=2) + "\n"
    assert len(Path(prefix + ".csv").read_text().splitlines()) == len(rows) + 1


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
