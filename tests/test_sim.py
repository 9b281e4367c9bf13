import io
import json

import numpy as np
import pytest

from egocal import cli, geom, sim, solver
from egocal.errors import NumericalFailure
from egocal.geom import RotationMatrix, Transform
from egocal.problem import (
    SINGULAR_QTT_CONDITION,
    check_observability,
    relative_motions_from_trajectories,
    translation_gram,
)


def test_generate_path_deterministic():
    a = sim.generate_path(n_steps=20, seed=5)
    b = sim.generate_path(n_steps=20, seed=5)
    assert np.array_equal(a.rotations, b.rotations)
    assert np.array_equal(a.positions, b.positions)


def _rotation_vectors(r):
    """Rotation vectors theta * a of a (n, 3, 3) stack of rotations with angles below pi:
    the skew part gives sin(theta) a, the trace cos(theta)."""
    v = 0.5 * (r - np.swapaxes(r, 1, 2))[:, [2, 0, 1], [1, 2, 0]]
    sin = np.linalg.norm(v, axis=1)
    angles = np.arctan2(sin, 0.5 * (np.trace(r, axis1=1, axis2=2) - 1.0))
    return v * (angles / sin)[:, None]


def test_generate_path_smooth():
    path = sim.generate_path(n_steps=40, seed=6)
    rel = np.swapaxes(path.rotations[:-1], 1, 2) @ path.rotations[1:]
    assert np.all(np.linalg.norm(_rotation_vectors(rel), axis=1) < np.pi / 2)


def test_flat_terrain_is_unobservable():
    # a planar circle only ever yaws: a single rotation axis
    path = sim.generate_path(n_steps=30, amplitude=0.0, seed=7)
    poses_a, poses_b = sim.sensor_trajectories(path, sim.DEFAULT_THETA)
    m = relative_motions_from_trajectories(poses_a, poses_b)
    report = check_observability(translation_gram(m))
    assert not report.observable
    assert report.condition_estimate > SINGULAR_QTT_CONDITION


def test_default_terrain_is_observable():
    path = sim.generate_path(n_steps=30, seed=8)
    poses_a, poses_b = sim.sensor_trajectories(path, sim.DEFAULT_THETA)
    m = relative_motions_from_trajectories(poses_a, poses_b)
    assert check_observability(translation_gram(m)).observable


def test_sensor_trajectories_identity_theta():
    path = sim.generate_path(n_steps=10, seed=9)
    poses_a, poses_b = sim.sensor_trajectories(path, geom.Transform.identity())
    for column_a, column_b in zip(poses_a, poses_b):
        assert np.array_equal(column_a, column_b)


def test_sensor_trajectories_satisfy_conjugation():
    path = sim.generate_path(n_steps=15, seed=10)
    theta = geom.random_transform(11, translation_scale=0.5)
    poses_a, poses_b = sim.sensor_trajectories(path, theta)
    m = relative_motions_from_trajectories(poses_a, poses_b)
    r, t = theta.rotation.m, theta.translation
    assert np.abs(r @ m.ra - m.rb @ r).max() < 1e-12
    assert np.abs(m.ta @ r.T + t - (m.rb @ t + m.tb)).max() < 1e-12


def test_end_to_end_noise_free_recovery():
    path = sim.generate_path(n_steps=30, seed=12)
    theta = geom.random_transform(13, translation_scale=0.5)
    poses_a, poses_b = sim.sensor_trajectories(path, theta)
    m = relative_motions_from_trajectories(poses_a, poses_b)
    result = solver.calibrate(m)
    assert np.linalg.norm(result.extrinsic.rotation.m - theta.rotation.m) < 1e-6
    assert np.linalg.norm(result.extrinsic.translation - theta.translation) < 1e-6


def test_corrupt_zero_noise_is_identity():
    path = sim.generate_path(n_steps=10, seed=14)
    poses_a, poses_b = sim.sensor_trajectories(path, sim.DEFAULT_THETA)
    m = relative_motions_from_trajectories(poses_a, poses_b)
    out = sim.corrupt(m, sim.NoiseModel(0.0, 0.0, seed=0))
    for name in ("ra", "rb", "ta", "tb"):
        assert np.array_equal(getattr(m, name), getattr(out, name))


def test_corrupt_deterministic():
    path = sim.generate_path(n_steps=10, seed=15)
    poses_a, poses_b = sim.sensor_trajectories(path, sim.DEFAULT_THETA)
    m = relative_motions_from_trajectories(poses_a, poses_b)
    noise = sim.NoiseModel(0.05, 0.05, seed=3)
    a = sim.corrupt(m, noise)
    b = sim.corrupt(m, noise)
    assert np.array_equal(a.ra, b.ra) and np.array_equal(a.ta, b.ta)


def test_corrupt_rotations_stay_valid():
    path = sim.generate_path(n_steps=10, seed=16)
    poses_a, poses_b = sim.sensor_trajectories(path, sim.DEFAULT_THETA)
    m = relative_motions_from_trajectories(poses_a, poses_b)
    out = sim.corrupt(m, sim.NoiseModel(0.3, 0.3, seed=4))
    for r in out.ra:
        assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9


def _reference_path(n_steps, radius, amplitude, seed):
    """generate_path's per-waypoint loop: three position calls and one SO(3) projection each."""
    rng = np.random.default_rng(seed)
    amps = amplitude * rng.uniform(0.3, 1.0, size=(2, sim.N_SINUSOIDS))
    freqs = rng.uniform(0.2, 0.8, size=(2, sim.N_SINUSOIDS))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(2, sim.N_SINUSOIDS))

    def position(phi):
        x, y = radius * np.cos(phi), radius * np.sin(phi)
        z = np.sum(amps[0] * np.sin(freqs[0] * x + phases[0])) + np.sum(
            amps[1] * np.sin(freqs[1] * y + phases[1])
        )
        return np.array([x, y, float(z)])

    waypoints = []
    for phi in np.linspace(0.0, 2.0 * np.pi, n_steps):
        forward = position(phi + 1e-5) - position(phi - 1e-5)
        forward /= np.linalg.norm(forward)
        left = np.cross(np.array([0.0, 0.0, 1.0]), forward)
        left /= np.linalg.norm(left)
        frame = np.column_stack([forward, left, np.cross(forward, left)])
        r = RotationMatrix(geom.nearest_rotations(frame))
        waypoints.append(Transform(r, position(phi)))
    return waypoints


def _reference_euler_xyz(ax, ay, az):
    rx = np.array([[1, 0, 0], [0, np.cos(ax), -np.sin(ax)], [0, np.sin(ax), np.cos(ax)]])
    ry = np.array([[np.cos(ay), 0, np.sin(ay)], [0, 1, 0], [-np.sin(ay), 0, np.cos(ay)]])
    rz = np.array([[np.cos(az), -np.sin(az), 0], [np.sin(az), np.cos(az), 0], [0, 0, 1]])
    return RotationMatrix(rx @ ry @ rz).m


def _reference_corrupt(m, noise):
    """corrupt's per-motion loop: per sensor, rng.normal draws of the angles, then the shift."""
    rng = np.random.default_rng(noise.seed)
    columns = {name: np.array(getattr(m, name)) for name in ("ra", "rb", "ta", "tb")}
    for i in range(m.n):
        for s in "ab":
            angles = rng.normal(scale=noise.sigma_r, size=3) if noise.sigma_r > 0 else np.zeros(3)
            shift = rng.normal(scale=noise.sigma_t, size=3) if noise.sigma_t > 0 else np.zeros(3)
            columns["r" + s][i] = columns["r" + s][i] @ _reference_euler_xyz(*angles)
            columns["t" + s][i] = columns["t" + s][i] + shift
    return columns


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()  # tells -0.0 from 0.0


@pytest.mark.parametrize(
    "seed, amplitude, sigma_r, sigma_t",
    [(0, 1.0, 0.0, 0.0), (1, 0.0, 0.05, 0.0), (7, -0.7, 0.0, 0.02), (21, 2.5, 0.1, 0.1)],
)
def test_batched_simulator_keeps_the_per_pose_bits(seed, amplitude, sigma_r, sigma_t):
    path = sim.generate_path(n_steps=41, radius=7.0, amplitude=amplitude, seed=seed)
    waypoints = _reference_path(41, 7.0, amplitude, seed)
    assert _same_bits(path.rotations, [pose.rotation.m for pose in waypoints])
    assert _same_bits(path.positions, [pose.translation for pose in waypoints])

    theta = geom.random_transform(seed, translation_scale=0.5)
    (ra, ta), (rb, tb) = sim.sensor_trajectories(path, theta)
    reference_a = [pose.compose(theta) for pose in waypoints]
    assert _same_bits(ra, [pose.rotation.m for pose in reference_a])
    assert _same_bits(ta, [pose.translation for pose in reference_a])
    assert _same_bits(rb, path.rotations) and _same_bits(tb, path.positions)

    m = relative_motions_from_trajectories((ra, ta), (rb, tb))
    noise = sim.NoiseModel(sigma_r, sigma_t, seed=seed + 100)
    out, reference = sim.corrupt(m, noise), _reference_corrupt(m, noise)
    for name, column in reference.items():
        assert _same_bits(getattr(out, name), column)


@pytest.mark.parametrize("bad", [{"n_steps": 2}, {"radius": 0.0}])
def test_generate_path_refuses_too_few_steps_or_no_radius(bad):
    with pytest.raises(ValueError):
        sim.generate_path(**bad)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        sim.NoiseModel(-0.1, 0.0)


def test_noise_moments():
    # corrupt identity motions and measure the injected noise directly; at
    # sigma_r = 0.01 the rotation vector equals the Euler angles to O(sigma^2)
    sigma_r, sigma_t = 0.01, 0.02
    n = 10_000
    from egocal.problem import MeasurementSet

    r, t = np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 3))
    m = MeasurementSet(r, r, t, t, np.ones(n), np.ones(n))
    out = sim.corrupt(m, sim.NoiseModel(sigma_r, sigma_t, seed=17))
    rot_vecs = _rotation_vectors(out.ra)
    shifts = out.ta
    # per-axis mean within 3 standard errors, std within 5%
    assert np.all(np.abs(rot_vecs.mean(axis=0)) < 3 * sigma_r / np.sqrt(n))
    assert np.allclose(rot_vecs.std(axis=0), sigma_r, rtol=0.05)
    assert np.all(np.abs(shifts.mean(axis=0)) < 3 * sigma_t / np.sqrt(n))
    assert np.allclose(shifts.std(axis=0), sigma_t, rtol=0.05)


def test_fibonacci_sphere():
    axes = sim.fibonacci_sphere(50)
    assert axes.shape == (50, 3)
    assert np.allclose(np.linalg.norm(axes, axis=1), 1.0)
    assert np.array_equal(axes, sim.fibonacci_sphere(50))
    # roughly uniform: mean should be near zero
    assert np.linalg.norm(axes.mean(axis=0)) < 0.1


def test_two_motion_instance_consistency():
    m = sim.two_motion_instance(sim.DEFAULT_THETA)
    assert m.n == 2
    r, t = sim.DEFAULT_THETA.rotation.m, sim.DEFAULT_THETA.translation
    assert np.abs(r @ m.ra - m.rb @ r).max() < 1e-12
    assert np.abs(m.ta @ r.T + t - (m.rb @ t + m.tb)).max() < 1e-12
    # sensor b motions are the quarter-turn + 1 m maneuvers about x then y
    assert np.allclose(m.tb, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_ablation_zero_magnitude_all_certified(monkeypatch):
    monkeypatch.setattr(sim, "ABLATION_MAGNITUDES", [0.0])
    rows, _ = sim.ablation_experiment(n_axes=4)
    for row in rows:
        assert row["certified_fraction"] == 1.0


def test_ablation_monotone_in_constraints(monkeypatch):
    monkeypatch.setattr(sim, "ABLATION_MAGNITUDES", [np.pi / 2])
    rows, _ = sim.ablation_experiment(n_axes=16)
    frac = {row["constraint_set"]: row["certified_fraction"] for row in rows}
    assert frac["r"] <= frac["r+c"] + 1e-12
    assert frac["r+c"] <= frac["r+c+h"] + 1e-12
    assert frac["r+h"] <= frac["r+c+h"] + 1e-12


def test_ablation_counts_failed_trials(monkeypatch):
    calibrate = solver.calibrate
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) % 2 == 0:
            raise NumericalFailure("injected breakdown")
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(solver, "calibrate", flaky)
    monkeypatch.setattr(sim, "ABLATION_MAGNITUDES", [np.pi / 2])
    monkeypatch.setattr(sim, "CONSTRAINT_KINDS", ("r+c+h",))
    rows, _ = sim.ablation_experiment(n_axes=4)
    assert rows[0]["failed_fraction"] == 0.5
    assert rows[0]["certified_fraction"] == 0.5


def test_ablation_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(sim, "ABLATION_MAGNITUDES", [np.pi / 4])
    rows1, _ = sim.ablation_experiment(n_axes=6, jobs=1)
    rows2, _ = sim.ablation_experiment(n_axes=6, jobs=2)
    assert rows1 == rows2


@pytest.mark.parametrize(
    "variant", [{"n_axes": 3}, {"translation_magnitudes": [1.0, 10.0]}], ids=["rotation", "translation"]
)
def test_ablation_maps_all_its_trials_at_once(monkeypatch, variant):
    # One _map_jobs call takes every (instance, constraint set) trial of the run,
    # and each row reads its own trials' verdicts off the flat list in order. The
    # recording stand-in certifies only the 'r+c+h' trials and runs no solve.
    calls = []

    def recording(fn, arg_tuples, jobs):
        calls.append((fn, len(arg_tuples), jobs))
        return [kind == "r+c+h" for _, kind in arg_tuples]

    monkeypatch.setattr(sim, "_map_jobs", recording)
    monkeypatch.setattr(sim, "ABLATION_MAGNITUDES", [np.pi / 4, np.pi / 2])
    rows, _ = sim.ablation_experiment(jobs=2, **variant)
    assert len(rows) == 2 * len(sim.CONSTRAINT_KINDS)  # two magnitudes in either variant
    assert calls == [(sim._certified, len(rows) * rows[0]["n_trials"], 2)]
    for row in rows:
        assert row["certified_fraction"] == (row["constraint_set"] == "r+c+h")
        assert row["failed_fraction"] == 0.0


def test_map_jobs_asks_for_no_more_workers_than_tasks(monkeypatch):
    # A fork-started pool launches all of its max_workers processes on the first
    # submit, so --jobs is capped by the task count (and the CPUs), and a single
    # task builds no pool. A recording stand-in starts no process.
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            return map(fn, *iterables)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 64)
    assert sim._map_jobs(pow, [(2, 1), (2, 2), (2, 3)], 10**6) == [2, 4, 8]
    assert sim._map_jobs(pow, [(2, 5)], 10**6) == [32]
    assert pools == [3]


def test_noise_sweep_zero_noise():
    rows, summary = sim.noise_sweep(
        sigmas_r=(0.0,), sigmas_t=(0.0,), n_trials=3, n_motions=15, seed=1
    )
    # only the convex rows are guaranteed exact; the local baseline can get
    # trapped even on clean data (that is the point of the convex solver)
    for row in rows:
        if row["method"] == "convex":
            assert row["rotation_error"] < 1e-6
            assert row["translation_error"] < 1e-6
    cell = summary["grid"]["0.0,0.0"]
    assert cell["convex"]["median_rotation_error"] < 1e-6


def test_noise_sweep_dominance_and_schema():
    rows, summary = sim.noise_sweep(
        sigmas_r=(0.05,), sigmas_t=(0.05,), n_trials=5, n_motions=15, seed=2
    )
    by_trial = {}
    for row in rows:
        by_trial.setdefault(row["trial"], {})[row["method"]] = row
    for pair in by_trial.values():
        assert pair["convex"]["cost"] <= pair["local"]["cost"] + 1e-9
    cell = summary["grid"]["0.05,0.05"]
    for method in ("convex", "local"):
        for key in (
            "median_rotation_error",
            "median_translation_error",
            "q1_rotation_error",
            "q3_rotation_error",
            "certified_fraction",
        ):
            assert key in cell[method]


def test_noise_sweep_deterministic_across_jobs():
    kwargs = dict(sigmas_r=(0.05,), sigmas_t=(0.05,), n_trials=4, n_motions=10, seed=3)
    rows1, _ = sim.noise_sweep(jobs=1, **kwargs)
    rows2, _ = sim.noise_sweep(jobs=2, **kwargs)
    for a, b in zip(rows1, rows2):
        assert a["rotation_error"] == b["rotation_error"]
        assert a["cost"] == b["cost"]


def test_heatmap_truth_cell(monkeypatch):
    monkeypatch.setattr(sim, "HEATMAP_ANGLES", (0.0,))
    monkeypatch.setattr(sim, "HEATMAP_DISTANCES", (0.0,))
    rows, summary = sim.init_heatmap(n_inits=4, n_motions=15, seed=4)
    assert len(rows) == 1
    assert rows[0]["max_rotation_error_diff"] <= 1e-6
    assert rows[0]["max_translation_error_diff"] <= 1e-6


def test_heatmap_deterministic_across_jobs(monkeypatch):
    monkeypatch.setattr(sim, "HEATMAP_ANGLES", (0.0, np.pi / 2))
    monkeypatch.setattr(sim, "HEATMAP_DISTANCES", (0.0, 1.0))
    kwargs = dict(n_inits=3, n_motions=10, seed=6)
    rows1, _ = sim.init_heatmap(jobs=1, **kwargs)
    rows2, _ = sim.init_heatmap(jobs=2, **kwargs)
    assert len(rows1) == 4
    assert rows1 == rows2


def test_runtime_bench_schema():
    rows, summary = sim.runtime_bench(n_list=(10, 20), n_runs=2, seed=5)
    methods = {row["method"] for row in rows}
    assert methods == {"convex", "local", "calibrate"}
    assert {"convex,10", "calibrate,20"} <= set(summary["means"])
    for stats in summary["means"].values():
        assert stats["q1"] <= stats["mean"] or stats["q1"] <= stats["q3"]


def test_csv_and_json_writers(tmp_path):
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    buf = io.StringIO()
    sim.write_rows_csv(rows, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 3
    path = tmp_path / "summary.json"
    cli._write_report({"k": [1, 2]}, path)
    assert json.loads(path.read_text()) == {"k": [1, 2]}
