"""Synthetic data generation and the four experiment protocols.

Paths are circles in the x-y plane over a terrain built from random sinusoids;
the vehicle (sensor b) follows the path with its nose along the velocity
direction, so a non-flat terrain produces rotations about two distinct axes
and the calibration is observable by construction.

All experiments derive per-trial RNG streams from (master seed, trial index),
so serial and parallel executions produce identical output.
"""

from __future__ import annotations

import csv
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import geom, qcqp, sdp, solver
from .errors import CalibrationError, SingularInput
from .geom import RotationMatrix, Transform
from .problem import (
    MeasurementSet,
    dump_measurements,
    load_measurements,
    relative_motions_from_trajectories,
)
from .qcqp import CONSTRAINT_KINDS

DEFAULT_THETA = Transform(
    RotationMatrix(geom.rotation_about(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0), np.pi / 4)),
    np.array([0.1, 0.2, 0.3]),
)
N_SINUSOIDS = 3  # terrain sinusoids per axis in generate_path
ABLATION_MAGNITUDES = tuple(k * np.pi / 16 for k in range(1, 9))  # rotation perturbations, rad
HEATMAP_ANGLES = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi)  # start offsets: angles, rad
HEATMAP_DISTANCES = (0.0, 0.5, 1.0, 2.0, 4.0)  # and distances, m


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic Gaussian noise on intrinsic X-Y-Z Euler angles and translations."""

    sigma_r: float = 0.0
    sigma_t: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma_r < 0 or self.sigma_t < 0:
            raise ValueError("noise standard deviations must be nonnegative")


@dataclass(frozen=True)
class TerrainPath:
    """Sensor b's world poses along a route: rotations (n, 3, 3) and positions (n, 3)."""

    rotations: np.ndarray
    positions: np.ndarray
    params: dict = field(default_factory=dict)


def _euler_xyz(angles) -> np.ndarray:
    """Intrinsic X-Y-Z Euler rotations Rx Ry Rz (..., 3, 3) of the angles (..., 3)."""
    c, s = np.cos(angles), np.sin(angles)
    r = np.zeros(angles.shape + (3, 3))  # the factor about axis k turns axes i and j
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        r[..., k, k, k] = 1.0
        r[..., k, i, i] = r[..., k, j, j] = c[..., k]
        r[..., k, i, j], r[..., k, j, i] = -s[..., k], s[..., k]
    return r[..., 0, :, :] @ r[..., 1, :, :] @ r[..., 2, :, :]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of v (n, 3) over its norm, rounded as np.linalg.norm of the row rounds it."""
    return v / np.sqrt(v[:, None] @ v[:, :, None])[:, 0]


def generate_path(
    n_steps: int = 51,
    radius: float = 10.0,
    amplitude: float = 1.0,
    seed: int = 0,
) -> TerrainPath:
    """Circular route over a random sinusoidal landscape.

    z(x, y) is a sum of N_SINUSOIDS sinusoids in each of x and y with random
    amplitudes (scaled by `amplitude`), frequencies, and phases. Orientation
    follows the velocity direction with pitch from the terrain slope. With
    amplitude 0 the path is a planar circle (pure yaw, unobservable).

    Raises SingularInput when the route points or headings are not finite: the
    terrain or a finite difference overflowed, or a difference underflowed to 0.
    """
    if n_steps < 3:
        raise ValueError("n_steps must be at least 3")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    amps = amplitude * rng.uniform(0.3, 1.0, size=(2, N_SINUSOIDS))
    freqs = rng.uniform(0.2, 0.8, size=(2, N_SINUSOIDS))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(2, N_SINUSOIDS))

    def position(phi):
        """Route points (n, 3) at the angles phi (n,)."""
        x = radius * np.cos(phi)
        y = radius * np.sin(phi)
        waves = amps * np.sin(freqs * np.column_stack([x, y])[:, :, None] + phases)
        heights = waves.sum(axis=2)  # (n, 2): the x and the y sinusoids
        return np.column_stack([x, y, heights[:, 0] + heights[:, 1]])

    phis = np.linspace(0.0, 2.0 * np.pi, n_steps)
    dphi = 1e-5
    with np.errstate(all="ignore"):  # the check below reports any overflow or underflow
        positions = position(phis)
        forward = _unit_rows(position(phis + dphi) - position(phis - dphi))
        left = _unit_rows(np.cross(np.array([0.0, 0.0, 1.0]), forward))
    if not np.isfinite(np.concatenate([positions, forward, left])).all():
        raise SingularInput(
            f"radius {radius} and amplitude {amplitude} give a route whose points "
            "or headings are not finite"
        )
    up = np.cross(forward, left)
    rotations = geom.nearest_rotations(np.stack([forward, left, up], axis=2))
    params = {
        "n_steps": n_steps,
        "radius": radius,
        "amplitude": amplitude,
        "n_sinusoids": N_SINUSOIDS,
        "seed": seed,
    }
    return TerrainPath(rotations=rotations, positions=positions, params=params)


def sensor_trajectories(path: TerrainPath, theta: Transform):
    """World poses (R (n, 3, 3), t (n, 3)) of both sensors: b rides the path, a is offset by theta.

    The products are those of Transform.compose, so they match it bit for bit.
    """
    rb, tb, r, t = path.rotations, path.positions, theta.rotation.m, theta.translation
    return (rb @ r, (rb @ t[:, None])[:, :, 0] + tb), (rb, tb)


def corrupt(m: MeasurementSet, noise: NoiseModel) -> MeasurementSet:
    """Compose each rotation with Euler-angle noise; add Gaussian translation noise.

    The draws run motion by motion, sensor a before b: three Euler angles when
    sigma_r > 0, then three shifts when sigma_t > 0.
    """
    rng = np.random.default_rng(noise.seed)
    sigmas = np.array([noise.sigma_r, noise.sigma_t])
    drawn = sigmas > 0
    eps = np.zeros((m.n, 2, 2, 3))  # motion, sensor (a, b), angles or shift, axis
    eps[:, :, drawn] = sigmas[drawn, None] * rng.standard_normal((m.n, 2, int(drawn.sum()), 3))
    r = _euler_xyz(eps[:, :, 0])
    ra, rb, ta, tb = m.ra @ r[:, 0], m.rb @ r[:, 1], m.ta + eps[:, 0, 1], m.tb + eps[:, 1, 1]
    return replace(m, ra=ra, rb=rb, ta=ta, tb=tb)


def terrain_instance(rng, n_motions, sigma_r, sigma_t, radius=10.0, amplitude=1.0):
    """A noisy n-motion drive over a random terrain with a random extrinsic.

    Draws, in this order, the path seed, the extrinsic and the noise seed from
    `rng`. Returns (path, theta, clean, noisy); sensor b rides `path`.
    """
    path = generate_path(
        n_steps=n_motions + 1, radius=radius, amplitude=amplitude, seed=int(rng.integers(2**31))
    )
    theta = geom.random_transform(rng, translation_scale=0.5)
    clean = relative_motions_from_trajectories(*sensor_trajectories(path, theta))
    noisy = corrupt(clean, NoiseModel(sigma_r, sigma_t, seed=int(rng.integers(2**31))))
    return path, theta, clean, noisy


def fibonacci_sphere(n: int) -> np.ndarray:
    """n deterministic, roughly uniform unit vectors."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    golden = np.pi * (1.0 + np.sqrt(5.0))
    theta = golden * i
    return np.column_stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )


def two_motion_instance(theta: Transform = DEFAULT_THETA) -> MeasurementSet:
    """The minimal observable instance: quarter-turn + 1 m about x, then about y."""
    tb = np.eye(3)[:2]
    rb = np.array([geom.rotation_about(axis, np.pi / 2) for axis in tb])
    r, t = theta.rotation.m, theta.translation
    rt_rb = r.T @ rb  # theta^-1 * v_b * theta, with the products of Transform.compose
    ta = rt_rb @ t + ((r.T @ tb[:, :, None])[:, :, 0] + -r.T @ t)
    return MeasurementSet(ra=rt_rb @ r, rb=rb, ta=ta, tb=tb, kappa=np.ones(2), tau=np.ones(2))


def _perturb_instance(m, rot_axis, rot_magnitude, trans_dir=None, trans_magnitude=0.0):
    """Perturb the first measurement's sensor-b rotation (and optionally translation)."""
    delta = geom.rotation_about(rot_axis, rot_magnitude)
    rb, tb = np.array(m.rb), np.array(m.tb)
    rb[0] = delta @ rb[0]
    if trans_dir is not None:
        tb[0] = tb[0] + trans_magnitude * trans_dir
    return replace(m, rb=rb, tb=tb)


def _certified(m, constraint_set) -> bool | None:
    """The certificate verdict, or None when calibrate raised a CalibrationError."""
    try:
        result = solver.calibrate(m, constraint_set=constraint_set)
    except CalibrationError:
        return None
    return result.certificate.certified


def ablation_experiment(n_axes: int = 100, translation_magnitudes=None, jobs: int = 1):
    """Certified-percentage sweep over constraint sets on the two-motion instance.

    Rotation variant: one rotation measurement is perturbed by each of
    ABLATION_MAGNITUDES about n_axes sampled axes. Translation variant
    (translation_magnitudes given): rotation perturbation fixed at pi/2 and one
    translation perturbed over 256 trials (16 rotation axes x 16 translation
    directions) per magnitude. Each magnitude's trials run under every
    constraint set of CONSTRAINT_KINDS, all in one map. failed_fraction counts
    the trials where calibrate raised.
    """
    base = two_motion_instance()
    if translation_magnitudes is None:
        axes = fibonacci_sphere(n_axes)
        cases = [
            (magnitude, 0.0, [_perturb_instance(base, axis, magnitude) for axis in axes])
            for magnitude in ABLATION_MAGNITUDES
        ]
    else:
        grid = [(axis, d) for axis in fibonacci_sphere(16) for d in fibonacci_sphere(16)]
        cases = [
            (np.pi / 2, t_mag, [_perturb_instance(base, a, np.pi / 2, d, t_mag) for a, d in grid])
            for t_mag in translation_magnitudes
        ]
    cells = [(*case, kind) for case in cases for kind in CONSTRAINT_KINDS]
    tasks = [(m, kind) for _, _, trials, kind in cells for m in trials]
    verdicts = iter(_map_jobs(_certified, tasks, jobs))

    rows = []
    for magnitude, t_mag, trials, kind in cells:
        cell = [next(verdicts) for _ in trials]
        rows.append(
            {
                "rotation_magnitude": magnitude,
                "translation_magnitude": t_mag,
                "constraint_set": kind,
                "n_trials": len(trials),
                "certified_fraction": float(np.mean([f is True for f in cell])),
                "failed_fraction": float(np.mean([f is None for f in cell])),
            }
        )
    summary = {
        "experiment": "ablation",
        "theta": {"R": DEFAULT_THETA.rotation.m.tolist(), "t": DEFAULT_THETA.translation.tolist()},
        "rows": rows,
    }
    return rows, summary


def _map_jobs(fn, arg_tuples, jobs):
    """[fn(*args) for args in arg_tuples] in at most min(jobs, tasks, CPUs) processes.

    The tasks go out in about 16 chunks per worker: the ablation's 3200 trials of
    about 0.5 ms do not each pay a round trip to the pool, and the heatmap's 25
    long cells still go out one at a time.
    """
    workers = min(jobs, len(arg_tuples), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*args) for args in arg_tuples]
    chunksize = -(-len(arg_tuples) // (16 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*arg_tuples), chunksize=chunksize))


def _errors(theta_est: Transform, theta_true: Transform):
    rot = float(np.linalg.norm(theta_est.rotation.m - theta_true.rotation.m))
    trans = float(np.linalg.norm(theta_est.translation - theta_true.translation))
    return rot, trans


def _sweep_trial(sigma_r, sigma_t, n_motions, master_seed, trial):
    _, theta, _, noisy = terrain_instance(
        np.random.default_rng([master_seed, trial]), n_motions, sigma_r, sigma_t
    )
    rows = []
    for method, constraint_set, result in (
        ("convex", "r+c+h", solver.calibrate(noisy)),
        ("local", "", solver.local_solve(noisy)),
    ):
        rot_err, trans_err = _errors(result.extrinsic, theta)
        rows.append(
            {
                "sigma_r": sigma_r,
                "sigma_t": sigma_t,
                "trial": trial,
                "n": n_motions,
                "method": method,
                "constraint_set": constraint_set,
                "rotation_error": rot_err,
                "translation_error": trans_err,
                "cost": result.cost,
                "certified": result.certificate.certified,
                "wall_time_seconds": result.solve_stats["wall_time_seconds"],
            }
        )
    return rows


def noise_sweep(
    sigmas_r=(0.01, 0.05, 0.1),
    sigmas_t=(0.01, 0.05, 0.1),
    n_trials: int = 100,
    n_motions: int = 50,
    seed: int = 0,
    jobs: int = 1,
):
    """Accuracy comparison of the convex solver vs the local baseline over a noise grid."""
    args = [
        (sr, st, n_motions, seed, trial)
        for sr in sigmas_r
        for st in sigmas_t
        for trial in range(n_trials)
    ]
    nested = _map_jobs(_sweep_trial, args, jobs)
    rows = [row for pair in nested for row in pair]
    grid = {}
    cells = _groups(rows, lambda r: (f"{r['sigma_r']},{r['sigma_t']}", r["method"]))
    for (cell, method), sel in cells.items():
        rot_errs = [r["rotation_error"] for r in sel]
        grid.setdefault(cell, {})[method] = {
            "median_rotation_error": float(np.median(rot_errs)),
            "median_translation_error": float(np.median([r["translation_error"] for r in sel])),
            "q1_rotation_error": float(np.quantile(rot_errs, 0.25)),
            "q3_rotation_error": float(np.quantile(rot_errs, 0.75)),
            "certified_fraction": float(np.mean([r["certified"] for r in sel])),
        }
    return rows, {"experiment": "noise_sweep", "grid": grid}


def _groups(rows, key):
    """The rows grouped by key(row), in the order each key is first seen."""
    groups = {}
    for r in rows:
        groups.setdefault(key(r), []).append(r)
    return groups


def init_heatmap(n_inits: int = 64, n_motions: int = 50, seed: int = 0, jobs: int = 1):
    """Max (local - convex) error over initializations at each offset magnitude.

    One random path, calibration, and noise realization (sigma 0.01) is shared
    by the whole heatmap; each cell of HEATMAP_ANGLES x HEATMAP_DISTANCES seeds
    the local solver with n_inits initial guesses offset from the truth by the
    cell's rotation angle and translation distance.
    """
    _, theta, _, noisy = terrain_instance(
        np.random.default_rng([seed, 0]), n_motions, 0.01, 0.01
    )
    convex = solver.calibrate(noisy)
    convex_rot_err, convex_trans_err = _errors(convex.extrinsic, theta)

    cells = [
        (noisy, theta, convex_rot_err, convex_trans_err, angle, dist, n_inits)
        for angle in HEATMAP_ANGLES
        for dist in HEATMAP_DISTANCES
    ]
    rows = _map_jobs(_heatmap_cell, cells, jobs)
    summary = {
        "experiment": "init_heatmap",
        "convex_rotation_error": convex_rot_err,
        "convex_translation_error": convex_trans_err,
        "rows": rows,
    }
    return rows, summary


def _heatmap_cell(noisy, theta, convex_rot_err, convex_trans_err, angle, dist, n_inits):
    """One heatmap row: local solves from n_inits starts offset by (angle, dist)."""
    axes = fibonacci_sphere(n_inits)
    dirs = fibonacci_sphere(n_inits)
    max_rot_diff = -np.inf
    max_trans_diff = -np.inf
    for k in range(n_inits):
        offset_r = geom.rotation_about(axes[k], angle)
        init = Transform(
            RotationMatrix(theta.rotation.m @ offset_r),
            theta.translation + dist * dirs[k],
        )
        local = solver.local_solve(noisy, init=init)
        rot_err, trans_err = _errors(local.extrinsic, theta)
        max_rot_diff = max(max_rot_diff, rot_err - convex_rot_err)
        max_trans_diff = max(max_trans_diff, trans_err - convex_trans_err)
    return {
        "init_angle": float(angle),
        "init_distance": float(dist),
        "n_inits": n_inits,
        "max_rotation_error_diff": float(max_rot_diff),
        "max_translation_error_diff": float(max_trans_diff),
    }


def runtime_bench(n_list=(10, 100, 1000), n_runs: int = 20, seed: int = 0):
    """Wall time vs n (sigma 0.01): solver-only for the convex SDP and the local LM,
    and end to end for `calibrate` (parsing the dumped JSON-lines text, then the call).
    """
    rows = []
    for n in n_list:
        for run in range(n_runs):
            noisy = terrain_instance(np.random.default_rng([seed, n, run]), n, 0.01, 0.01)[3]
            dm = qcqp.assemble(noisy)
            problem, _ = solver.build_sdp_problem(dm, "r+c+h")
            start = time.perf_counter()
            sdp.solve(problem)
            convex_seconds = time.perf_counter() - start
            rows.append({"n": n, "run": run, "method": "convex", "solve_seconds": convex_seconds})
            # The call's own clock, which starts after local_solve imports scipy.
            local_seconds = solver.local_solve(noisy).solve_stats["wall_time_seconds"]
            rows.append({"n": n, "run": run, "method": "local", "solve_seconds": local_seconds})
            buf = io.StringIO()
            dump_measurements(noisy, buf)
            start = time.perf_counter()
            solver.calibrate(load_measurements(buf.getvalue()))
            seconds = time.perf_counter() - start
            rows.append({"n": n, "run": run, "method": "calibrate", "solve_seconds": seconds})
    means = {}
    for key, sel in _groups(rows, lambda r: f"{r['method']},{r['n']}").items():
        times = [r["solve_seconds"] for r in sel]
        means[key] = {
            "mean": float(np.mean(times)),
            "q1": float(np.quantile(times, 0.25)),
            "q3": float(np.quantile(times, 0.75)),
        }
    return rows, {"experiment": "runtime", "means": means}


def write_rows_csv(rows, fp) -> None:
    if not rows:
        return
    fieldnames = list(rows[0].keys())
    writer = csv.DictWriter(fp, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
