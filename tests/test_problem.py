import io
import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from egocal import geom, sim
from egocal.errors import (
    EmptyInput,
    InvalidRotation,
    LengthMismatch,
    ParseError,
    TooShort,
)
from egocal.geom import AxisAngle, RotationMatrix, Transform
from egocal.problem import (
    AXIS_SEPARATION,
    MeasurementSet,
    check_observability,
    dump_measurements,
    load_measurements,
    load_trajectory,
    relative_motions_from_trajectories,
)


def _record(r_a=None, r_b=None, **extra):
    rec = {
        "t": 0,
        "a": {"R": (r_a if r_a is not None else np.eye(3)).tolist(), "t": [0.0, 0.0, 0.0]},
        "b": {"R": (r_b if r_b is not None else np.eye(3)).tolist(), "t": [0.0, 0.0, 0.0]},
    }
    rec.update(extra)
    return json.dumps(rec)


def test_load_two_lines():
    src = _record() + "\n" + _record() + "\n"
    m = load_measurements(src)
    assert m.n == 2


def test_load_defaults_weights_to_one():
    m = load_measurements(_record())
    assert m.kappa[0] == 1.0
    assert m.tau[0] == 1.0


def test_load_explicit_weights():
    m = load_measurements(_record(kappa=2.5, tau=0.5))
    assert m.kappa[0] == 2.5
    assert m.tau[0] == 0.5


def test_load_rejects_reflection():
    with pytest.raises(InvalidRotation):
        load_measurements(_record(r_a=np.diag([1.0, 1.0, -1.0])))


def test_load_rejects_drifted_rotation():
    bad = np.eye(3)
    bad = bad + 1e-3  # orthonormality off by ~1e-3 > ingestion tolerance
    with pytest.raises(InvalidRotation):
        load_measurements(_record(r_a=bad))


def test_load_reorthonormalizes_slightly_off_input():
    r = geom.random_rotation(1).m + 1e-8 * np.ones((3, 3))
    m = load_measurements(_record(r_a=r))
    got = m.ra[0]
    assert np.linalg.norm(got.T @ got - np.eye(3)) < 1e-12


def test_load_parse_error_carries_line_number():
    src = _record() + "\n{not json\n"
    with pytest.raises(ParseError) as exc:
        load_measurements(src)
    assert exc.value.line == 2
    assert "2" in str(exc.value)


def test_load_missing_pose_key():
    with pytest.raises(ParseError):
        load_measurements('{"t": 0, "a": {"R": [[1,0,0],[0,1,0],[0,0,1]], "t": [0,0,0]}}')


def test_load_empty_input():
    with pytest.raises(EmptyInput):
        load_measurements("\n\n")


def test_dump_load_round_trip():
    m, _ = random_instance(21, n_motions=5)
    buf = io.StringIO()
    dump_measurements(m, buf)
    back = load_measurements(buf.getvalue())
    assert back.n == m.n
    for name in ("ra", "rb", "ta", "tb"):
        assert np.abs(getattr(m, name) - getattr(back, name)).max() < 1e-12


def test_load_trajectory():
    lines = []
    poses = [geom.random_transform(i) for i in range(3)]
    for i, pose in enumerate(poses):
        lines.append(
            json.dumps({"t": i, "pose": {"R": pose.rotation.m.tolist(), "t": pose.translation.tolist()}})
        )
    back = load_trajectory("\n".join(lines))
    assert len(back) == 3
    for p, q in zip(poses, back):
        assert np.linalg.norm(p.matrix() - q.matrix()) < 1e-9


def test_relative_motions_constant_trajectory():
    pose = geom.random_transform(5)
    m = relative_motions_from_trajectories([pose] * 4, [pose] * 4)
    assert m.n == 3
    for r, t in ((m.ra, m.ta), (m.rb, m.tb)):
        assert np.abs(r - np.eye(3)).max() < 1e-12
        assert np.abs(t).max() < 1e-12


def test_relative_motions_two_pose_definition():
    x = geom.random_transform(6)
    m = relative_motions_from_trajectories([Transform.identity(), x], [Transform.identity(), x])
    assert m.n == 1
    assert np.linalg.norm(m.ra[0] - x.rotation.m) < 1e-12
    assert np.linalg.norm(m.ta[0] - x.translation) < 1e-12


def test_relative_motions_length_checks():
    poses = [Transform.identity()] * 3
    with pytest.raises(LengthMismatch):
        relative_motions_from_trajectories(poses, poses[:2])
    with pytest.raises(TooShort):
        relative_motions_from_trajectories(poses[:1], poses[:1])


def test_relative_motions_satisfy_conjugation():
    # trajectories built from a known extrinsic must satisfy theta v_a = v_b theta
    m, theta = random_instance(7, n_motions=10)
    r, t = theta.rotation.m, theta.translation
    assert np.abs(r @ m.ra - m.rb @ r).max() < 1e-12
    assert np.abs(m.ta @ r.T + t - (m.rb @ t + m.tb)).max() < 1e-12


def test_relative_motions_reintegrate():
    rng = np.random.default_rng(8)
    poses = [Transform.identity()]
    for _ in range(9):
        poses.append(poses[-1].compose(geom.random_transform(rng, translation_scale=0.3)))
    m = relative_motions_from_trajectories(poses, poses)
    current = poses[0]
    for i, (r, t) in enumerate(zip(m.ra, m.ta), start=1):
        current = current.compose(Transform(RotationMatrix(r), t))
        assert np.linalg.norm(current.matrix() - poses[i].matrix()) < 1e-10


def test_relative_motions_match_per_step_reference():
    path = sim.generate_path(n_steps=201, seed=3)
    theta = geom.random_transform(4, translation_scale=0.5)
    poses_a, poses_b = sim.sensor_trajectories(path, theta)
    m = relative_motions_from_trajectories(poses_a, poses_b)
    for s, poses in (("a", poses_a), ("b", poses_b)):
        steps = [poses[t - 1].invert().compose(poses[t]) for t in range(1, len(poses))]
        assert np.abs(getattr(m, "r" + s) - [v.rotation.m for v in steps]).max() < 1e-14
        assert np.abs(getattr(m, "t" + s) - [v.translation for v in steps]).max() < 1e-14
    assert np.array_equal(m.kappa, np.ones(200)) and np.array_equal(m.tau, np.ones(200))


def _pure_rotations(axes_angles):
    """Both sensors measure the same pure rotations (theta = identity)."""
    r = [
        geom.rotation_from_axis_angle(AxisAngle(np.asarray(axis, dtype=float), angle)).m
        for axis, angle in axes_angles
    ]
    n = len(r)
    return MeasurementSet(r, r, np.zeros((n, 3)), np.zeros((n, 3)), np.ones(n), np.ones(n))


def test_observability_single_axis():
    m = _pure_rotations([((0, 0, 1), 0.3), ((0, 0, 1), 0.9), ((0, 0, 1), 1.4)])
    report = check_observability(m)
    assert report.distinct_axis_count == 1
    assert not report.observable


def test_observability_antipodal_axes_count_once():
    m = _pure_rotations([((0, 0, 1), 0.5), ((0, 0, -1), 0.5)])
    assert check_observability(m).distinct_axis_count == 1


def test_observability_two_axes():
    m = _pure_rotations([((1, 0, 0), np.pi / 2), ((0, 1, 0), np.pi / 2)])
    report = check_observability(m)
    assert report.observable
    assert report.distinct_axis_count == 2
    assert abs(report.max_axis_angle_between - np.pi / 2) < 1e-9


def test_observability_identity_rotations():
    m = _pure_rotations([((0, 0, 1), 0.0), ((0, 0, 1), 0.0)])
    report = check_observability(m)
    assert report.distinct_axis_count == 0
    assert not report.observable


def test_observability_small_angles_ignored():
    m = _pure_rotations([((1, 0, 0), 1e-5), ((0, 1, 0), 0.8)])
    assert check_observability(m).distinct_axis_count == 1


def test_observability_order_invariant():
    motions = [((1, 0, 0), 0.5), ((0, 1, 0), 0.7), ((0, 0, 1), 0.9)]
    a = check_observability(_pure_rotations(motions))
    b = check_observability(_pure_rotations(motions[::-1]))
    assert a.distinct_axis_count == b.distinct_axis_count


def test_observability_conjugation_invariant():
    m = _pure_rotations([((1, 0, 0), 0.5), ((0, 1, 0), 0.7)])
    q = geom.random_rotation(9)
    conj = replace(m, ra=q.m @ m.ra @ q.m.T)
    assert check_observability(conj).distinct_axis_count == check_observability(m).distinct_axis_count


def test_observability_condition_estimate_blows_up_single_axis():
    single = _pure_rotations([((0, 0, 1), 0.5), ((0, 0, 1), 1.1)])
    two = _pure_rotations([((1, 0, 0), np.pi / 2), ((0, 1, 0), np.pi / 2)])
    assert check_observability(single).condition_estimate > 1e12
    assert check_observability(two).condition_estimate < 1e3


def test_report_serializes():
    m = _pure_rotations([((1, 0, 0), 0.5), ((0, 1, 0), 0.7)])
    d = asdict(check_observability(m))
    json.dumps(d)  # must be JSON-serializable
    assert d["observable"] is True


_GOOD_LINE = _record()
_IDENTITY_POSE = '{"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, 0, 0]}'
_BAD_LINES = {
    "kappa-nan": _record(kappa=float("nan")),
    "tau-infinity": _record(tau=float("inf")),
    "kappa-zero": _record(kappa=0.0),
    "kappa-text": _record(kappa="abc"),
    "kappa-list": _record(kappa=[1]),
    "kappa-huge-int": _record(kappa=10**400),
    "nan-translation": '{"a": {"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, NaN, 0]}, "b": '
    + _IDENTITY_POSE
    + "}",
    "nan-rotation": '{"a": {"R": [[NaN, 0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, 0, 0]}, "b": '
    + _IDENTITY_POSE
    + "}",
    "number-record": "5",
    "null-record": "null",
    "list-pose": '{"a": [1, 2], "b": ' + _IDENTITY_POSE + "}",
    "string-translation": '{"a": {"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": ["1", 0, 0]}, "b": '
    + _IDENTITY_POSE
    + "}",
    "boolean-rotation": '{"a": {"R": [[true, false, false], [false, true, false], '
    '[false, false, true]], "t": [0, 0, 0]}, "b": ' + _IDENTITY_POSE + "}",
    "kappa-numeric-string": _record(kappa="2"),
    "tau-boolean": _record(tau=True),
    "mixed-boolean-translation": '{"a": {"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
    '"t": [true, 0, 0]}, "b": ' + _IDENTITY_POSE + "}",
    "mixed-boolean-rotation": '{"a": {"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1.0]], "t": [0, 0, 0]}, '
    '"b": {"R": [[1, 0, 0], [0, true, 0], [0, 0, 1]], "t": [0, 0, 0]}}',
}


@pytest.mark.parametrize("name", sorted(_BAD_LINES))
def test_malformed_field_rejected_at_the_boundary(name, tmp_path, capsys):
    from egocal import cli
    from egocal.errors import CalibrationError

    text = _GOOD_LINE + "\n" + _BAD_LINES[name] + "\n"
    with pytest.raises(CalibrationError) as exc:
        load_measurements(text)
    assert isinstance(exc.value, ParseError)
    assert exc.value.line == 2
    fixture = tmp_path / "bad.jsonl"
    fixture.write_text(text)
    assert cli.main(["calibrate", "--input", str(fixture)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def good_log_lines():
    buf = io.StringIO()
    dump_measurements(random_instance(40, n_motions=999)[0], buf)
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("name", sorted(_BAD_LINES))
def test_malformed_field_in_a_long_log_names_its_line(name, good_log_lines, tmp_path):
    lines = good_log_lines[:699] + [_BAD_LINES[name]] + good_log_lines[699:]
    text = "\n".join(lines) + "\n"
    path = tmp_path / "log.jsonl"
    path.write_text(text)
    with open(path, "rb") as fp:
        for source in (text, text.encode(), fp):
            with pytest.raises(ParseError) as exc:
                load_measurements(source)
            assert exc.value.line == 700


def test_invalid_rotation_after_blank_lines_names_its_line(good_log_lines):
    bad = _record(r_a=np.eye(3) + 1e-3)
    lines = ["", ""] + good_log_lines[:5] + [" ", "\r"] + [bad] + good_log_lines[5:9]
    with pytest.raises(InvalidRotation, match="^line 10: "):
        load_measurements("\n".join(lines))


def test_load_invalid_utf8_is_parse_error():
    with pytest.raises(ParseError) as exc:
        load_measurements(_GOOD_LINE.encode() + b"\n\xff\xfe\n")
    assert exc.value.line == 2


def _columns(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "ra": np.stack([geom.random_rotation(rng).m for _ in range(n)]),
        "rb": np.stack([geom.random_rotation(rng).m for _ in range(n)]),
        "ta": rng.normal(size=(n, 3)),
        "tb": rng.normal(size=(n, 3)),
        "kappa": rng.uniform(0.5, 2.0, n),
        "tau": rng.uniform(0.5, 2.0, n),
    }


def test_measurement_set_columns_are_read_only_copies():
    cols = _columns(4)
    m = MeasurementSet(**cols)
    cols["ta"][0, 0] = 99.0
    assert m.ta[0, 0] != 99.0
    with pytest.raises(ValueError):
        m.ra[0, 0, 0] = 1.0
    assert m.n == 4


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("ra", np.zeros((4, 3)), ValueError),
        ("tb", np.zeros((3, 3)), ValueError),
        ("ta", np.full((4, 3), np.nan), ValueError),
        ("kappa", [1.0, 1.0, -1.0, 1.0], ValueError),
        ("tau", [1.0, np.inf, 1.0, 1.0], ValueError),
        ("rb", np.tile(np.diag([1.0, 1.0, -1.0]), (4, 1, 1)), InvalidRotation),
        ("ra", np.tile(np.eye(3) + 1e-6, (4, 1, 1)), InvalidRotation),
        ("kappa", [1.0, np.nan, 1.0, 1.0], ValueError),
        ("tau", [0.0, 1.0, 1.0, 1.0], ValueError),
        ("kappa", np.ones((4, 1)), ValueError),
    ],
)
def test_measurement_set_validates_columns(field, value, error):
    with pytest.raises(error):
        MeasurementSet(**{**_columns(4), field: value})


def test_measurement_set_rejects_an_unbatched_motion():
    with pytest.raises(ValueError, match="must have shape"):
        MeasurementSet(
            ra=np.eye(3), rb=np.eye(3), ta=np.zeros(3), tb=np.zeros(3), kappa=1.0, tau=1.0
        )


def _greedy_axes_reference(m, angle_tol=1e-3, axis_tol=1e-2):
    """The per-pair loop check_observability replaced: (count, max separation)."""

    def sep(a, b):
        return float(np.arccos(np.clip(abs(np.dot(a, b)), 0.0, 1.0)))

    axes = []
    for r in m.ra:
        aa = geom.axis_angle_from_rotation(RotationMatrix(r))
        if aa.angle > angle_tol:
            axes.append(aa.axis)
    reps = []
    for axis in axes:
        if all(sep(axis, rep) > axis_tol for rep in reps):
            reps.append(axis)
    pairs = [(a, b) for i, a in enumerate(reps) for b in reps[i + 1:]]
    return len(reps), max((sep(a, b) for a, b in pairs), default=0.0)


@pytest.mark.parametrize("sigma", [0.0, 0.05])
def test_observability_matches_per_pair_reference(sigma):
    m, _ = random_instance(31, n_motions=60, sigma_r=sigma, sigma_t=sigma)
    # A sparse-axis set: repeated axes exercise the "already represented" branch.
    near_x = np.array([1.0, 1e-3, 0.0]) / np.hypot(1.0, 1e-3)
    sparse = _pure_rotations(
        [((1, 0, 0), 0.5), ((1, 0, 0), 0.9), ((0, 1, 0), 0.7), (near_x, 0.4), ((0, 0, 1), 3.1)]
    )
    for data in (m, sparse):
        report = check_observability(data)
        count, max_sep = _greedy_axes_reference(data)
        assert report.distinct_axis_count == count
        assert report.max_axis_angle_between == max_sep


def _axes_set(axes, angles=None):
    axes = np.asarray(axes, dtype=float)
    axes = axes / np.linalg.norm(axes, axis=1)[:, None]
    angles = np.full(len(axes), 0.7) if angles is None else angles
    return _pure_rotations(zip(axes, angles))


def _great_circle(angles):
    return np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=1)


def _assert_matches_reference(m):
    report = check_observability(m)
    count, max_sep = _greedy_axes_reference(m)
    assert report.distinct_axis_count == count
    assert report.max_axis_angle_between == max_sep


def _boundary_pairs(split):
    # Pairs of axes separated by AXIS_SEPARATION, nudged by a few ulps either way,
    # side by side or with every first member before every second one.
    base = geom.random_rotation(3).m
    first = 0.2 * np.arange(81)
    second = first + AXIS_SEPARATION + np.arange(-40, 41) * 1e-16
    pairs = np.stack([_great_circle(first), _great_circle(second)]) @ base.T
    return _axes_set((pairs if split else np.swapaxes(pairs, 0, 1)).reshape(-1, 3))


_CHAIN = 0.6 * AXIS_SEPARATION * np.arange(120)
_ADVERSARIAL_AXES = {
    # Each axis is within AXIS_SEPARATION of its neighbours, so which become
    # representatives depends on the greedy order; 120 spans several Gram blocks.
    "chain": lambda: _axes_set(_great_circle(_CHAIN)),
    "chain-reversed": lambda: _axes_set(_great_circle(_CHAIN[::-1])),
    "near-antipodal": lambda: _axes_set(
        [s * v for v in geom.random_rotation(5).m for s in (1.0, -1.0)]
        + [-(v + [0.0, 0.0, d]) for v in np.eye(3) for d in (0.5e-2, 0.99e-2, 1.01e-2)]
    ),
    "boundary": lambda: _boundary_pairs(split=False),
    "boundary-split": lambda: _boundary_pairs(split=True),
    "terrain-400": lambda: random_instance(32, n_motions=400, sigma_r=0.05, sigma_t=0.05)[0],
    "one-axis-cluster": lambda: _axes_set(
        [0.0, 0.0, 1.0] + 1e-3 * np.random.default_rng(1).normal(size=(100, 3))
    ),
}


@pytest.mark.parametrize("name", sorted(_ADVERSARIAL_AXES))
def test_observability_matches_reference_on_adversarial_axes(name):
    _assert_matches_reference(_ADVERSARIAL_AXES[name]())


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 90),
    centers=st.integers(1, 6),
    spread=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
)
def test_observability_matches_reference_on_random_axis_sets(seed, n, centers, spread):
    # Axes scattered around a few centers, `spread` separations wide, with either sign.
    rng = np.random.default_rng(seed)
    center = rng.normal(size=(centers, 3))
    center /= np.linalg.norm(center, axis=1)[:, None]
    axes = center[rng.integers(centers, size=n)]
    axes = axes + spread * AXIS_SEPARATION * rng.normal(size=(n, 3))
    axes *= rng.choice([-1.0, 1.0], size=(n, 1))
    _assert_matches_reference(_axes_set(axes, rng.uniform(0.0, np.pi, n)))
