import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egocal
import record_scan
from conftest import random_instance
from egocal import geom, qcqp, sim
from egocal.errors import (
    EmptyInput,
    InvalidRotation,
    LengthMismatch,
    NumericalFailure,
    ParseError,
    SingularQtt,
    TooShort,
)
from egocal.geom import RotationMatrix, Transform
from egocal.problem import (
    INGEST_ROTATION_TOL,
    ORJSON_MAX_LINE,
    SINGULAR_QTT_CONDITION,
    MeasurementSet,
    check_observability,
    dump_measurements,
    load_measurements,
    relative_motions_from_trajectories,
    translation_gram,
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


def _drifted(seed, drift):
    """R (I + S) for a random rotation R and symmetric S, with ||M^T M - I||_F about
    `drift`: M^T M - I = 2S + S^2."""
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(3, 3))
    s += s.T
    return geom.random_rotation(rng).m @ (np.eye(3) + drift / (2 * np.linalg.norm(s)) * s)


def test_load_projects_a_rotation_just_inside_the_ingest_tolerance():
    near_edge = _drifted(3, 0.999 * INGEST_ROTATION_TOL)
    drift, _ = geom.rotation_defects(near_edge)
    assert 0.99 * INGEST_ROTATION_TOL < drift < INGEST_ROTATION_TOL
    m = load_measurements(_record() + "\n" + _record(r_a=near_edge, r_b=near_edge.T))
    assert np.abs(m.ra[1] - geom.nearest_rotations(near_edge)).max() <= 1e-13
    assert np.abs(m.rb[1] - geom.nearest_rotations(near_edge.T)).max() <= 1e-13


def test_load_refuses_a_rotation_at_twice_the_ingest_tolerance():
    outside = _drifted(3, 2 * INGEST_ROTATION_TOL)
    drift, _ = geom.rotation_defects(outside)
    assert 1.9 * INGEST_ROTATION_TOL < drift
    with pytest.raises(InvalidRotation, match="^line 3: "):
        load_measurements("\n".join([_record(), _record(), _record(r_b=outside), _record()]))


def test_rotation_too_large_for_its_products_is_refused_without_a_warning():
    huge = np.diag([0.0, 0.0, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidRotation, match="^line 2: "):
            load_measurements("\n".join([_record(), _record(r_a=huge)]))
        with pytest.raises(InvalidRotation):
            RotationMatrix(huge)


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


def _pair(poses):
    """The pose pair (R (n, 3, 3), t (n, 3)) of a list of Transforms."""
    return np.array([p.rotation.m for p in poses]), np.array([p.translation for p in poses])


def test_relative_motions_constant_trajectory():
    pose = _pair([geom.random_transform(5)] * 4)
    m = relative_motions_from_trajectories(pose, pose)
    assert m.n == 3
    for r, t in ((m.ra, m.ta), (m.rb, m.tb)):
        assert np.abs(r - np.eye(3)).max() < 1e-12
        assert np.abs(t).max() < 1e-12


def test_relative_motions_two_pose_definition():
    x = geom.random_transform(6)
    poses = _pair([Transform.identity(), x])
    m = relative_motions_from_trajectories(poses, poses)
    assert m.n == 1
    assert np.linalg.norm(m.ra[0] - x.rotation.m) < 1e-12
    assert np.linalg.norm(m.ta[0] - x.translation) < 1e-12


def test_relative_motions_length_checks():
    r, t = _pair([Transform.identity()] * 3)
    with pytest.raises(LengthMismatch):
        relative_motions_from_trajectories((r, t), (r[:2], t[:2]))
    with pytest.raises(LengthMismatch):
        relative_motions_from_trajectories((r, t), (r, t[:2]))
    with pytest.raises(TooShort):
        relative_motions_from_trajectories((r[:1], t[:1]), (r[:1], t[:1]))


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
    m = relative_motions_from_trajectories(_pair(poses), _pair(poses))
    current = poses[0]
    for i, (r, t) in enumerate(zip(m.ra, m.ta), start=1):
        current = current.compose(Transform(RotationMatrix(r), t))
        assert np.linalg.norm(current.matrix() - poses[i].matrix()) < 1e-10


def test_relative_motions_match_per_step_reference():
    path = sim.generate_path(n_steps=201, seed=3)
    theta = geom.random_transform(4, translation_scale=0.5)
    poses_a, poses_b = sim.sensor_trajectories(path, theta)
    m = relative_motions_from_trajectories(poses_a, poses_b)
    for s, (rotations, translations) in (("a", poses_a), ("b", poses_b)):
        poses = [Transform(RotationMatrix(r), t) for r, t in zip(rotations, translations)]
        steps = [poses[t - 1].invert().compose(poses[t]) for t in range(1, len(poses))]
        assert np.abs(getattr(m, "r" + s) - [v.rotation.m for v in steps]).max() < 1e-14
        assert np.abs(getattr(m, "t" + s) - [v.translation for v in steps]).max() < 1e-14
    assert np.array_equal(m.kappa, np.ones(200)) and np.array_equal(m.tau, np.ones(200))


def _pure_rotations(axes_angles):
    """Both sensors measure the same pure rotations (theta = identity)."""
    r = [geom.rotation_about(np.asarray(axis, float), angle) for axis, angle in axes_angles]
    n = len(r)
    return MeasurementSet(r, r, np.zeros((n, 3)), np.zeros((n, 3)), np.ones(n), np.ones(n))


def _unit(v):
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


def test_observability_single_axis():
    m = _pure_rotations([((0, 0, 1), 0.3), ((0, 0, 1), 0.9), ((0, 0, 1), 1.4)])
    report = check_observability(translation_gram(m))
    assert not report.observable
    assert report.condition_estimate > SINGULAR_QTT_CONDITION


def test_observability_antipodal_axes_count_once():
    m = _pure_rotations([((0, 0, 1), 0.5), ((0, 0, -1), 0.5)])
    report = check_observability(translation_gram(m))
    assert not report.observable
    assert report.condition_estimate > SINGULAR_QTT_CONDITION


def test_observability_two_axes():
    # Quarter turns about x and y add 2 (I - a a^T) each: diag(2, 2, 4).
    m = _pure_rotations([((1, 0, 0), np.pi / 2), ((0, 1, 0), np.pi / 2)])
    report = check_observability(translation_gram(m))
    assert report.observable
    assert report.condition_estimate == pytest.approx(2.0, rel=1e-12)


def test_observability_identity_rotations():
    m = _pure_rotations([((0, 0, 1), 0.0), ((0, 0, 1), 0.0)])
    report = check_observability(translation_gram(m))
    assert not report.observable
    assert report.condition_estimate == np.inf


def test_observability_small_angle_second_axis_is_ill_conditioned():
    # 2 (1 - cos 1e-5) = 1e-10 against 2 (1 - cos 0.8) = 0.61: observable, barely.
    m = _pure_rotations([((1, 0, 0), 1e-5), ((0, 1, 0), 0.8)])
    report = check_observability(translation_gram(m))
    assert report.observable
    assert 1e9 < report.condition_estimate <= SINGULAR_QTT_CONDITION


def test_observability_order_invariant():
    motions = [((1, 0, 0), 0.5), ((0, 1, 0), 0.7), ((0, 0, 1), 0.9)]
    a = check_observability(translation_gram(_pure_rotations(motions)))
    b = check_observability(translation_gram(_pure_rotations(motions[::-1])))
    assert a.observable == b.observable
    assert a.condition_estimate == pytest.approx(b.condition_estimate, rel=1e-12)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), q_seed=st.integers(0, 2**32 - 1))
def test_observability_conjugation_invariant(seed, n, q_seed):
    # A change of sensor b's frame conjugates every R_b by Q, which maps q_tt to
    # Q q_tt Q^T: the same eigenvalues, so the same condition number.
    rng = np.random.default_rng(seed)
    m = _pure_rotations([(_unit(rng.normal(size=3)), rng.uniform(0.1, np.pi)) for _ in range(n)])
    q = geom.random_rotation(q_seed).m
    conj = replace(m, rb=q @ m.rb @ q.T)
    a, b = check_observability(translation_gram(m)), check_observability(translation_gram(conj))
    assert a.observable == b.observable
    assert b.condition_estimate == pytest.approx(a.condition_estimate, rel=1e-9)


def test_observability_condition_estimate_blows_up_single_axis():
    single = _pure_rotations([((0, 0, 1), 0.5), ((0, 0, 1), 1.1)])
    two = _pure_rotations([((1, 0, 0), np.pi / 2), ((0, 1, 0), np.pi / 2)])
    assert check_observability(translation_gram(single)).condition_estimate > 1e12
    assert check_observability(translation_gram(two)).condition_estimate < 1e3


def test_observability_overflowing_weights_raise_numerical_failure():
    # tau = 1e308 overflows the translation block to inf, where eigvalsh fails
    m, _ = random_instance(3, n_motions=10)
    with pytest.raises(NumericalFailure, match="observability"):
        check_observability(translation_gram(replace(m, tau=np.full(m.n, 1e308))))


def test_translation_gram_overflows_without_a_warning():
    # called outside assemble too (local_solve, simulate): the inf entries are the report
    m, _ = random_instance(3, n_motions=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram = translation_gram(replace(m, tau=np.full(m.n, 1e308)))
    assert not np.all(np.isfinite(gram))


def _axis_set(kind, tiny, n, identities, rng):
    """(axis, angle) pairs of one of the observability test's families of rotation sets."""
    first = _unit(rng.normal(size=3))
    signs = rng.choice([-1.0, 1.0], size=n)
    motions = [(s * first, rng.uniform(0.05, np.pi)) for s in signs]
    if kind == "tiny-angle":  # a second axis rotated about by only `tiny` rad
        motions.append((_unit(rng.normal(size=3)), tiny))
    elif kind == "tiny-separation":  # a second axis `tiny` rad from the first
        normal = _unit(np.cross(first, rng.normal(size=3)))
        second = np.cos(tiny) * first + np.sin(tiny) * normal
        motions.append((second, rng.uniform(0.05, np.pi)))
    elif kind == "random-axes":
        motions = [(_unit(rng.normal(size=3)), rng.uniform(0.05, np.pi)) for _ in range(n)]
    return motions + [(first, 0.0)] * identities


@settings(deadline=None, max_examples=120, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["one-axis", "tiny-angle", "tiny-separation", "random-axes"]),
    tiny=st.sampled_from([1e-9, 1e-7, 1e-6, 1e-5, 1e-3]),
    n=st.integers(2, 6),
    identities=st.integers(0, 2),
)
def test_observability_is_the_refusal_of_assemble(seed, kind, tiny, n, identities):
    rng = np.random.default_rng(seed)
    m = _pure_rotations(_axis_set(kind, tiny, n, identities, rng))
    # Sensor a's rotations are unrelated to b's: the rule reads only R_b and tau.
    ra = np.array([geom.random_rotation(rng).m for _ in range(m.n)])
    m = replace(m, ra=ra, kappa=rng.lognormal(0.0, 2.0, m.n), tau=rng.lognormal(0.0, 2.0, m.n))
    report = check_observability(translation_gram(m))
    try:
        assert qcqp.assemble(m).observability == report  # the decision assembly keeps
        refused = False
    except SingularQtt:
        refused = True
    assert report.observable is not refused
    # One axis is always refused and random axes never are; the tiny-angle and
    # tiny-separation families land on either side, depending on `tiny` and the weights.
    if kind == "one-axis":
        assert refused
    elif kind == "random-axes":
        assert not refused


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["one-axis", "tiny-angle", "tiny-separation", "random-axes"]),
    n=st.integers(2, 6),
    identities=st.integers(0, 2),
)
def test_translation_gram_is_the_axis_angle_sum(seed, kind, n, identities):
    # tau (I - R)^T (I - R) = 2 tau (1 - cos theta)(I - a a^T) for R = rot(a, theta).
    rng = np.random.default_rng(seed)
    motions = _axis_set(kind, 1e-4, n, identities, rng)
    m = replace(_pure_rotations(motions), tau=rng.lognormal(0.0, 2.0, len(motions)))
    axes, angles = (np.array(column) for column in zip(*motions))
    projector = np.eye(3) - axes[:, :, None] * axes[:, None, :]
    expected = np.einsum("i,ijk->jk", 2.0 * m.tau * (1.0 - np.cos(angles)), projector)
    gram = translation_gram(m)
    assert np.all(np.abs(gram - expected) <= 1e-12 * np.trace(expected))


@pytest.mark.parametrize("n", [2, 1000, 10_000])
def test_translation_gram_is_the_per_measurement_sum(n):
    m, _ = random_instance(27, n_motions=n, sigma_r=0.01, sigma_t=0.01)
    m = replace(m, tau=np.random.default_rng(27).lognormal(0.0, 1.0, n))
    loop = np.zeros((3, 3))
    for tau, rb in zip(m.tau, m.rb):
        d = np.eye(3) - rb
        loop += tau * (d.T @ d)
    gram = translation_gram(m)
    assert np.max(np.abs(gram - loop)) <= 1e-13 * np.max(np.abs(loop))
    assert np.array_equal(gram, gram.T)


@pytest.mark.parametrize("n", [2, 50, 10_000])
@pytest.mark.parametrize("weight", [1e-300, 1e-12, 1.0, 1e200])
def test_translation_gram_is_the_einsum_contraction_bit_for_bit(n, weight):
    # the moment contracted over D's row index by ndarray.trace, as by einsum("ijil->jl")
    m, _ = random_instance(32, n_motions=n, sigma_r=0.05, sigma_t=0.05)
    m = replace(m, tau=weight * np.random.default_rng(32).lognormal(0.0, 1.0, n))
    d = (np.eye(3) - m.rb).reshape(n, 9)
    gram = np.einsum("ijil->jl", ((m.tau[:, None] * d).T @ d).reshape(3, 3, 3, 3))
    assert np.array_equal(translation_gram(m), 0.5 * (gram + gram.T))


def test_report_serializes():
    m = _pure_rotations([((1, 0, 0), 0.5), ((0, 1, 0), 0.7)])
    d = asdict(check_observability(translation_gram(m)))
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
    "mixed-false-translation": '{"a": {"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
    '"t": [false, 0, 0]}, "b": ' + _IDENTITY_POSE + "}",
    # Each pose's R is unpacked into three rows before the one conversion of all rows:
    # 2 rows in a and 4 in b make 8, as two good poses do, and must still be refused.
    "rotation-rows-shared": json.dumps(
        {"a": {"R": [[1, 0, 0], [0, 1, 0]], "t": [0, 0, 0]},
         "b": {"R": [[0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, 0, 0]}}),
    # Rows and t are unpacked into exactly three numbers each before the one flat
    # conversion: rows of 4, 2 and 3 numbers flatten to exactly I, and a's 4-number t
    # with b's 2-number first row make 24 numbers, as two good poses do.
    "rotation-rows-ragged": json.dumps(
        {"a": {"R": [[1, 0, 0, 0], [1, 0], [0, 0, 1]], "t": [0, 0, 0]},
         "b": json.loads(_IDENTITY_POSE)}),
    "numbers-shared": json.dumps(
        {"a": {"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, 0, 0, 1]},
         "b": {"R": [[0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, 0, 0]}}),
    "rotation-text": '{"a": {"R": "abc", "t": [0, 0, 0]}, "b": ' + _IDENTITY_POSE + "}",
    "rotation-flat": '{"a": {"R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0, 0]}, "b": '
    + _IDENTITY_POSE
    + "}",
    "translation-four": '{"a": {"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": [0, 0, 0, 0]}, "b": '
    + _IDENTITY_POSE
    + "}",
    "translation-column": '{"a": {"R": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "t": [[0], [0], [0]]}, '
    '"b": ' + _IDENTITY_POSE + "}",
    # One decoder scan per line refuses what follows the record, as json.loads does.
    "trailing-text": _GOOD_LINE + " x",
    "trailing-record": _GOOD_LINE + _GOOD_LINE,
    "trailing-comma-record": _GOOD_LINE + ", " + _GOOD_LINE,
    "trailing-bracket": _GOOD_LINE + "]",
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


_FIELD_MESSAGES = {"R": "pose 'R' must be", "t": "pose 't' must be", "weights": "kappa and tau"}


@pytest.mark.parametrize(
    "name, field",
    [
        ("rotation-rows-shared", "R"),
        ("rotation-text", "R"),
        ("rotation-flat", "R"),
        ("boolean-rotation", "R"),
        ("mixed-boolean-rotation", "R"),
        ("nan-rotation", "R"),
        ("translation-four", "t"),
        ("translation-column", "t"),
        ("string-translation", "t"),
        ("mixed-boolean-translation", "t"),
        ("nan-translation", "t"),
        ("kappa-zero", "weights"),
        ("tau-boolean", "weights"),
    ],
)
def test_a_malformed_line_says_which_field_is_at_fault(name, field, good_log_lines):
    # All poses go through one conversion; its error still names R, t or the weights.
    lines = good_log_lines[:3] + [_BAD_LINES[name]] + good_log_lines[3:6]
    with pytest.raises(ParseError, match=f"^line 4: {_FIELD_MESSAGES[field]}") as exc:
        load_measurements("\n".join(lines))
    assert exc.value.line == 4


def _line(a=(), b=(), **weights):
    """A record whose poses are the identity but for the fields `a` and `b` give."""
    poses = [json.loads(_IDENTITY_POSE) | dict(fields) for fields in (a, b)]
    return json.dumps({"a": poses[0], "b": poses[1], **weights})


_BAD_R = "pose 'R' must be a 3x3 of finite numbers"
_BAD_T = "pose 't' must be 3 finite numbers"
_BAD_WEIGHTS = "kappa and tau must be positive and finite"


@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param(
            _line(a={"t": [0, 0]}, b={"R": [[1, 0, 0], [0, 1, 0]]}), _BAD_R, id="short-t-then-two-rows"
        ),
        pytest.param(
            _line(a={"R": [[1, 0, 0, 0], [0, 1, 0], [0, 0, 1]]}, b={"t": [0, 0]}),
            _BAD_T,
            id="long-row-then-short-t",
        ),
        pytest.param(_BAD_LINES["rotation-rows-ragged"], _BAD_R, id="rotation-rows-ragged"),
        pytest.param(_line(b={"t": [0, 0, 0, 0]}), _BAD_T, id="translation-four"),
        pytest.param(_line(a={"t": [0, True, 0]}), _BAD_T, id="boolean-in-t"),
        pytest.param(_line(a={"R": [[1, 0, 0], [0, True, 0], [0, 0, 1]]}), _BAD_R, id="boolean-in-R"),
        pytest.param(_line(kappa="2"), _BAD_WEIGHTS, id="kappa-numeric-string"),
        pytest.param(
            _line(a={"t": [0, float("nan"), 0]}, b={"R": [[1, 0, 0], "abc", [0, 0, 1]]}),
            _BAD_T,
            id="nan-in-t-then-text-row",
        ),
    ],
)
def test_a_bad_line_names_the_field_at_fault(line, message):
    # A pose's t is blamed when the t's alone do not convert, else its R; an R that
    # is not three rows is blamed at once, before a later pose is looked at.
    with pytest.raises(ParseError) as exc:
        load_measurements(line)
    assert str(exc.value) == f"line 1: {message}"


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


@pytest.mark.parametrize("name", [name for name in _BAD_LINES if name.startswith("trailing-")])
def test_trailing_data_is_extra_data(name):
    with pytest.raises(ParseError, match="Extra data") as exc:
        load_measurements(_GOOD_LINE + "\n" + _BAD_LINES[name])
    assert exc.value.line == 2


_SOURCES = {  # a log and the error its load raises
    "good": (_GOOD_LINE + "\n" + _GOOD_LINE, None),
    "bad-line": (_GOOD_LINE + "\n{not json\n" + _GOOD_LINE, ParseError),
    "bad-rotation": (_GOOD_LINE + "\n" + _record(r_a=np.eye(3) + 1e-3), InvalidRotation),
}


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("source", sorted(_SOURCES))
def test_load_leaves_the_collector_as_it_found_it(collecting, source):
    text, error = _SOURCES[source]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(error) if error else contextlib.nullcontext():
            load_measurements(text)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_invalid_rotation_after_blank_lines_names_its_line(good_log_lines):
    bad = _record(r_a=np.eye(3) + 1e-3)
    lines = ["", ""] + good_log_lines[:5] + [" ", "\r"] + [bad] + good_log_lines[5:9]
    with pytest.raises(InvalidRotation, match="^line 10: "):
        load_measurements("\n".join(lines))


def test_load_invalid_utf8_is_parse_error():
    inside_a_string = _GOOD_LINE[:-1].encode() + b', "note": "\xff"}'
    for bad in (b"\xff\xfe", inside_a_string):
        with pytest.raises(ParseError) as exc:
            load_measurements(b"\n".join([_GOOD_LINE.encode(), bad, _GOOD_LINE.encode()]))
        assert exc.value.line == 2


def test_record_nested_too_deeply_names_its_line():
    # json.loads raises RecursionError past the interpreter's recursion limit.
    limit = sys.getrecursionlimit()
    nested = ['{"a": ' + "[" * 100_000] + [
        '{"a": ' + "[" * depth + "]" * depth + "}" for depth in range(limit - 300, limit + 10, 10)
    ]
    for bad in nested:
        with pytest.raises(ParseError) as exc:
            load_measurements("\n".join([_GOOD_LINE, bad, _GOOD_LINE]))
        assert exc.value.line == 2


def _run_python(script, *args):
    """The completed run of `script` with `args` in a fresh interpreter that imports this
    egocal, so that a crash by signal fails the test instead of ending the test run."""
    src = str(Path(egocal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True)


def test_a_key_nested_a_million_levels_deep_is_refused_without_a_crash():
    # orjson 3.8.3 dies by SIGSEGV on this closed nesting; the line is longer than
    # ORJSON_MAX_LINE, so the scanner reads it and refuses it past the recursion limit
    script = textwrap.dedent("""
        import sys
        from egocal.problem import load_measurements
        good = sys.argv[1]
        deep = good[:-1] + ', "x": ' + "[" * 10**6 + "]" * 10**6 + "}"
        try:
            load_measurements("\\n".join([good, deep, good]))
        except Exception as exc:
            print(type(exc).__name__, exc.line, exc)
    """)
    proc = _run_python(script, _GOOD_LINE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ParseError 2 line 2: invalid JSON: maximum recursion depth")


def test_the_deepest_nesting_of_a_line_orjson_reads_does_not_crash_a_small_thread_stack():
    # Closed list, dict and mixed nesting as deep as ORJSON_MAX_LINE characters allow,
    # alone (not a record) and as an extra key of a record, read in a thread with a
    # 64 KiB stack: every line is refused as no record or loaded, none crashes.
    script = textwrap.dedent("""
        import sys
        import threading
        from egocal.errors import ParseError
        from egocal.problem import ORJSON_MAX_LINE, load_measurements

        LEVELS = {"list": ("[", "", "]"), "dict": ('{"":', "0", "}"), "mixed": ('[{"":', "0", "}]")}

        def nested(opens, inner, closes, size):
            depth = (size - len(inner)) // len(opens + closes)
            pad = " " * (size - len(inner) - depth * len(opens + closes))
            return opens * depth + pad + inner + closes * depth

        prefix = sys.argv[1][:-1] + ', "x": '
        lines = []
        for name, level in LEVELS.items():
            lines.append((name, nested(*level, ORJSON_MAX_LINE)))
            inside = nested(*level, ORJSON_MAX_LINE - len(prefix) - 1)
            lines.append(("record-" + name, prefix + inside + "}"))

        def load_each():
            for name, line in lines:
                assert len(line) == ORJSON_MAX_LINE
                try:
                    print(name, load_measurements(line).n)
                except ParseError as exc:
                    print(name, exc)

        threading.stack_size(64 * 1024)
        thread = threading.Thread(target=load_each)
        thread.start()
        thread.join()
    """)
    proc = _run_python(script, _GOOD_LINE)
    assert proc.returncode == 0, proc.stderr
    no_record = "line 1: record must hold a and b, each with 'R' and 't'"
    assert proc.stdout.splitlines() == [
        line for name in ("list", "dict", "mixed") for line in (f"{name} {no_record}", f"record-{name} 1")
    ]


def _with_note(line, size):
    """The record `line` with a "note" string that makes it `size` characters long."""
    return line[:-1] + ', "note": "' + "x" * (size - len(line) - len(', "note": ""')) + '"}'


def test_orjson_reads_lines_up_to_its_limit_and_no_longer(monkeypatch):
    read, loads = [], orjson.loads
    monkeypatch.setattr(orjson, "loads", lambda text: read.append(text) or loads(text))
    lines = [_with_note(_GOOD_LINE, size) for size in (ORJSON_MAX_LINE, ORJSON_MAX_LINE + 1)]
    plain = load_measurements(_GOOD_LINE)
    for line in lines:
        assert load_measurements(line).ta.tobytes() == plain.ta.tobytes()
    assert lines[0] in read and lines[1] not in read


def _scanner_only(monkeypatch):
    """Have orjson refuse every line, as it refuses a line too long for it."""
    refused = []

    def refuse(text):
        refused.append(text)
        raise orjson.JSONDecodeError("refused", text, 0)

    monkeypatch.setattr(orjson, "loads", refuse)
    return refused


@pytest.mark.parametrize("name", sorted(_BAD_LINES))
def test_the_scanner_alone_refuses_a_bad_line_alike(name, monkeypatch):
    text = _GOOD_LINE + "\n" + _BAD_LINES[name]
    with pytest.raises(ParseError) as decoded:
        load_measurements(text)
    refused = _scanner_only(monkeypatch)
    with pytest.raises(ParseError) as scanned:
        load_measurements(text)
    assert refused
    assert (str(scanned.value), scanned.value.line) == (str(decoded.value), decoded.value.line)


def _assert_same_columns(a, b):
    for name in ("ra", "rb", "ta", "tb", "kappa", "tau"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_the_scanner_alone_loads_a_log_alike(good_log_lines, monkeypatch):
    text = "\n".join(good_log_lines + [good_log_lines[0]])  # 1000 records
    decoded = load_measurements(text)
    refused = _scanner_only(monkeypatch)
    scanned = load_measurements(text)
    assert len(refused) == 1000
    _assert_same_columns(scanned, decoded)


def test_records_too_long_for_orjson_load_like_the_plain_log(good_log_lines):
    lines = good_log_lines + [good_log_lines[0]]  # 1000 records
    noted = [_with_note(line, ORJSON_MAX_LINE + 1 + i) for i, line in enumerate(lines)]
    _assert_same_columns(load_measurements("\n".join(noted)), load_measurements("\n".join(lines)))


def test_integers_beyond_64_bits_load_as_floats():
    pose = {"R": np.eye(3, dtype=int).tolist(), "t": [2**70, -(2**64), 3]}
    m = load_measurements(json.dumps({"a": pose, "b": pose, "kappa": 2**65, "tau": 2}))
    assert m.ta[0].tolist() == [float(2**70), -float(2**64), 3.0]
    assert (m.kappa[0], m.tau[0]) == (float(2**65), 2.0)


_KINDS_OF_BAD_LINE = {
    "kappa-zero": _BAD_LINES["kappa-zero"].encode(),
    "not-json": b"{not json",
    "mixed-boolean-translation": _BAD_LINES["mixed-boolean-translation"].encode(),
    "invalid-utf8": b"\xff\xfe",
}


@pytest.mark.parametrize(
    "first, second",
    [
        (first, second)
        for pair in [
            ("kappa-zero", "not-json"),
            ("mixed-boolean-translation", "not-json"),
            ("kappa-zero", "invalid-utf8"),
        ]
        for first, second in (pair, pair[::-1])
    ],
)
def test_first_bad_line_wins_whatever_its_kind(first, second, good_log_lines):
    good = [line.encode() for line in good_log_lines[:5]]
    lines = good[:4] + [_KINDS_OF_BAD_LINE[first], good[4], _KINDS_OF_BAD_LINE[second]]
    data = b"\n".join(lines) + b"\n"
    sources = [data] if "invalid-utf8" in (first, second) else [data, data.decode()]
    for source in sources:
        with pytest.raises(ParseError) as exc:
            load_measurements(source)
        assert exc.value.line == 5


def test_booleans_outside_the_poses_load_like_the_plain_log(good_log_lines):
    lines = good_log_lines + [good_log_lines[0]]  # 1000 records
    marked = [line[:-1] + ', "ok": true, "note": "false"}' for line in lines]
    plain, with_booleans = load_measurements("\n".join(lines)), load_measurements("\n".join(marked))
    for name in ("ra", "rb", "ta", "tb", "kappa", "tau"):
        assert getattr(with_booleans, name).tobytes() == getattr(plain, name).tobytes()


def test_a_boolean_field_on_every_third_record_loads_like_the_plain_log(good_log_lines):
    # a true anywhere has every number of the log type-checked, where the texts without
    # one hold only int and float numbers
    marked = [line[:-1] + ', "keyframe": true}' if i % 3 == 2 else line
              for i, line in enumerate(good_log_lines)]
    plain = load_measurements("\n".join(good_log_lines))
    with_booleans = load_measurements("\n".join(marked))
    for name in ("ra", "rb", "ta", "tb", "kappa", "tau"):
        assert getattr(with_booleans, name).tobytes() == getattr(plain, name).tobytes()


def _with_true(line, field):
    record = json.loads(line)
    if field == "R":
        record["a"]["R"][0][0] = True
    else:
        record[field] = True
    return json.dumps(record)


@pytest.mark.parametrize("at", [0, 499, 998])
@pytest.mark.parametrize("field, message", [("R", _BAD_R), ("kappa", _BAD_WEIGHTS),
                                            ("tau", _BAD_WEIGHTS)])
def test_a_true_in_place_of_a_number_is_refused_on_its_line(field, message, at, good_log_lines):
    # numpy would take the true for 1; the error names the line the record scan names
    lines = list(good_log_lines)
    lines[at] = _with_true(lines[at], field)
    text = "\n".join(lines)
    with pytest.raises(ParseError) as scanned:
        record_scan.load_measurements(text)
    with pytest.raises(ParseError) as exc:
        load_measurements(text)
    assert exc.value.line == scanned.value.line == at + 1
    assert str(exc.value) == f"line {at + 1}: {message}"


@pytest.mark.parametrize(
    "name, key",
    [
        ("string-translation", "a"),
        ("boolean-rotation", "a"),
        ("mixed-boolean-translation", "a"),
        ("mixed-boolean-rotation", "b"),
        ("nan-rotation", "a"),
    ],
)
def test_certify_theta_rejects_a_malformed_pose(name, key, tmp_path, capsys):
    # `certify --theta` reads its pose with the rules of a log line.
    from egocal import cli

    pose = json.loads(_BAD_LINES[name])[key]
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(json.dumps({"theta": pose}))
    with pytest.raises(ParseError):
        cli._load_theta(theta_path)
    fixture = tmp_path / "log.jsonl"
    fixture.write_text(_GOOD_LINE + "\n")
    assert cli.main(["certify", "--input", str(fixture), "--theta", str(theta_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


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
