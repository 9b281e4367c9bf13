import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egocal import geom
from egocal.errors import InvalidRotation, SingularInput
from egocal.geom import RotationMatrix, Transform
from egocal.problem import INGEST_ROTATION_TOL, ingest_rotations

PROPERTY = settings(deadline=None, max_examples=100, derandomize=True)


def test_rotation_matrix_rejects_non_orthonormal():
    with pytest.raises(InvalidRotation):
        RotationMatrix(np.eye(3) + 1e-3)


def test_rotation_matrix_rejects_reflection():
    with pytest.raises(InvalidRotation):
        RotationMatrix(np.diag([1.0, 1.0, -1.0]))


def test_rotation_matrix_rejects_bad_shape():
    with pytest.raises(InvalidRotation):
        RotationMatrix(np.eye(4))


def test_rotation_matrix_is_immutable():
    r = RotationMatrix(np.eye(3))
    with pytest.raises(ValueError):
        r.m[0, 0] = 2.0


def test_rotation_from_axis_angle_identity():
    r = geom.rotation_about(np.array([0.0, 0.0, 1.0]), 0.0)
    assert np.array_equal(r, np.eye(3))


def test_rotation_from_axis_angle_z_quarter_turn():
    r = geom.rotation_about(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(r, expected)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), angle=st.floats(1e-13, 20.0))
def test_rotation_exp_is_rotation_about_its_axis_and_angle(seed, angle):
    # the scalar Rodrigues formula agrees with the array one to rounding
    axis = np.random.default_rng(seed).normal(size=3)
    w = angle * axis / np.linalg.norm(axis)
    norm = math.hypot(*w)
    assert np.abs(geom.rotation_exp(w) - geom.rotation_about(w / norm, norm)).max() <= 1e-15


@pytest.mark.parametrize("w", [[0.0, 0.0, 0.0], [9e-15, 0.0, 0.0], [-5e-15, 5e-15, 5e-15]])
def test_rotation_exp_of_a_tiny_vector_is_exactly_the_identity(w):
    assert np.array_equal(geom.rotation_exp(np.array(w)), np.eye(3))


@pytest.mark.parametrize("w", [[np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0], [np.nan, 0.0, 0.0],
                               [np.inf, np.nan, 1.0]])
def test_rotation_exp_of_a_non_finite_vector_is_nan_without_a_warning(w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = geom.rotation_exp(np.array(w))
    assert r.shape == (3, 3) and np.all(np.isnan(r))


def test_project_to_so3_fixed_point():
    r = geom.random_rotation(7)
    assert np.linalg.norm(geom.nearest_rotations(r.m) - r.m) < 1e-12


def test_project_to_so3_reflection_goes_to_identity():
    r = geom.nearest_rotations(np.diag([1.0, 1.0, -1.0]))
    # identity is the Frobenius-nearest rotation; spot-check against samples
    rng = np.random.default_rng(8)
    d0 = np.linalg.norm(np.diag([1.0, 1.0, -1.0]) - r)
    for _ in range(200):
        other = geom.random_rotation(rng)
        assert np.linalg.norm(np.diag([1.0, 1.0, -1.0]) - other.m) >= d0 - 1e-12
    assert np.allclose(r, np.eye(3))


def test_project_to_so3_scale_invariant():
    # a small matrix is refused by its condition, not its size: at kappa/tau = 1e14
    # the extracted rotation is about 4e-12 R
    r = geom.random_rotation(9)
    for scale in (1.0001, 1e-13):
        assert np.linalg.norm(geom.nearest_rotations(scale * r.m) - r.m) < 1e-12


def test_project_to_so3_idempotent():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(3, 3))
    once = geom.nearest_rotations(m)
    twice = geom.nearest_rotations(once)
    assert np.linalg.norm(once - twice) < 1e-12


def test_project_to_so3_singular_input():
    with pytest.raises(SingularInput):
        geom.nearest_rotations(np.zeros((3, 3)))


def test_compose_identity():
    x = geom.random_transform(11)
    out = Transform.identity().compose(x)
    assert np.allclose(out.matrix(), x.matrix())


def test_invert_identity():
    assert np.allclose(Transform.identity().invert().matrix(), np.eye(4))


def test_compose_point_action():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = geom.random_transform(rng)
        b = geom.random_transform(rng)
        p = rng.normal(size=3)
        ab = a.compose(b)
        b_p = b.rotation.m @ p + b.translation
        a_b_p = a.rotation.m @ b_p + a.translation
        assert np.linalg.norm(ab.rotation.m @ p + ab.translation - a_b_p) < 1e-12


def test_compose_associative_and_inverse():
    rng = np.random.default_rng(13)
    a = geom.random_transform(rng)
    b = geom.random_transform(rng)
    c = geom.random_transform(rng)
    lhs = a.compose(b).compose(c).matrix()
    rhs = a.compose(b.compose(c)).matrix()
    assert np.linalg.norm(lhs - rhs) < 1e-12
    assert np.linalg.norm(a.compose(a.invert()).matrix() - np.eye(4)) < 1e-12
    lhs = a.compose(b).invert().matrix()
    rhs = b.invert().compose(a.invert()).matrix()
    assert np.linalg.norm(lhs - rhs) < 1e-12


def test_random_rotation_deterministic():
    assert np.array_equal(geom.random_rotation(42).m, geom.random_rotation(42).m)


def test_random_rotation_haar_mean_trace():
    rng = np.random.default_rng(14)
    traces = [np.trace(geom.random_rotation(rng).m) for _ in range(10_000)]
    # E[tr R] = 0 under Haar measure
    assert abs(np.mean(traces)) < 0.05


def test_random_rotation_satisfies_invariants():
    rng = np.random.default_rng(15)
    for _ in range(100):
        r = geom.random_rotation(rng)
        assert np.linalg.norm(r.m.T @ r.m - np.eye(3)) < 1e-9
        assert np.linalg.det(r.m) > 0


def test_skew_matches_cross_product():
    rng = np.random.default_rng(16)
    v = rng.normal(size=3)
    w = rng.normal(size=3)
    assert np.allclose(geom.skew(v) @ w, np.cross(v, w))


def _rotations(rng, n):
    return np.array([geom.random_rotation(rng).m for _ in range(n)])


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), size=st.floats(0.0, 1.0))
def test_polar_rotations_match_the_svd_within_the_ingest_tolerance(seed, size):
    # Each matrix is a rotation plus a perturbation of Frobenius norm up to
    # INGEST_ROTATION_TOL, in a (4, 2, 3, 3) stack like the loader's.
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(4, 2, 3, 3))
    e *= size * INGEST_ROTATION_TOL / np.linalg.norm(e, axis=(-2, -1), keepdims=True)
    m = _rotations(rng, 8).reshape(4, 2, 3, 3) + e
    out = geom.polar_rotations(m)
    assert out.shape == m.shape
    assert np.abs(out - geom.nearest_rotations(m)).max() <= 1e-13
    geom.require_so3(out, "projected rotation")


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_polar_rotations_fix_an_exact_rotation(seed):
    r = _rotations(np.random.default_rng(seed), 8)
    assert np.abs(geom.polar_rotations(r) - r).max() <= 1e-14


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1.0))
def test_rotation_defects_determinant_is_the_lu_determinant(seed, scale):
    m = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(16, 3, 3))
    _, det = geom.rotation_defects(m)
    expected = np.linalg.det(m)
    assert np.all(np.abs(det - expected) <= 1e-13 * (1.0 + np.abs(expected)))


@pytest.mark.parametrize("index", np.ndindex(3, 3))
def test_a_nan_entry_gives_a_nan_determinant_and_is_refused(index):
    m = geom.random_rotation(17).m.copy()
    m[index] = np.nan
    drift, det = geom.rotation_defects(m)
    assert np.isnan(drift) and np.isnan(det)
    with pytest.raises(InvalidRotation):
        geom.require_so3(m, "matrix")
    stack = np.stack([np.eye(3), m])[None]  # one record holding a good and a NaN rotation
    with pytest.raises(InvalidRotation, match="^record 0: "):
        ingest_rotations(stack, lambda i: f"record {i}")
