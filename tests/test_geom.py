import numpy as np
import pytest

from egocal import geom
from egocal.errors import InvalidRotation, SingularInput
from egocal.geom import RotationMatrix, Transform


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
    r = geom.random_rotation(9)
    assert np.linalg.norm(geom.nearest_rotations(1.0001 * r.m) - r.m) < 1e-12


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
