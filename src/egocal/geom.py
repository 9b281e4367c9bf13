"""SO(3)/SE(3) primitives: rotations, rigid transforms, the exponential map, sampling.

All angles are radians, all lengths are meters. Every type is immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRotation, SingularInput, numerical

ROTATION_TOL = 1e-9


def _as_locked(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def rotation_defects(m: np.ndarray):
    """||M^T M - I||_F and det M of each matrix in a (..., 3, 3) stack."""
    drift = np.linalg.norm(np.swapaxes(m, -1, -2) @ m - np.eye(3), axis=(-2, -1))
    return drift, np.linalg.det(m)


@dataclass(frozen=True)
class RotationMatrix:
    """A proper rotation: 3x3 orthonormal matrix with determinant +1."""

    m: np.ndarray

    def __post_init__(self):
        m = _as_locked(self.m)
        if m.shape != (3, 3):
            raise InvalidRotation(f"expected 3x3 matrix, got shape {m.shape}")
        drift, det = rotation_defects(m)
        if not drift <= ROTATION_TOL:  # also rejects NaN
            raise InvalidRotation("matrix is not orthonormal")
        if not abs(det - 1.0) <= ROTATION_TOL:
            raise InvalidRotation("matrix determinant is not +1")
        object.__setattr__(self, "m", m)

    @staticmethod
    def identity() -> "RotationMatrix":
        return RotationMatrix(np.eye(3))

    def apply(self, v) -> np.ndarray:
        return self.m @ np.asarray(v, dtype=float)


@dataclass(frozen=True)
class Transform:
    """Rigid transform (rotation then translation), i.e. an element of SE(3)."""

    rotation: RotationMatrix
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        t = _as_locked(self.translation)
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got shape {t.shape}")
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Transform":
        return Transform(RotationMatrix.identity(), np.zeros(3))

    def matrix(self) -> np.ndarray:
        h = np.eye(4)
        h[:3, :3] = self.rotation.m
        h[:3, 3] = self.translation
        return h

    def apply(self, p) -> np.ndarray:
        return self.rotation.m @ np.asarray(p, dtype=float) + self.translation

    def compose(self, other: "Transform") -> "Transform":
        return Transform(
            RotationMatrix(self.rotation.m @ other.rotation.m),
            self.rotation.m @ other.translation + self.translation,
        )

    def invert(self) -> "Transform":
        rt = self.rotation.m.T
        return Transform(RotationMatrix(rt), -rt @ self.translation)


def skew(v) -> np.ndarray:
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_about(axis, angle: float) -> RotationMatrix:
    """Rodrigues' formula: the exponential of angle * [axis]x for a unit axis and
    any real angle. An angle of 0 gives exactly I."""
    k = skew(axis)
    return RotationMatrix(np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k))


def rotation_exp(w) -> RotationMatrix:
    """Exponential of the rotation vector w (angle |w| about w / |w|)."""
    angle = float(np.linalg.norm(w))
    if angle < 1e-14:
        return RotationMatrix.identity()
    return rotation_about(np.asarray(w, dtype=float) / angle, angle)


def project_to_so3(m: np.ndarray) -> RotationMatrix:
    """Frobenius-nearest rotation: U diag(1, 1, det(U V^T)) V^T from the SVD."""
    return RotationMatrix(nearest_rotations(np.asarray(m, dtype=float)))


def nearest_rotations(m: np.ndarray) -> np.ndarray:
    """project_to_so3 over a (..., 3, 3) stack, returning plain arrays."""
    with numerical("rotation projection"):
        u, sv, vt = np.linalg.svd(m)
    if np.any(sv[..., -1] < 1e-12):
        raise SingularInput("matrix is numerically singular; projection undefined")
    u[..., :, 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_rotation(rng_seed) -> RotationMatrix:
    """Haar-uniform rotation via a normalized Gaussian quaternion."""
    rng = _rng(rng_seed)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return project_to_so3(m)


def random_transform(rng_seed, translation_scale: float = 1.0) -> Transform:
    rng = _rng(rng_seed)
    r = random_rotation(rng)
    return Transform(r, rng.normal(scale=translation_scale, size=3))
