"""SO(3)/SE(3) primitives: rotations, rigid transforms, the exponential map, sampling.

All angles are radians, all lengths are meters. Every type is immutable after
construction and all operations are pure functions. Inside the pipeline a
rotation is a plain (3, 3) array; `RotationMatrix` checks SO(3) where an
extrinsic enters or leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidRotation, SingularInput, numerical

ROTATION_TOL = 1e-9


def _as_locked(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def rotation_defects(m: np.ndarray):
    """||M^T M - I||_F and det M of each matrix in a (..., 3, 3) stack.

    M^T M multiplies a contiguous copy of the transposed stack by a contiguous copy
    of the stack: numpy's batched matmul runs several times slower on a strided
    view, and contiguous operands give every layout of m the same bits. The
    determinant is the triple product row_0 . (row_1 x row_2) of M^T (det M^T =
    det M), NaN for a NaN matrix. m.T holds the entries of each M^T on its leading
    axes, so the arithmetic runs on whole arrays of entries. Entries too large for
    the products give an inf or NaN defect, which no check accepts, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.ascontiguousarray(m.swapaxes(-1, -2)) @ np.ascontiguousarray(m) - np.eye(3)
        drift = np.sqrt(np.einsum("...ij,...ij->...", gap, gap))
        (a, b, c), (d, e, f), (g, h, i) = m.T
        return drift, (a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)).T


def require_so3(m: np.ndarray, what: str) -> None:
    """The SO(3) rule: ||M^T M - I||_F and |det M - 1| at most ROTATION_TOL for each
    matrix of the (..., 3, 3) stack m; else InvalidRotation saying which test `what` fails."""
    drift, det = rotation_defects(m)
    if not (drift <= ROTATION_TOL).all():  # also rejects NaN
        raise InvalidRotation(f"{what} is not orthonormal")
    if not (abs(det - 1.0) <= ROTATION_TOL).all():
        raise InvalidRotation(f"{what} determinant is not +1")


@dataclass(frozen=True)
class RotationMatrix:
    """A proper rotation: 3x3 orthonormal matrix with determinant +1."""

    m: np.ndarray

    def __post_init__(self):
        m = _as_locked(self.m)
        if m.shape != (3, 3):
            raise InvalidRotation(f"expected 3x3 matrix, got shape {m.shape}")
        require_so3(m, "matrix")
        object.__setattr__(self, "m", m)


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
        return Transform(RotationMatrix(np.eye(3)), np.zeros(3))

    def matrix(self) -> np.ndarray:
        h = np.eye(4)
        h[:3, :3] = self.rotation.m
        h[:3, 3] = self.translation
        return h

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


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rodrigues' formula: the exponential of angle * [axis]x for a unit axis and
    any real angle. An angle of 0 gives exactly I."""
    k = skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_exp(w) -> np.ndarray:
    """Exponential of the rotation vector w (angle |w| about w / |w|): `rotation_about`'s
    formula on Python floats (`exp_entries`). An angle below 1e-14 gives exactly I, and a
    non-finite w a matrix of NaN, without a warning."""
    return np.array(exp_entries(*np.asarray(w, dtype=float).tolist())).reshape(3, 3)


_IDENTITY_ENTRIES = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def exp_entries(x: float, y: float, z: float) -> tuple:
    """The 9 entries of exp([w]x), row by row, for the rotation vector w = (x, y, z):
    exactly I below an angle of 1e-14, NaN for a non-finite w."""
    angle = math.hypot(x, y, z)
    if angle < 1e-14:
        return _IDENTITY_ENTRIES
    if not math.isfinite(angle):  # math.sin refuses an infinite angle
        return (math.nan,) * 9
    x, y, z = x / angle, y / angle, z / angle
    s, c = math.sin(angle), 1.0 - math.cos(angle)
    xy, xz, yz = c * (x * y), c * (x * z), c * (y * z)
    return (1.0 - c * (y * y + z * z), xy - s * z, xz + s * y,
            xy + s * z, 1.0 - c * (x * x + z * z), yz - s * x,
            xz - s * y, yz + s * x, 1.0 - c * (x * x + y * y))


def nearest_rotations(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest rotation U diag(1, 1, det(U V^T)) V^T of each matrix in a
    (..., 3, 3) stack, from its SVD. The projection is scale invariant, so a matrix
    is refused as singular by its condition, sv_min <= 1e-12 sv_max, not its size."""
    with numerical("rotation projection"):
        u, sv, vt = np.linalg.svd(m)
    if (sv[..., -1] <= 1e-12 * sv[..., 0]).any():
        raise SingularInput("matrix is numerically singular; projection undefined")
    u[..., :, 2] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def polar_rotations(m: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor of each near-rotation in a (..., 3, 3) stack, by two
    Newton steps X <- (X + X^-T) / 2 (Higham, SIAM J. Sci. Stat. Comput. 1986).

    The steps run on x = M^T, as a contiguous copy of m.T: x[i, j] is the array of
    entries (i, j) of each M^T, so every product reads contiguous entries. X^-T is
    cof(X) / det X, where row i of the cofactor matrix is the cross product of rows
    i+1 and i+2 (mod 3), and det X = row_0 . cof_0; stepping M^T by cof(M^T) / det M^T
    = M^-1 steps M by M^-T. The result is transposed back into a C-contiguous stack.
    The iteration converges quadratically to U V^T of X's SVD: a matrix within 1e-6
    of orthonormal with a positive determinant lands within about 1e-15 of
    nearest_rotations after two steps (one leaves about 1e-13). From a far or
    reflected matrix it does not reach the nearest rotation, so callers check that
    bound first.
    """
    x = np.ascontiguousarray(m.T)
    for _ in range(2):
        (a, b, c), (d, e, f), (g, h, i) = x
        cof = np.array(
            [
                [e * i - f * h, f * g - d * i, d * h - e * g],  # row_1 x row_2
                [h * c - i * b, i * a - g * c, g * b - h * a],  # row_2 x row_0
                [b * f - c * e, c * d - a * f, a * e - b * d],  # row_0 x row_1
            ]
        )
        x = 0.5 * (x + cof / (a * cof[0, 0] + b * cof[0, 1] + c * cof[0, 2]))
    return np.ascontiguousarray(x.T)


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
    return RotationMatrix(nearest_rotations(m))


def random_transform(rng_seed, translation_scale: float = 1.0) -> Transform:
    rng = _rng(rng_seed)
    r = random_rotation(rng)
    return Transform(r, rng.normal(scale=translation_scale, size=3))
