"""Quadratic-form assembly and the SO(3) constraint catalog.

The homogenized decision vector is x = [t (3), r = vec(R) column-major (9),
y (1)], so the data matrix is 13x13. After analytically minimizing over the
unconstrained translation, the reduced problem acts on r_tilde = [r, y] with a
10x10 Schur complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularQtt, TooShort
from .geom import RotationMatrix
from .problem import MeasurementSet, observability

DIM_FULL = 13
DIM_REDUCED = 10
Y_INDEX = 9  # index of the homogenizing variable inside r_tilde

CONSTRAINT_KINDS = ("r", "r+c", "r+h", "r+c+h")

_I3 = np.eye(3)
_CHUNK = 128  # measurements per batch in assemble, which bounds its memory for any n


def rotation_block(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """9x9 coefficient block of one measurement, mapping vec(R) to vec(R R_a - R_b R)."""
    return np.kron(ra.T, _I3) - np.kron(_I3, rb)


def translation_block(ta: np.ndarray, rb: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """3x13 coefficient block of one measurement, mapping x to R t_a + t - R_b t - y t_b."""
    block = np.zeros((3, DIM_FULL))
    block[:, :3] = _I3 - rb
    block[:, 3:12] = np.kron(ta[None, :], _I3)
    block[:, 12] = -tb
    return block


@dataclass(frozen=True)
class DataMatrix:
    """The assembled 13x13 quadratic form and its translation-reduced pieces."""

    q: np.ndarray            # 13x13, ordering [t, vec(R), y]
    q_tt: np.ndarray         # 3x3 translation block
    q_t_rtilde: np.ndarray   # 3x10 coupling block
    q_tilde: np.ndarray      # 10x10 Schur complement q / q_tt


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the leading (measurement) axis of a and/or b."""
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def assemble(m: MeasurementSet) -> DataMatrix:
    """Sum per-measurement Gram contributions and Schur-reduce over translation.

    The stacked blocks are rotation_block and translation_block of each batch
    of measurements. Their weighted Grams are summed in the order of a
    per-measurement loop (rotation then translation, one by one), so q is
    bit-identical to that loop: on borderline instances the interior-point
    solve can change outcome under last-bit changes of q.

    Raises SingularQtt when `problem.observability` finds the translation
    block numerically singular, the signature of single-axis data.
    """
    if m.n < 2:
        raise TooShort("calibration requires at least two relative motions")
    q = np.zeros((DIM_FULL, DIM_FULL))
    for lo in range(0, m.n, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        ra, rb, ta, tb, kappa, tau = (c[part] for c in (m.ra, m.rb, m.ta, m.tb, m.kappa, m.tau))
        rot = _kron(np.swapaxes(ra, 1, 2), _I3) - _kron(_I3, rb)
        trans = np.zeros((len(ra), 3, DIM_FULL))
        trans[:, :, :3] = _I3 - rb
        trans[:, :, 3:12] = _kron(ta[:, None, :], _I3)
        trans[:, :, 12] = -tb
        grams = np.zeros((len(ra), 2, DIM_FULL, DIM_FULL))
        grams[:, 0, 3:12, 3:12] = kappa[:, None, None] * (np.swapaxes(rot, 1, 2) @ rot)
        grams[:, 1] = tau[:, None, None] * (np.swapaxes(trans, 1, 2) @ trans)
        q = np.concatenate([q[None], grams.reshape(-1, DIM_FULL, DIM_FULL)]).sum(axis=0)
    q = 0.5 * (q + q.T)

    q_tt = q[:3, :3]
    q_t_rtilde = q[:3, 3:]
    if not observability(q_tt).observable:
        raise SingularQtt(
            "translation block of the data matrix is singular; "
            "measured rotations likely share a single axis"
        )
    # Schur complement through a Cholesky factor keeps q_tilde symmetric to
    # machine precision. half = chol^-1 q_t_rtilde by forward substitution.
    chol = np.linalg.cholesky(q_tt)
    half = q_t_rtilde.copy()
    for j in range(3):
        half[j] /= chol[j, j]
        half[j + 1 :] -= np.outer(chol[j + 1 :, j], half[j])
    q_tilde = q[3:, 3:] - half.T @ half
    q_tilde = 0.5 * (q_tilde + q_tilde.T)
    return DataMatrix(q=q, q_tt=q_tt, q_t_rtilde=q_t_rtilde, q_tilde=q_tilde)


def reduced_vector(rotation: RotationMatrix, y: float = 1.0) -> np.ndarray:
    """r_tilde = [vec(R) (column-major), y]."""
    out = np.empty(DIM_REDUCED)
    out[:9] = rotation.m.reshape(9, order="F")
    out[9] = y
    return out


def full_vector(translation, rotation: RotationMatrix, y: float = 1.0) -> np.ndarray:
    """x = [t, vec(R), y]."""
    out = np.empty(DIM_FULL)
    out[:3] = np.asarray(translation, dtype=float)
    out[3:] = reduced_vector(rotation, y)
    return out


def _rc(i: int, j: int) -> int:
    """Index of R[i, j] inside the column-major vec(R)."""
    return 3 * j + i


def _sym_add(a: np.ndarray, i: int, j: int, value: float) -> None:
    a[i, j] += 0.5 * value
    a[j, i] += 0.5 * value


def _orthogonality(rows: bool) -> list:
    """(R R^T)_{ij} (rows) or (R^T R)_{ij} = y^2 delta_{ij} over the upper triangle, 6 matrices."""
    index = _rc if rows else (lambda i, k: _rc(k, i))
    mats = []
    for i, j in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
        a = np.zeros((DIM_REDUCED, DIM_REDUCED))
        for k in range(3):
            _sym_add(a, index(i, k), index(j, k), 1.0)
        if i == j:
            a[Y_INDEX, Y_INDEX] -= 1.0
        mats.append(a)
    return mats


def _handedness() -> list:
    """Column cross products R_i x R_j = y R_k, cyclic (i,j,k): 9 matrices."""
    mats = []
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        for m, p, q in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            # component m of column_i x column_j minus y * R[m, k]
            a = np.zeros((DIM_REDUCED, DIM_REDUCED))
            _sym_add(a, _rc(p, i), _rc(q, j), 1.0)
            _sym_add(a, _rc(q, i), _rc(p, j), -1.0)
            _sym_add(a, _rc(m, k), Y_INDEX, -1.0)
            mats.append(a)
    return mats


def homogenizer() -> np.ndarray:
    """E = e_y e_y^T, encoding y^2 = 1 via tr(E X) = 1."""
    e = np.zeros((DIM_REDUCED, DIM_REDUCED))
    e[Y_INDEX, Y_INDEX] = 1.0
    return e


@dataclass(frozen=True)
class ConstraintSet:
    """Catalog of quadratic-form matrices vanishing on every lifted rotation."""

    kind: str
    stacked: np.ndarray  # (m + 1, 10, 10): the m constraints, then the homogenizer; read-only


def _build_catalog(kind: str) -> ConstraintSet:
    mats = _orthogonality(True) + (_orthogonality(False) if "c" in kind else [])
    stacked = np.stack(mats + (_handedness() if "h" in kind else []) + [homogenizer()])
    stacked.flags.writeable = False
    return ConstraintSet(kind, stacked)


_CATALOGS = {kind: _build_catalog(kind) for kind in CONSTRAINT_KINDS}


def constraint_catalog(kind: str = "r+c+h") -> ConstraintSet:
    """The constraint matrices of one of the four ablation sets.

    'r' is row orthogonality (6 matrices); '+c' adds the redundant column
    orthogonality (6 more); '+h' adds the right-handedness cross products (9).
    """
    if kind.lower() not in _CATALOGS:
        raise ValueError(f"unknown constraint set {kind!r}; expected one of {CONSTRAINT_KINDS}")
    return _CATALOGS[kind.lower()]
