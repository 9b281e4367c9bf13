"""Quadratic-form assembly and the SO(3) constraint catalog.

The homogenized decision vector is x = [t (3), r = vec(R) column-major (9), y (1)], so the data
matrix is 13x13. `assemble` sums it from a few weighted moments of the measurement columns, the
one O(n) step, refuses non-finite or unobservable data and keeps the observability report. It
then eliminates the unconstrained translation, the only place that does: one solve with the 3x3
translation block q_tt gives the optimal translation as a linear map t_map of r_tilde = [r, y]
and the 10x10 Schur complement q_tilde on which the reduced problem acts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, SingularQtt, TooShort, numerical
from .problem import (MeasurementSet, ObservabilityReport, _moment, check_observability,
                      translation_gram)

DIM_FULL = 13
DIM_REDUCED = 10
Y_INDEX = 9  # index of the homogenizing variable inside r_tilde

CONSTRAINT_KINDS = ("r", "r+c", "r+h", "r+c+h")

_I3 = np.eye(3)
_LOWER = np.tril_indices(DIM_FULL, -1)


@dataclass(frozen=True)
class DataMatrix:
    """The assembled 13x13 quadratic form, the translation eliminated from it and
    the observability report read from its translation block."""

    q: np.ndarray            # 13x13, ordering [t, vec(R), y]
    q_tt: np.ndarray         # 3x3 translation block q[:3, :3]
    t_map: np.ndarray        # 3x10 -q_tt^-1 q[:3, 3:]: the optimal t is t_map @ r_tilde
    q_tilde: np.ndarray      # 10x10 Schur complement q / q_tt
    observability: ObservabilityReport  # check_observability(q_tt)


def assemble(m: MeasurementSet) -> DataMatrix:
    """Sum the per-measurement quadratic forms and Schur-reduce over translation.

    Measurement i prices kappa_i |vec(R R_a - R_b R)|^2 + tau_i |R t_a + t - R_b t - y t_b|^2
    (`tests/qcqp_blocks.py` holds its blocks). With D = I - R_b, each block of the sum but q_tt
    is read from one of two weighted moments, one O(n) product each: kappa's of the columns
    [R_a, R_b] (n x 18) with themselves, and tau's of [D, t_a, t_b] (n x 15) with [t_a, t_b].
    With K = sum kappa R_a kron R_b: the rotation block is (sum kappa R_a R_a^T +
    tau t_a t_a^T) kron I + I kron (sum kappa R_b^T R_b) - K - K^T, the t-vec(R) block
    sum tau t_a^T kron D^T and the y column [-sum tau D^T t_b, -sum tau t_a kron t_b,
    sum tau |t_b|^2]. q_tt = sum tau D^T D is `translation_gram`'s, the matrix the
    observability test reads. Nothing assumes R^T R = I, so rotations within
    geom.ROTATION_TOL give the per-measurement sum to rounding.

    Raises NumericalFailure when weights too large for their sums (kappa, tau)
    leave q with an infinite or NaN entry, then SingularQtt when
    `problem.check_observability` finds the translation block numerically
    singular, the signature of single-axis data, then NumericalFailure when
    subnormal weights leave the eliminated translation t_map or q_tilde non-finite.
    """
    if m.n < 2:
        raise TooShort("calibration requires at least two relative motions")
    rotations = np.concatenate([m.ra, m.rb], axis=1)  # (n, 6, 3): rows of R_a, then of R_b
    shifts = np.concatenate([_I3 - m.rb, m.ta[:, None], m.tb[:, None]], axis=1)  # [D, t_a, t_b]
    q = np.zeros((DIM_FULL, DIM_FULL))
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check names an overflow
        rot = _moment(m.kappa, rotations, rotations)  # (6, 3, 6, 3)
        shift = _moment(m.tau, shifts, shifts[:, 3:])  # (5, 3, 2, 3): [D, t_a, t_b] by [t_a, t_b]
        k = rot[:3, :, 3:].transpose(0, 2, 1, 3).reshape(9, 9)
        left = np.einsum("ijkj->ik", rot[:3, :, :3]) + shift[3, :, 0]
        right = np.einsum("jijl->il", rot[3:, :, 3:])
        kron = np.einsum("ij,kl->ikjl", left, _I3) + np.einsum("ij,kl->ikjl", _I3, right)
        q[:3, :3] = translation_gram(m)
        q[:3, 3:12] = shift[:3, :, 0].transpose(1, 2, 0).reshape(3, 9)
        q[:3, 12] = -np.einsum("jij->i", shift[:3, :, 1])
        q[3:12, 3:12] = kron.reshape(9, 9) - k - k.T
        q[3:12, 12] = -shift[3, :, 1].reshape(9)
        q[12, 12] = np.trace(shift[4, :, 1])
    q[_LOWER] = q.T[_LOWER]  # exactly symmetric, and q_tt keeps its bits
    if not np.all(np.isfinite(q)):
        raise NumericalFailure(
            "data matrix is not finite: its sums weighted by kappa and tau overflow"
        )

    q_tt = q[:3, :3]
    report = check_observability(q_tt)
    if not report.observable:
        raise SingularQtt(
            "translation block of the data matrix is singular; "
            "measured rotations likely share a single axis"
        )
    with numerical("translation elimination"):
        t_map = -np.linalg.solve(q_tt, q[:3, 3:])
    q_tilde = q[3:, 3:] + q[:3, 3:].T @ t_map
    q_tilde = 0.5 * (q_tilde + q_tilde.T)
    if not (np.all(np.isfinite(t_map)) and np.all(np.isfinite(q_tilde))):
        raise NumericalFailure(
            "translation elimination is not finite: kappa and tau are too small for its solve"
        )
    return DataMatrix(q=q, q_tt=q_tt, t_map=t_map, q_tilde=q_tilde, observability=report)


def reduced_vector(rotation: np.ndarray, y: float = 1.0) -> np.ndarray:
    """r_tilde = [vec(R) (column-major), y] for a 3x3 rotation R."""
    out = np.empty(DIM_REDUCED)
    out[:9] = rotation.reshape(9, order="F")
    out[9] = y
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


def _build_catalog(kind: str) -> np.ndarray:
    mats = _orthogonality(True) + (_orthogonality(False) if "c" in kind else [])
    stacked = np.stack(mats + (_handedness() if "h" in kind else []) + [homogenizer()])
    stacked.flags.writeable = False
    return stacked


_CATALOGS = {kind: _build_catalog(kind) for kind in CONSTRAINT_KINDS}

# The dual margin of `interior_point`: its slack is C + INTERIOR_MARGIN * I.
INTERIOR_MARGIN = 0.1
# Rows of the diagonal row-orthogonality constraints (R R^T)_ii = y^2, which
# lead every catalog: the (0,0), (1,1) and (2,2) entries of `_orthogonality`.
_ROW_DIAGONAL = [0, 3, 5]


def _build_interior(kind: str):
    x = np.diag(np.r_[np.full(9, 1.0 / 3.0), 1.0])
    y = np.zeros(len(_CATALOGS[kind]))
    y[_ROW_DIAGONAL] = -INTERIOR_MARGIN
    y[-1] = -4.0 * INTERIOR_MARGIN
    x.flags.writeable = y.flags.writeable = False
    return x, y


_INTERIORS = {kind: _build_interior(kind) for kind in CONSTRAINT_KINDS}


def constraint_catalog(kind: str = "r+c+h") -> np.ndarray:
    """The constraint matrices of one of the four ablation sets, as a read-only
    (m + 1, 10, 10) stack: the m matrices vanishing on every lifted rotation,
    then the homogenizer.

    'r' is row orthogonality (6 matrices); '+c' adds the redundant column
    orthogonality (6 more); '+h' adds the right-handedness cross products (9).
    """
    return _CATALOGS[_kind(kind)]


def interior_point(kind: str):
    """A strictly feasible primal-dual pair (X0, y0) of the SDP over catalog
    `kind`, the same for every cost C of trace 1 and PSD (read-only arrays).

    X0 = diag(I_9/3, 1) satisfies every constraint of every catalog: each
    orthogonality constraint reads 3 * 1/3 - 1 = 0 or an off-diagonal zero,
    each handedness constraint only off-diagonal entries, the homogenizer 1.
    y0 is -a on the three diagonal row-orthogonality constraints and -4a on
    the homogenizer (a = INTERIOR_MARGIN), so sum_i y0_i A_i = -a I and the
    dual slack C - sum_i y0_i A_i = C + a I is positive definite.
    """
    return _INTERIORS[_kind(kind)]


def _kind(kind: str) -> str:
    if kind.lower() not in _CATALOGS:
        raise ValueError(f"unknown constraint set {kind!r}; expected one of {CONSTRAINT_KINDS}")
    return kind.lower()
