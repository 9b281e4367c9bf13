"""Per-measurement coefficient blocks of the 13x13 quadratic form, a test oracle for `qcqp.assemble`.

`assemble` never builds these blocks: it reads the sum of their weighted Grams
from a few weighted moments of the columns. The tests check it against that sum
taken one measurement at a time, and price a known extrinsic through the full
vector x = [t, vec(R), y]. `einsum_data_matrix` is a second, bit-for-bit oracle:
the same moments with their index sums written as einsum.
"""

import numpy as np

from egocal import qcqp
from egocal.problem import _moment, translation_gram

_I3 = np.eye(3)


def rotation_block(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """9x9 coefficient block of one measurement, mapping vec(R) to vec(R R_a - R_b R)."""
    return np.kron(ra.T, _I3) - np.kron(_I3, rb)


def translation_block(ta: np.ndarray, rb: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """3x13 coefficient block of one measurement, mapping x to R t_a + t - R_b t - y t_b."""
    block = np.zeros((3, qcqp.DIM_FULL))
    block[:, :3] = _I3 - rb
    block[:, 3:12] = np.kron(ta[None, :], _I3)
    block[:, 12] = -tb
    return block


def full_vector(translation, rotation: np.ndarray) -> np.ndarray:
    """x = [t, vec(R), 1] for a 3x3 rotation R."""
    out = np.empty(qcqp.DIM_FULL)
    out[:3] = np.asarray(translation, dtype=float)
    out[3:] = qcqp.reduced_vector(rotation)
    return out


def einsum_data_matrix(m) -> np.ndarray:
    """`qcqp.assemble`'s q from the same weighted moments, each trace and Kronecker
    product written as an einsum, and its lower triangle copied from the upper."""
    rotations = np.concatenate([m.ra, m.rb], axis=1)
    shifts = np.concatenate([_I3 - m.rb, m.ta[:, None], m.tb[:, None]], axis=1)
    q = np.zeros((qcqp.DIM_FULL, qcqp.DIM_FULL))
    with np.errstate(over="ignore", invalid="ignore"):
        rot = _moment(m.kappa, rotations, rotations)
        shift = _moment(m.tau, shifts, shifts[:, 3:])
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
    lower = np.tril_indices(qcqp.DIM_FULL, -1)
    q[lower] = q.T[lower]
    return q
