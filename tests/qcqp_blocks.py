"""Per-measurement coefficient blocks of the 13x13 quadratic form, a test oracle for `qcqp.assemble`.

`assemble` never builds these blocks: it reads the sum of their weighted Grams
from a few weighted moments of the columns. The tests check it against that sum
taken one measurement at a time, and price a known extrinsic through the full
vector x = [t, vec(R), y].
"""

import numpy as np

from egocal import qcqp

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


def full_vector(translation, rotation: np.ndarray, y: float = 1.0) -> np.ndarray:
    """x = [t, vec(R), y] for a 3x3 rotation R."""
    out = np.empty(qcqp.DIM_FULL)
    out[:3] = np.asarray(translation, dtype=float)
    out[3:] = qcqp.reduced_vector(rotation, y)
    return out
