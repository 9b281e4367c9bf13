"""The columnar MeasurementSet, JSON-lines ingestion, and the two-axis observability test.

File formats (one JSON object per line):

measurements::

    {"t": 0, "a": {"R": [[...],[...],[...]], "t": [x, y, z]},
              "b": {"R": ..., "t": ...}, "kappa": 1.0, "tau": 1.0}

trajectories (one file per sensor)::

    {"t": 0, "pose": {"R": [[...],[...],[...]], "t": [x, y, z]}}

Entries are JSON numbers: rotations row-major 3x3, translations in meters.
kappa/tau default to 1.

The loader parses each non-blank line with json.loads and builds each column
with one np.array conversion, checked in bulk; only when a check fails does it
run the same conversion line by line, to name the first bad line in a
ParseError. check_observability counts the distinct rotation axes greedily in
blocks of 32 axes, flagging close pairs from a BLAS Gram matrix and
re-checking every pair near its threshold with exact dot products, so its
count and largest separation equal the per-pair definition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import geom
from .errors import (
    EmptyInput,
    InvalidRotation,
    LengthMismatch,
    ParseError,
    TooShort,
)
from .geom import RotationMatrix, Transform

INGEST_ROTATION_TOL = 1e-6
# Thresholds of check_observability's axis count, in radians.
MIN_AXIS_ANGLE = 1e-3
AXIS_SEPARATION = 1e-2


_COLUMNS = {"ra": (3, 3), "rb": (3, 3), "ta": (3,), "tb": (3,), "kappa": (), "tau": ()}


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """n relative motions as read-only columns.

    ra, rb (n, 3, 3) are the rotations of sensors a and b, ta, tb (n, 3) their
    translations, and kappa, tau (n,) the rotation and translation weights.
    Every stage reads these arrays. Build a set from its columns, e.g.
    MeasurementSet(**columns) or dataclasses.replace(m, kappa=...).
    """

    ra: np.ndarray
    rb: np.ndarray
    ta: np.ndarray
    tb: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        n = (np.size(self.kappa),)  # a 0-d or 2-D kappa fails its own shape check
        for name, shape in _COLUMNS.items():
            column = np.array(getattr(self, name), dtype=float)
            if column.shape != n + shape:
                raise ValueError(f"{name} must have shape {n + shape}, got {column.shape}")
            if not np.all(np.isfinite(column)):
                raise ValueError(f"{name} has non-finite entries")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        drift, det = geom.rotation_defects(np.concatenate([self.ra, self.rb]))
        tol = geom.ROTATION_TOL
        if not (np.all(drift <= tol) and np.all(np.abs(det - 1.0) <= tol)):
            raise InvalidRotation("a measured rotation is not in SO(3)")
        if np.any(self.kappa <= 0) or np.any(self.tau <= 0):
            raise ValueError("weights kappa and tau must be positive")

    @property
    def n(self) -> int:
        return len(self.kappa)


@dataclass(frozen=True)
class ObservabilityReport:
    distinct_axis_count: int
    max_axis_angle_between: float
    observable: bool
    condition_estimate: float


def parse_pose(obj):
    """(R, t) of a parsed {"R": 3x3, "t": 3-vector} pose, as JSON text checked like a log line's."""
    rotations, translations, _ = _columns([json.dumps({"theta": obj})], ("theta",), ())
    return rotations[0, 0], translations[0, 0]


def ingest_rotations(rotations: np.ndarray, where) -> np.ndarray:
    """Project a (n, k, 3, 3) stack of per-record rotations onto SO(3).

    Raises InvalidRotation naming `where(i)` for the first record i holding a
    matrix more than INGEST_ROTATION_TOL from orthonormal or with a negative
    determinant. Projecting lets downstream invariants (1e-9) hold for inputs
    that pass this looser tolerance.
    """
    drift, det = geom.rotation_defects(rotations)
    bad = np.any(~(drift <= INGEST_ROTATION_TOL) | ~(det >= 0), axis=1)  # NaN is bad too
    if np.any(bad):
        raise InvalidRotation(f"{where(int(np.argmax(bad)))}: rotation is not in SO(3)")
    return geom.nearest_rotations(rotations)


def _read_poses(source, keys, weight_keys, what):
    """_columns of the JSON-lines records in `source`, with the rotations projected onto SO(3).

    Raises ParseError naming the first bad line, InvalidRotation, or EmptyInput.
    """
    data = source if isinstance(source, (str, bytes)) else source.read()
    # Bytes that are not UTF-8 decode to lone surrogates, which _columns refuses.
    text = data.decode("utf-8", "surrogateescape") if isinstance(data, bytes) else data
    lines = [(no, line) for no, raw in enumerate(text.split("\n"), 1) if (line := raw.strip())]
    if not lines:
        raise EmptyInput(f"{what} source contained no records")
    try:
        rotations, translations, weights = _columns([line for _, line in lines], keys, weight_keys)
    except ParseError:
        # Run the same checks line by line, only to name the first bad line in the file.
        for line_no, line in lines:
            try:
                _columns([line], keys, weight_keys)
            except ParseError as exc:
                raise ParseError(str(exc), line=line_no) from None
        raise
    return ingest_rotations(rotations, lambda i: f"line {lines[i][0]}"), translations, weights


def _columns(texts, keys, weight_keys):
    """Rotations (n, k, 3, 3), translations (n, k, 3) and weights (n, w) of n JSON texts.

    Each text is an object holding the k poses `keys` ({"R": 3x3, "t": 3-vector})
    and the w weights `weight_keys` (default 1). Each column is one np.array
    conversion, checked in bulk; ParseError, without a line number, if any is malformed.
    """
    try:
        for text in texts:
            if not text.isascii():
                text.encode("utf-8")  # a lone surrogate does not encode
        records = [json.loads(text) for text in texts]
        r = [[record[key]["R"] for key in keys] for record in records]
        t = [[record[key]["t"] for key in keys] for record in records]
        w = [[record.get(key, 1.0) for key in weight_keys] for record in records]
    except UnicodeError:
        raise ParseError("text is not UTF-8") from None
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except (KeyError, TypeError):
        raise ParseError(f"record must hold {' and '.join(keys)}, each with 'R' and 't'") from None
    # Only a text holding a JSON true or false can hide a boolean among numbers.
    suspects = [i for i, text in enumerate(texts) if "true" in text or "false" in text]
    n, k, names = len(records), len(keys), " and ".join(weight_keys)
    return (
        _numbers(r, (n, k, 3, 3), suspects, -np.inf, "pose 'R' must be a 3x3 of finite numbers"),
        _numbers(t, (n, k, 3), suspects, -np.inf, "pose 't' must be 3 finite numbers"),
        _numbers(w, (n, len(weight_keys)), suspects, 0.0, f"{names} must be positive and finite"),
    )


def _numbers(rows, shape, suspects, low, message):
    """Nested lists as a float array of `shape`, all JSON numbers in (low, inf); else ParseError.

    numpy promotes a boolean mixed with numbers to a number and keeps an integer
    beyond 64 bits as an object, so those rows (`suspects`, or all) get their types checked.
    """
    try:
        values = np.array(rows)
        if values.shape == shape and values.dtype.kind in "iufO":
            checked = values if values.dtype == object else [rows[i] for i in suspects]
            if set(map(type, np.array(checked, dtype=object).flat)) <= {int, float}:
                values = values.astype(float, copy=False)
                if np.all((values > low) & (values < np.inf)):  # NaN fails both
                    return values
    except (ValueError, OverflowError):  # ragged, or an integer too large for a float
        pass
    raise ParseError(message)


def load_measurements(source) -> MeasurementSet:
    """Parse JSON-lines relative-motion records (see module docstring).

    `source` may be an open text or binary file, a string, or bytes. Raises ParseError
    (with line number), InvalidRotation, or EmptyInput.
    """
    rotations, translations, weights = _read_poses(
        source, ("a", "b"), ("kappa", "tau"), "measurement"
    )
    return MeasurementSet(*rotations.swapaxes(0, 1), *translations.swapaxes(0, 1), *weights.T)


def load_trajectory(source) -> list:
    """Parse a JSON-lines trajectory file (one world-frame pose per line)."""
    rotations, translations, _ = _read_poses(source, ("pose",), (), "trajectory")
    return [Transform(RotationMatrix(r), t) for r, t in zip(rotations[:, 0], translations[:, 0])]


def dump_measurements(m: MeasurementSet, fp) -> None:
    columns = zip(
        m.ra.tolist(), m.ta.tolist(), m.rb.tolist(), m.tb.tolist(), m.kappa.tolist(), m.tau.tolist()
    )
    for i, (ra, ta, rb, tb, kappa, tau) in enumerate(columns):
        a, b = {"R": ra, "t": ta}, {"R": rb, "t": tb}
        fp.write(json.dumps({"t": i, "a": a, "b": b, "kappa": kappa, "tau": tau}) + "\n")


def dump_trajectory(poses, fp) -> None:
    for i, tf in enumerate(poses):
        pose = {"R": tf.rotation.m.tolist(), "t": tf.translation.tolist()}
        fp.write(json.dumps({"t": i, "pose": pose}) + "\n")


def relative_motions_from_trajectories(poses_a, poses_b) -> MeasurementSet:
    """Difference world-frame pose sequences into per-step relative motions.

    Motion t is v_s = poses_s[t-1]^-1 * poses_s[t] for s in {a, b}, with weights
    1. The batched products are those of Transform.invert().compose(), in the
    same order, so the columns match that per-step loop bit for bit.
    """
    if len(poses_a) != len(poses_b):
        raise LengthMismatch(f"trajectory lengths differ: {len(poses_a)} vs {len(poses_b)}")
    if len(poses_a) < 2:
        raise TooShort("need at least two poses to derive a relative motion")
    columns = {}
    for s, poses in (("a", poses_a), ("b", poses_b)):
        r = np.array([pose.rotation.m for pose in poses])
        t = np.array([pose.translation for pose in poses])[:, :, None]
        rt = np.swapaxes(r[:-1], 1, 2)
        columns["r" + s] = rt @ r[1:]
        columns["t" + s] = (rt @ t[1:] + (-rt) @ t[:-1])[:, :, 0]
    ones = np.ones(len(poses_a) - 1)
    return MeasurementSet(**columns, kappa=ones, tau=ones)


def translation_gram(m: MeasurementSet) -> np.ndarray:
    """The 3x3 translation block sum_i tau_i (I - R_b_i)^T (I - R_b_i)."""
    d = np.eye(3) - m.rb
    return (m.tau[:, None, None] * (np.swapaxes(d, 1, 2) @ d)).sum(axis=0)


def check_observability(m: MeasurementSet) -> ObservabilityReport:
    """Two-unique-axes necessary condition for a well-posed calibration.

    Axes are compared modulo sign; rotations with angle <= MIN_AXIS_ANGLE are
    treated as absent. Each remaining axis, in order, becomes a new
    representative when it is more than AXIS_SEPARATION from every
    representative so far; max_axis_angle_between is the largest separation
    of two representatives. Also reports the condition number of the
    translation block as a numeric corroboration (it blows up exactly in the
    single-axis failure mode).
    """
    axes, magnitudes = geom.axis_angles(m.ra)
    representatives = _representatives(axes[magnitudes > MIN_AXIS_ANGLE])
    count = len(representatives)

    eigs = np.linalg.eigvalsh(translation_gram(m))
    cond = float("inf") if eigs[0] <= 0 else float(eigs[-1] / eigs[0])

    return ObservabilityReport(
        distinct_axis_count=count,
        max_axis_angle_between=_max_separation(representatives),
        observable=count >= 2,
        condition_estimate=cond,
    )


# Rows per block of an axis Gram matrix: each temporary holds at most 32 x k entries.
_GRAM_ROWS = 32
# A Gram (GEMM) entry is within ~1e-16 of the exact dot but not always equal to
# it, so every decision within this margin of its threshold is re-checked exactly.
_GRAM_MARGIN = 1e-12


def _separations(earlier, later):
    """Angles modulo antipodality between unit axes (..., 3), broadcast row against row.

    Each dot is a (1, 3) @ (3, 1) product, which rounds as np.dot does and
    alike for either order of its two axes.
    """
    dots = (earlier[..., None, :] @ later[..., :, None])[..., 0, 0]
    return np.arccos(np.clip(np.abs(dots), 0.0, 1.0))


def _abs_gram(rows, columns, buffer):
    """|rows @ columns.T|, written into the front of a flat scratch buffer.

    Reusing one buffer for every block keeps a fresh multi-megabyte array (and
    its page faults) out of each block, which otherwise costs more than the GEMM.
    """
    out = buffer[: len(rows) * len(columns)].reshape(len(rows), len(columns))
    np.matmul(rows, columns.T, out=out)
    return np.abs(out, out=out)


def _representatives(axes):
    """The axes, in order, that are more than AXIS_SEPARATION from every earlier representative.

    Works on blocks of _GRAM_ROWS axes. A Gram matrix with the representatives
    so far and one with the block's own earlier axes flag candidate close pairs
    (|dot| >= cos(AXIS_SEPARATION) - _GRAM_MARGIN), which are re-checked exactly.
    Only an axis whose sole close axes are earlier ones in its block is decided
    in a Python loop. Representatives are pairwise apart, so each axis has a
    bounded number of close representatives.
    """
    near = np.cos(AXIS_SEPARATION) - _GRAM_MARGIN
    representatives = np.empty_like(axes)
    buffer = np.empty(_GRAM_ROWS * len(axes))
    count = 0
    for start in range(0, len(axes), _GRAM_ROWS):
        block = axes[start : start + _GRAM_ROWS]
        # flatnonzero: 2-D np.nonzero is an order of magnitude slower on a 32 x k mask.
        candidates = np.flatnonzero(_abs_gram(block, representatives[:count], buffer) >= near)
        rows, cols = np.divmod(candidates, count)
        close = _separations(representatives[cols], block[rows]) <= AXIS_SEPARATION
        joins = np.ones(len(block), dtype=bool)
        joins[rows[close]] = False
        # Close pairs inside the block (col < row) between axes not yet ruled out.
        rows, cols = np.nonzero(np.tril(_abs_gram(block, block, buffer) >= near, -1))
        live = joins[rows] & joins[cols]
        rows, cols = rows[live], cols[live]
        close = _separations(block[cols], block[rows]) <= AXIS_SEPARATION
        for row, col in zip(rows[close], cols[close]):  # row-major: each col is decided first
            if joins[col]:
                joins[row] = False
        joined = block[joins]
        representatives[count : count + len(joined)] = joined
        count += len(joined)
    return representatives[:count]


def _max_separation(representatives) -> float:
    """The largest separation over all pairs of representatives (0 for fewer than two).

    The largest angle has the smallest |dot|. A block of rows is compared with
    every representative from its first row on, so each pair lands in the row
    of its earlier member; the per-row minima of |Gram| flag the rows that may
    hold the smallest |dot|, and only those rows are evaluated exactly.
    """
    k = len(representatives)
    if k < 2:
        return 0.0
    buffer = np.empty(_GRAM_ROWS * k)
    # Each row's |dot| with itself is ~1, above every pair's (< cos AXIS_SEPARATION).
    row_min = np.concatenate(
        [
            _abs_gram(representatives[start : start + _GRAM_ROWS], representatives[start:], buffer)
            .min(axis=1)
            for start in range(0, k, _GRAM_ROWS)
        ]
    )
    rows = representatives[row_min <= row_min.min() + _GRAM_MARGIN]
    return max(
        float(_separations(rows[start : start + _GRAM_ROWS, None, :], representatives).max())
        for start in range(0, len(rows), _GRAM_ROWS)
    )
