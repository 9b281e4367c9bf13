"""Measurement data model, JSON-lines ingestion, and the two-axis observability test.

File formats (one JSON object per line):

measurements::

    {"t": 0, "a": {"R": [[...],[...],[...]], "t": [x, y, z]},
              "b": {"R": ..., "t": ...}, "kappa": 1.0, "tau": 1.0}

trajectories (one file per sensor)::

    {"t": 0, "pose": {"R": [[...],[...],[...]], "t": [x, y, z]}}

Rotations are row-major 3x3, translations in meters. kappa/tau default to 1.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass

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


@dataclass(frozen=True)
class RelativeMotionPair:
    """One timestep's egomotion estimate from each sensor, with scalar weights."""

    v_a: Transform
    v_b: Transform
    kappa: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.kappa < np.inf and 0.0 < self.tau < np.inf):
            raise ValueError("weights kappa and tau must be positive and finite")


_COLUMNS = {"ra": (3, 3), "rb": (3, 3), "ta": (3,), "tb": (3,), "kappa": (), "tau": ()}


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """n relative motions as read-only columns.

    ra, rb (n, 3, 3) are the rotations of sensors a and b, ta, tb (n, 3) their
    translations, and kappa, tau (n,) the rotation and translation weights.
    Every stage reads these arrays; `pairs` is a view built on demand.
    """

    ra: np.ndarray
    rb: np.ndarray
    ta: np.ndarray
    tb: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        n = np.shape(self.kappa)[:1]
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

    @classmethod
    def from_pairs(cls, pairs) -> "MeasurementSet":
        pairs = tuple(pairs)
        return cls(
            ra=np.reshape([p.v_a.rotation.m for p in pairs], (-1, 3, 3)),
            rb=np.reshape([p.v_b.rotation.m for p in pairs], (-1, 3, 3)),
            ta=np.reshape([p.v_a.translation for p in pairs], (-1, 3)),
            tb=np.reshape([p.v_b.translation for p in pairs], (-1, 3)),
            kappa=[p.kappa for p in pairs],
            tau=[p.tau for p in pairs],
        )

    @property
    def n(self) -> int:
        return len(self.kappa)

    @property
    def pairs(self) -> tuple:
        """The measurements as RelativeMotionPair objects, built on each access."""
        return tuple(
            RelativeMotionPair(
                Transform(RotationMatrix(ra), ta), Transform(RotationMatrix(rb), tb), kappa, tau
            )
            for ra, rb, ta, tb, kappa, tau in zip(
                self.ra, self.rb, self.ta, self.tb, self.kappa.tolist(), self.tau.tolist()
            )
        )

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return self.n


@dataclass(frozen=True)
class ObservabilityReport:
    distinct_axis_count: int
    max_axis_angle_between: float
    rotation_magnitudes: tuple
    observable: bool
    condition_estimate: float

    def to_dict(self) -> dict:
        return {**asdict(self), "rotation_magnitudes": list(self.rotation_magnitudes)}


def parse_pose(obj, line=None):
    """(R, t) arrays of a {"R": 3x3, "t": 3-vector} object; ParseError if malformed."""
    try:
        r = np.asarray(obj["R"], dtype=float)
        t = np.asarray(obj["t"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad pose object: {exc}", line=line) from None
    if r.shape != (3, 3) or t.shape != (3,):
        raise ParseError("pose must have a 3x3 'R' and 3-vector 't'", line=line)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
        raise ParseError("pose has non-finite entries", line=line)
    return r, t


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
    """Parse JSON-lines records that each hold the poses `keys` and optional weights.

    Returns the rotations (n, len(keys), 3, 3) re-orthonormalized onto SO(3),
    the translations (n, len(keys), 3) and the weights (n, len(weight_keys)),
    which default to 1. Raises ParseError (with line number), InvalidRotation,
    or EmptyInput.
    """
    if isinstance(source, (str, bytes)):
        source = io.BytesIO(source) if isinstance(source, bytes) else io.StringIO(source)
    line_nos, rotations, translations, weights = [], [], [], []
    for line_no, raw in enumerate(source, start=1):
        try:
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
            if not line:
                continue
            obj = json.loads(line)
        except ValueError as exc:
            raise ParseError(f"invalid JSON: {exc}", line=line_no) from None
        if not isinstance(obj, dict) or not all(key in obj for key in keys):
            raise ParseError(f"record must be an object with {' and '.join(keys)}", line=line_no)
        r, t = zip(*(parse_pose(obj[key], line_no) for key in keys))
        line_nos.append(line_no)
        rotations.append(r)
        translations.append(t)
        weights.append([_weight(obj, key, line_no) for key in weight_keys])
    if not line_nos:
        raise EmptyInput(f"{what} source contained no records")
    rotations = ingest_rotations(np.array(rotations), lambda i: f"line {line_nos[i]}")
    return rotations, np.array(translations), np.array(weights)


def _weight(obj, key, line_no) -> float:
    try:
        value = float(obj.get(key, 1.0))
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{key!r} must be a number", line=line_no) from None
    if not 0.0 < value < np.inf:
        raise ParseError(f"{key!r} must be positive and finite", line=line_no)
    return value


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


def relative_motions_from_trajectories(poses_a, poses_b, kappa=1.0, tau=1.0) -> MeasurementSet:
    """Difference world-frame pose sequences into per-step relative motions.

    Pair t carries v_s = poses_s[t-1]^-1 * poses_s[t] for s in {a, b}.
    """
    if len(poses_a) != len(poses_b):
        raise LengthMismatch(f"trajectory lengths differ: {len(poses_a)} vs {len(poses_b)}")
    if len(poses_a) < 2:
        raise TooShort("need at least two poses to derive a relative motion")
    pairs = []
    for t in range(1, len(poses_a)):
        v_a = poses_a[t - 1].invert().compose(poses_a[t])
        v_b = poses_b[t - 1].invert().compose(poses_b[t])
        pairs.append(RelativeMotionPair(v_a, v_b, kappa, tau))
    return MeasurementSet.from_pairs(pairs)


def translation_gram(m: MeasurementSet) -> np.ndarray:
    """The 3x3 translation block sum_i tau_i (I - R_b_i)^T (I - R_b_i)."""
    d = np.eye(3) - m.rb
    return (m.tau[:, None, None] * (np.swapaxes(d, 1, 2) @ d)).sum(axis=0)


def check_observability(m: MeasurementSet) -> ObservabilityReport:
    """Two-unique-axes necessary condition for a well-posed calibration.

    Axes are compared modulo sign; rotations with angle <= MIN_AXIS_ANGLE are
    treated as absent. Each remaining axis, in order, becomes a new
    representative when it is more than AXIS_SEPARATION from every
    representative so far. Also reports the condition number of the
    translation block as a numeric corroboration (it blows up exactly in the
    single-axis failure mode).
    """
    axes, magnitudes = geom.axis_angles(m.ra)
    representatives = np.empty_like(axes)
    count, max_sep = 0, 0.0
    for axis in axes[magnitudes > MIN_AXIS_ANGLE]:
        # Angles modulo antipodality; (k, 1, 3) @ (3,) rounds each dot as np.dot does.
        dots = (representatives[:count, None, :] @ axis)[:, 0]
        separations = np.arccos(np.clip(np.abs(dots), 0.0, 1.0))
        if np.all(separations > AXIS_SEPARATION):
            representatives[count] = axis
            count += 1
            # Every pair of representatives is compared once, when the later joins.
            max_sep = max(max_sep, float(separations.max(initial=0.0)))

    eigs = np.linalg.eigvalsh(translation_gram(m))
    cond = float("inf") if eigs[0] <= 0 else float(eigs[-1] / eigs[0])

    return ObservabilityReport(
        distinct_axis_count=count,
        max_axis_angle_between=max_sep,
        rotation_magnitudes=tuple(magnitudes.tolist()),
        observable=count >= 2,
        condition_estimate=cond,
    )
