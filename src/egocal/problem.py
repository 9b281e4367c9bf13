"""The columnar MeasurementSet, JSON-lines ingestion, and the observability test.

The measurement format, one JSON object per line::

    {"t": 0, "a": {"R": [[...],[...],[...]], "t": [x, y, z]},
              "b": {"R": ..., "t": ...}, "kappa": 1.0, "tau": 1.0}

Entries are JSON numbers: rotations row-major 3x3, translations in meters.
kappa/tau default to 1.

The loader decodes each stripped non-blank line of at most ORJSON_MAX_LINE
(1000) characters with orjson.loads, three to four times as fast as the standard
library's scanner. A longer line, or one orjson refuses, goes to one call of
the JSON decoder's scanner, as JSONDecoder.raw_decode makes it, refusing
trailing data as json.loads does, so every value and every error that orjson
does not give comes from the standard library. The length bound keeps orjson,
which has no depth limit, from nesting deep enough to crash (see
ORJSON_MAX_LINE). The garbage collector is paused for the parse: its lists and
dicts form no cycle. The same loop gathers every pose into one flat list of
numbers, R's nine then t's three, unpacking every row and t into exactly three
numbers, and one np.array conversion, checked in bulk, turns it into all poses;
one more converts the weights. A refused conversion blames t when the t's alone
do not convert, else R. Only when a check fails does it run the same conversion
line by line, to name the first bad line in a ParseError that says whether an
R, a t or the weights are malformed. It refuses a rotation more than
INGEST_ROTATION_TOL from orthonormal or with a negative determinant, and
projects the rest onto SO(3) with two Newton polar steps instead of a batched
SVD (see ingest_rotations).

Calibration is observable when sensor b's rotations span two distinct axes.
check_observability() reads that from the condition number of the translation
block q_tt = translation_gram(m) = sum_i tau_i (I - R_b_i)^T (I - R_b_i), which
is singular exactly when they do not. qcqp.assemble reads q_tt, with the same
bits, from its own moment of the columns and applies the test once per
request, refusing singular data and keeping the report on its DataMatrix.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass

import numpy as np
import orjson

from . import geom
from .errors import (
    EmptyInput,
    InvalidRotation,
    LengthMismatch,
    ParseError,
    TooShort,
    numerical,
)

INGEST_ROTATION_TOL = 1e-6
# Largest condition number of the translation block that counts as observable.
SINGULAR_QTT_CONDITION = 1e12


# The decoder's scanner: the (value, end) of the JSON value at an index, as raw_decode gives it.
_SCAN = json.JSONDecoder().scan_once
# Longest line orjson decodes. orjson 3.8.3 has no depth limit and dies by SIGSEGV
# on deep enough closed nesting (10**6 levels on the main thread, 5000 in a thread
# with a 256 KiB stack). A line of at most 1000 characters closes at most 500 levels,
# which read without a crash even on a 64 KiB thread stack, and which is under half
# the default recursion limit, where the scanner starts refusing. Longer lines go to
# the scanner; a dump_measurements record, 26 numbers of at most 24 characters, is
# under 800.
ORJSON_MAX_LINE = 1000

_BAD_R = "pose 'R' must be a 3x3 of finite numbers"

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
        geom.require_so3(np.concatenate([self.ra, self.rb]), "measured rotation")
        if np.any(self.kappa <= 0) or np.any(self.tau <= 0):
            raise ValueError("weights kappa and tau must be positive")

    @property
    def n(self) -> int:
        return len(self.kappa)


def json_numbers(numbers: dict) -> dict:
    """Strict JSON values (RFC 8259): each NaN or infinite number is None (null)."""
    return {key: value if np.isfinite(value) else None for key, value in numbers.items()}


@dataclass(frozen=True)
class ObservabilityReport:
    observable: bool
    condition_estimate: float

    def to_dict(self) -> dict:
        """An infinite condition number is written as null."""
        cond = json_numbers({"condition_estimate": self.condition_estimate})
        return {"observable": self.observable, **cond}


def parse_pose(obj):
    """(R, t) of a parsed {"R": 3x3, "t": 3-vector} pose, as JSON text checked like a log line's."""
    poses, _ = _columns([json.dumps({"theta": obj})], ("theta",), ())
    return poses[0, 0, :3], poses[0, 0, 3]


def ingest_rotations(rotations: np.ndarray, where) -> np.ndarray:
    """Project a (n, k, 3, 3) stack of per-record rotations onto SO(3).

    Raises InvalidRotation naming `where(i)` for the first record i holding a
    matrix more than INGEST_ROTATION_TOL from orthonormal or with a negative
    determinant. Projecting lets downstream invariants (1e-9) hold for inputs
    that pass this looser tolerance. The projection is two Newton polar steps,
    geom.polar_rotations. Two are enough because the matrices that pass are
    near rotations, where Newton converges quadratically: a drift of 1e-6 is
    about 1e-13 from the SVD's nearest rotation after one step and rounding
    (about 1e-15) after two.
    """
    drift, det = geom.rotation_defects(rotations)
    bad = np.any(~(drift <= INGEST_ROTATION_TOL) | ~(det >= 0), axis=1)  # NaN is bad too
    if np.any(bad):
        raise InvalidRotation(f"{where(int(np.argmax(bad)))}: rotation is not in SO(3)")
    return geom.polar_rotations(rotations)


def _columns(texts, keys=("a", "b"), weight_keys=("kappa", "tau")):
    """Poses (n, k, 4, 3), [R rows, t] each, and weights (n, w) of n JSON texts.

    Each text is an object holding the k poses `keys` ({"R": 3x3, "t": 3-vector})
    and the w weights `weight_keys` (default 1), by default a measurement record's.
    One loop decodes each text with orjson when it has at most ORJSON_MAX_LINE
    characters, else, or when orjson refuses it, with the decoder's scanner, as
    JSONDecoder.raw_decode does. What orjson accepts, the scanner decodes to the same
    values, but for integers outside [-2**63, 2**64): orjson rounds them to the float
    that the conversion below makes of the scanner's int. The loop gathers every pose
    into one flat list of numbers, 12 per pose: R's nine entries, then t. It unpacks
    each R into exactly three rows, and each row and each t into exactly three numbers,
    so one pose's missing number cannot be made up by another's extra one; a row or t
    that does not unpack refuses the batch. One np.array conversion, checked in bulk,
    turns the list into the poses, and one more the weights. A refused batch is a ParseError, without a line number: the pose's t
    is at fault if the t's alone do not convert, else its R; or the weights are.
    """
    booleans, values, weights, refused = _may_hold_booleans(texts), [], [], False
    try:
        for text in texts:
            try:  # orjson refuses "", so a line too long for it goes to the scanner
                record = orjson.loads(text if len(text) <= ORJSON_MAX_LINE else "")
            except orjson.JSONDecodeError:
                if not text.isascii():
                    text.encode("utf-8")  # a lone surrogate does not encode
                try:
                    record, end = _SCAN(text, 0)
                except StopIteration as exc:
                    raise json.JSONDecodeError("Expecting value", text, exc.value) from None
                if end != len(text):
                    raise json.JSONDecodeError("Extra data", text, end)
            for key in keys:
                pose = record[key]
                rotation, translation = pose["R"], pose["t"]
                try:
                    r0, r1, r2 = rotation
                except (TypeError, ValueError):  # not a sequence of three rows
                    raise ParseError(_BAD_R) from None
                try:
                    (a, b, c), (d, e, f), (g, h, i), (x, y, z) = r0, r1, r2, translation
                    values += a, b, c, d, e, f, g, h, i, x, y, z
                except (TypeError, ValueError):  # a row or t is not three values
                    refused = True
            for key in weight_keys:
                weights.append(record.get(key, 1.0))
    except UnicodeError:
        raise ParseError("text is not UTF-8") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ParseError(f"invalid JSON: {exc}") from None
    except (KeyError, TypeError):
        raise ParseError(f"record must hold {' and '.join(keys)}, each with 'R' and 't'") from None
    n, k, w = len(texts), len(keys), len(weight_keys)
    poses = None if refused else _numbers(values, (12 * k * n,), booleans, -np.inf)
    if poses is None:  # every t a row of 3 finite numbers leaves an R at fault
        translations = [json.loads(text)[key]["t"] for text in texts for key in keys]
        t_ok = _numbers(translations, (k * n, 3), booleans, -np.inf) is not None
        raise ParseError(_BAD_R if t_ok else "pose 't' must be 3 finite numbers")
    weights = _numbers(weights, (w * n,), booleans, 0.0)
    if weights is None:
        raise ParseError(f"{' and '.join(weight_keys)} must be positive and finite")
    return poses.reshape(n, k, 4, 3), weights.reshape(n, w)


def _may_hold_booleans(texts):
    """Whether the texts may hold a JSON true or false, which numpy would take for a
    number among numbers. Numbers and the record's keys hold no "r" or "l", so
    one-letter searches of the joined texts clear most logs before any substring
    search; the joined copy is freed before the records are parsed."""
    joined = "\n".join(texts)
    return ("r" in joined and "true" in joined) or ("l" in joined and "false" in joined)


def _numbers(rows, shape, booleans, low):
    """A list of numbers (or of rows of numbers) as a float array of `shape`, all JSON
    numbers in (low, inf); else None.

    numpy promotes a boolean mixed with numbers to a number and keeps an integer
    beyond 64 bits as an object, so every item gets its type checked when the texts
    may hold a boolean (`booleans`) or the array holds objects.
    """
    try:
        values = np.array(rows)
        if values.shape == shape and values.dtype.kind in "iufO":
            checked = values if values.dtype == object else rows if booleans else []
            if set(map(type, np.array(checked, dtype=object).flat)) <= {int, float}:
                values = values.astype(float, copy=False)
                if np.all((values > low) & (values < np.inf)):  # NaN fails both
                    return values
    except (ValueError, OverflowError):  # ragged, or an integer too large for a float
        pass
    return None


def load_measurements(source) -> MeasurementSet:
    """Parse JSON-lines relative-motion records (see module docstring), with the
    rotations projected onto SO(3).

    The garbage collector is paused for the parse and left as the caller had it.
    `source` may be an open text or binary file, a string, or bytes. Raises ParseError
    (naming the first bad line), InvalidRotation, or EmptyInput.
    """
    data = source if isinstance(source, (str, bytes)) else source.read()
    # Bytes that are not UTF-8 decode to lone surrogates, which _columns refuses.
    text = data.decode("utf-8", "surrogateescape") if isinstance(data, bytes) else data
    lines = [(no, line) for no, raw in enumerate(text.split("\n"), 1) if (line := raw.strip())]
    if not lines:
        raise EmptyInput("measurement source contained no records")
    collecting = gc.isenabled()
    gc.disable()  # the parse's lists and dicts form no cycle
    try:
        poses, weights = _columns([line for _, line in lines])
    except ParseError:
        # Run the same checks line by line, only to name the first bad line in the file.
        for line_no, line in lines:
            try:
                _columns([line])
            except ParseError as exc:
                raise ParseError(str(exc), line=line_no) from None
        raise
    finally:
        if collecting:
            gc.enable()
    rotations = ingest_rotations(poses[:, :, :3], lambda i: f"line {lines[i][0]}")
    return MeasurementSet(*rotations.swapaxes(0, 1), *poses[:, :, 3].swapaxes(0, 1), *weights.T)


def dump_measurements(m: MeasurementSet, fp) -> None:
    columns = zip(
        m.ra.tolist(), m.ta.tolist(), m.rb.tolist(), m.tb.tolist(), m.kappa.tolist(), m.tau.tolist()
    )
    for i, (ra, ta, rb, tb, kappa, tau) in enumerate(columns):
        a, b = {"R": ra, "t": ta}, {"R": rb, "t": tb}
        fp.write(json.dumps({"t": i, "a": a, "b": b, "kappa": kappa, "tau": tau}) + "\n")


def relative_motions_from_trajectories(poses_a, poses_b) -> MeasurementSet:
    """Difference world-frame pose sequences into per-step relative motions.

    Each sequence is a pose pair (R (n, 3, 3), t (n, 3)). Motion t is
    v_s = poses_s[t-1]^-1 * poses_s[t] for s in {a, b}, with weights 1.
    The batched products are those of Transform.invert().compose(), in the same
    order, so the columns match that per-step loop bit for bit.
    """
    lengths = [len(column) for poses in (poses_a, poses_b) for column in poses]
    if len(set(lengths)) > 1:
        raise LengthMismatch(f"pose sequence lengths differ: {lengths}")
    if lengths[0] < 2:
        raise TooShort("need at least two poses to derive a relative motion")
    columns = {}
    for s, (r, t) in (("a", poses_a), ("b", poses_b)):
        r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)[:, :, None]
        rt = np.swapaxes(r[:-1], 1, 2)
        columns["r" + s] = rt @ r[1:]
        columns["t" + s] = (rt @ t[1:] + (-rt) @ t[:-1])[:, :, 0]
    ones = np.ones(lengths[0] - 1)
    return MeasurementSet(**columns, kappa=ones, tau=ones)


def _moment(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i w_i a_i (outer) b_i over the leading axis, with index order a[1:] + b[1:]."""
    moment = (w[:, None] * a.reshape(len(a), -1)).T @ b.reshape(len(b), -1)
    return moment.reshape(a.shape[1:] + b.shape[1:])


def translation_gram(m: MeasurementSet) -> np.ndarray:
    """The 3x3 translation block sum_i tau_i (I - R_b_i)^T (I - R_b_i); inf or NaN
    entries where weights too large for the sum overflow it, without a warning.
    One weighted moment of D = I - R_b, symmetrized exactly."""
    d = np.eye(3) - m.rb
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _moment(m.tau, d, d).trace(axis1=0, axis2=2)
        return 0.5 * (gram + gram.T)  # exactly symmetric, as assemble's q keeps it


def check_observability(q_tt: np.ndarray) -> ObservabilityReport:
    """Two-axis condition for a well-posed calibration, read from the 3x3 translation block q_tt.

    Motion i adds tau_i (I - R_b)^T (I - R_b) = 2 tau_i (1 - cos theta_i)(I - a_i a_i^T)
    to q_tt = translation_gram(m), for R_b's axis a_i and angle theta_i, so the block
    is singular exactly when every rotating motion of sensor b shares one axis
    (modulo sign), and near-singular when the axes nearly coincide or the angles
    are tiny. The condition number is inf when the smallest eigenvalue is not
    positive; the data are observable when it is at most SINGULAR_QTT_CONDITION.
    qcqp.assemble refuses data by this rule.
    """
    with numerical("observability"):
        eigs = np.linalg.eigvalsh(q_tt)
    cond = float("inf") if eigs[0] <= 0 else float(eigs[-1] / eigs[0])
    return ObservabilityReport(observable=cond <= SINGULAR_QTT_CONDITION, condition_estimate=cond)
