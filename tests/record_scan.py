"""A per-record reference reader of measurement logs, a test oracle for the loader.

It reads a log one line at a time with the loader's rules written out record
by record: invalid UTF-8 or JSON, a record without poses "a" and "b", a pose
without a 3x3 "R" and a 3-vector "t" of JSON numbers (no booleans, strings or
integers too large for a float), non-finite pose entries, and a weight that is
not a JSON number in (0, inf) each raise ParseError naming the first bad line.
"""

import io
import json

import numpy as np

from egocal.errors import EmptyInput, ParseError
from egocal.problem import MeasurementSet, ingest_rotations


def _pose(obj, line_no):
    try:
        r, t = np.asarray(obj["R"], dtype=object), np.asarray(obj["t"], dtype=object)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad pose object: {exc}", line=line_no) from None
    if r.shape != (3, 3) or t.shape != (3,):
        raise ParseError("pose must have a 3x3 'R' and 3-vector 't'", line=line_no)
    try:
        # JSON numbers only: numpy would promote booleans mixed with numbers to numbers.
        if not all(type(value) in (int, float) for value in (*r.flat, *t.flat)):
            raise TypeError
        r, t = r.astype(float), t.astype(float)
    except (TypeError, OverflowError):
        raise ParseError("pose entries must be numbers", line=line_no) from None
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
        raise ParseError("pose has non-finite entries", line=line_no)
    return r, t


def _weight(obj, key, line_no):
    value = obj.get(key, 1.0)
    try:
        if type(value) not in (int, float):  # JSON numbers only: no strings, no booleans
            raise TypeError
        value = float(value)
    except (TypeError, OverflowError):
        raise ParseError(f"{key!r} must be a number", line=line_no) from None
    if not 0.0 < value < np.inf:
        raise ParseError(f"{key!r} must be positive and finite", line=line_no)
    return value


def scan_records(data, keys=("a", "b"), weight_keys=("kappa", "tau")):
    """(line numbers, rotations, translations, weights) of the records of a str or bytes log."""
    source = io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data)
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
        r, t = zip(*(_pose(obj[key], line_no) for key in keys))
        line_nos.append(line_no)
        rotations.append(r)
        translations.append(t)
        weights.append([_weight(obj, key, line_no) for key in weight_keys])
    return line_nos, np.array(rotations), np.array(translations), np.array(weights)


def load_measurements(data) -> MeasurementSet:
    """The measurement set of a str or bytes log, read record by record."""
    line_nos, rotations, translations, weights = scan_records(data)
    if not line_nos:
        raise EmptyInput("measurement source contained no records")
    rotations = ingest_rotations(rotations, lambda i: f"line {line_nos[i]}")
    return MeasurementSet(*rotations.swapaxes(0, 1), *translations.swapaxes(0, 1), *weights.T)
