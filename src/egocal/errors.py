"""Exception types raised across the calibration pipeline."""

from contextlib import contextmanager

import numpy as np


class CalibrationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRotation(CalibrationError):
    """A 3x3 matrix is not a proper rotation (orthonormality or det check failed)."""


class SingularInput(CalibrationError):
    """A matrix argument is (numerically) singular where nonsingularity is required."""


class ParseError(CalibrationError):
    """A measurement or trajectory record could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyInput(CalibrationError):
    """A measurement source contained no records."""


class LengthMismatch(CalibrationError):
    """Paired trajectories do not have equal length."""


class TooShort(CalibrationError):
    """A trajectory is too short to derive any relative motion."""


class SingularQtt(CalibrationError):
    """The translation block of the data matrix is numerically singular.

    This is the algebraic signature of an unobservable instance: every rotating
    motion of sensor b shares one axis, so each I - R_b, and their weighted
    Gram sum, is singular along it. The rule is `problem.check_observability`,
    which `qcqp.assemble` applies once per request and keeps as
    `DataMatrix.observability`.
    """


class NumericalFailure(CalibrationError):
    """A numerical step failed outside the SDP solve, which reports its own
    breakdowns as a status: a LAPACK routine raised LinAlgError, or weights too
    large for their sums (kappa, tau) left the data matrix non-finite."""


class RankDeficiencyAmbiguous(CalibrationError):
    """The dual slack's minimum eigenvector has no homogenizer entry; extraction is ambiguous."""


@contextmanager
def numerical(what: str):
    """Re-raise a LinAlgError inside the block as NumericalFailure naming `what`."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"{what}: {exc}") from exc
