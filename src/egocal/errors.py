"""Exception types raised across the calibration pipeline."""

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


class numerical:
    """A context manager that re-raises a LinAlgError inside its block as
    NumericalFailure naming `what`, the LinAlgError as its cause. Any other
    exception passes through unchanged. A plain class: a block entered on
    every request costs less than with a generator-based context manager."""

    __slots__ = ("what",)

    def __init__(self, what: str):
        self.what = what

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, np.linalg.LinAlgError):
            raise NumericalFailure(f"{self.what}: {exc}") from exc
        return False
