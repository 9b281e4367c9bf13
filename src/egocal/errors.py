"""Exception types raised across the calibration pipeline."""


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
    Gram sum, is singular along it. The rule is `problem.observability`, which
    `problem.check_observability` reports.
    """


class SdpFailure(CalibrationError):
    """The interior-point solve did not reach an optimal status."""


class MaxIterations(SdpFailure):
    """Iteration limit reached before tolerances were met."""


class NumericalFailure(SdpFailure):
    """A factorization broke down inside the interior-point solver."""


class InfeasibleDetected(SdpFailure):
    """The SDP appears primal or dual infeasible."""


class RankDeficiencyAmbiguous(CalibrationError):
    """The primal SDP matrix is not numerically rank one; extraction is ambiguous."""
