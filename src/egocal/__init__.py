"""Certifiably globally optimal extrinsic calibration between egomotion sensors."""

from .geom import RotationMatrix, Transform
from .problem import (
    MeasurementSet,
    ObservabilityReport,
    check_observability,
    load_measurements,
    relative_motions_from_trajectories,
)
from .qcqp import DataMatrix, assemble, constraint_catalog
from .solver import (
    CalibrationResult,
    Certificate,
    calibrate,
    evaluate_cost,
    local_solve,
)

__all__ = [
    "RotationMatrix",
    "Transform",
    "MeasurementSet",
    "ObservabilityReport",
    "check_observability",
    "load_measurements",
    "relative_motions_from_trajectories",
    "DataMatrix",
    "assemble",
    "constraint_catalog",
    "CalibrationResult",
    "Certificate",
    "calibrate",
    "evaluate_cost",
    "local_solve",
]

__version__ = "0.1.0"
