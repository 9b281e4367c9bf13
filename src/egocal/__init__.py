"""Certifiably globally optimal extrinsic calibration between egomotion sensors."""

from .geom import RotationMatrix, Transform
from .problem import (
    MeasurementSet,
    ObservabilityReport,
    check_observability,
    load_measurements,
    relative_motions_from_trajectories,
)
from .qcqp import ConstraintSet, DataMatrix, assemble, constraint_catalog
from .solver import (
    CalibrationResult,
    Certificate,
    Extrinsic,
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
    "ConstraintSet",
    "DataMatrix",
    "assemble",
    "constraint_catalog",
    "CalibrationResult",
    "Certificate",
    "Extrinsic",
    "calibrate",
    "evaluate_cost",
    "local_solve",
]

__version__ = "0.1.0"
