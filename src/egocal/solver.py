"""End-to-end calibration: assemble, reduce, solve the strengthened dual SDP,
extract the rotation, recover the translation in closed form, and certify.

Also hosts the local Levenberg-Marquardt baseline used by the experiment
harness for comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from . import geom, qcqp, sdp
from .errors import NotObservable, RankDeficiencyAmbiguous, SdpFailure
from .geom import Transform
from .problem import MeasurementSet, ObservabilityReport, check_observability
from .qcqp import ConstraintSet, DataMatrix

Extrinsic = Transform

VERDICT_CERTIFIED = "CertifiedGlobal"
VERDICT_NOT_CERTIFIED = "NotCertified"

# Certificate thresholds: one order above solver tolerances to absorb
# reconstruction error. The PSD and nullspace tests are evaluated on the
# trace-normalized problem so the verdict is invariant to cost scaling.
GAP_TOL = 1e-7
PSD_TOL = 1e-8
NULLSPACE_TOL = 1e-6
RANK_RATIO = 1e-6
# The dominant eigenvector of the primal X carries an error of order
# sqrt(duality gap); the dual-slack nullspace vector is accurate to the solver
# tolerance. Extraction therefore uses the nullspace vector when it exists and
# only cross-checks the primal eigenvector against it at the sqrt scale.
CROSS_CHECK_TOL = 1e-4


@dataclass(frozen=True)
class Certificate:
    gap: float
    min_eig_h: float
    nullspace_dim: int
    extraction_residual: float
    verdict: str

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def to_dict(self) -> dict:
        return {
            "gap": self.gap,
            "min_eig_H": self.min_eig_h,
            "nullspace_dim": self.nullspace_dim,
            "extraction_residual": self.extraction_residual,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class CalibrationResult:
    extrinsic: Extrinsic
    cost: float
    certificate: Certificate
    observability: ObservabilityReport
    solve_stats: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "theta": {
                "R": self.extrinsic.rotation.m.tolist(),
                "t": self.extrinsic.translation.tolist(),
            },
            "cost": self.cost,
            "certificate": self.certificate.to_dict(),
            "observability": self.observability.to_dict(),
            "solve_stats": self.solve_stats,
        }


def _residual_arrays(m: MeasurementSet, r: np.ndarray, t: np.ndarray):
    """Per-measurement R R_a - R_b R (n, 3, 3) and R t_a + t - R_b t - t_b (n, 3)."""
    return r @ m.ra - m.rb @ r, (m.ta @ r.T) + t[None, :] - (m.rb @ t) - m.tb


def evaluate_cost(m: MeasurementSet, theta: Extrinsic) -> float:
    """Weighted rotation + translation residual (the homogenized cost at y = 1)."""
    rot_res, trans_res = _residual_arrays(m, theta.rotation.m, theta.translation)
    return float(
        np.sum(m.kappa * np.sum(rot_res**2, axis=(1, 2)))
        + np.sum(m.tau * np.sum(trans_res**2, axis=1))
    )


def recover_translation(dm: DataMatrix, r_tilde: np.ndarray) -> np.ndarray:
    """Closed-form optimal translation -q_tt^-1 q_t_rtilde r_tilde."""
    return -scipy.linalg.solve(dm.q_tt, dm.q_t_rtilde @ r_tilde, assume_a="pos")


def extract_solution(
    x_primal: np.ndarray,
    h_matrix: np.ndarray | None = None,
    rank_ratio: float | None = RANK_RATIO,
):
    """Recover (rotation, residual, cross_check) from the SDP solution.

    The solution vector is the minimum-eigenvalue direction of the dual slack
    H when that eigenvalue is (relatively) zero -- at a zero-gap optimum the
    slack annihilates the minimizer and its nullspace vector is accurate to
    the solver tolerance. Otherwise the dominant eigenvector of the primal X
    is used (its error scales as sqrt(gap)). Either way the vector is rescaled
    so its homogenizer entry is +1, reshaped column-wise to 3x3, and projected
    to SO(3); cross_check reports the disagreement between the two sources.

    Raises RankDeficiencyAmbiguous when the second eigenvalue of x_primal
    exceeds rank_ratio times the first (pass rank_ratio=None to skip).
    """
    x_primal = 0.5 * (x_primal + x_primal.T)
    eigvals, eigvecs = np.linalg.eigh(x_primal)
    if rank_ratio is not None and eigvals[-2] > rank_ratio * eigvals[-1]:
        raise RankDeficiencyAmbiguous(
            f"primal matrix is not rank one (eig ratio {eigvals[-2] / eigvals[-1]:.2e}); "
            "duality gap or unobservable instance"
        )
    v = eigvecs[:, -1]

    cross_check = 0.0
    if h_matrix is not None:
        h = 0.5 * (h_matrix + h_matrix.T)
        h_vals, h_vecs = np.linalg.eigh(h)
        if h_vals[0] < NULLSPACE_TOL * (1.0 + np.linalg.norm(h, 2)):
            u = h_vecs[:, 0]
            if np.dot(u, v) < 0:
                u = -u
            cross_check = float(np.linalg.norm(u - v))
            v = u

    if abs(v[qcqp.Y_INDEX]) < 1e-9:
        raise RankDeficiencyAmbiguous("homogenizer entry of the extracted vector is zero")
    v = v / v[qcqp.Y_INDEX]
    raw = v[:9].reshape(3, 3, order="F")
    rotation = geom.project_to_so3(raw)
    residual = float(np.linalg.norm(raw - rotation.m))
    return rotation, residual, cross_check


def build_sdp_problem(dm: DataMatrix, constraints: ConstraintSet):
    """Trace-normalized reduced SDP: min tr(q_tilde X) over the constraint set.

    Returns (problem, scale); multipliers and objectives of the solved problem
    must be multiplied by `scale` to refer to the unnormalized cost.
    """
    scale = float(np.trace(dm.q_tilde))
    if scale <= 0:
        scale = 1.0
    rhs = np.zeros(len(constraints.stacked))
    rhs[-1] = 1.0
    problem = sdp.SdpProblem(cost=dm.q_tilde / scale, constraints=constraints.stacked, rhs=rhs)
    return problem, scale


def calibrate(
    m: MeasurementSet,
    constraint_set: str = "r+c+h",
    strict_observability: bool = False,
    tol_feas: float = 1e-9,
    tol_gap: float = 1e-9,
    max_iter: int = 100,
) -> CalibrationResult:
    """Certifiably globally optimal calibration from relative motion pairs.

    Pipeline: form the data matrix, Schur-reduce over translation, solve the
    strengthened dual SDP, extract the rotation from the (near) rank-one
    primal, recover the translation in closed form, and attach a numerical
    optimality certificate plus the observability report.
    """
    start = time.perf_counter()
    report = check_observability(m)
    if strict_observability and not report.observable:
        raise NotObservable(
            f"only {report.distinct_axis_count} distinct rotation axes in the data; "
            "two are required"
        )

    dm = qcqp.assemble(m)
    constraints = qcqp.constraint_catalog(constraint_set)
    problem, scale = build_sdp_problem(dm, constraints)
    solution = sdp.solve(problem, tol_feas=tol_feas, tol_gap=tol_gap, max_iter=max_iter)
    if solution.status != sdp.STATUS_OPTIMAL:
        raise SdpFailure(f"interior-point solve ended with status {solution.status!r}")

    cert_lmi = sdp.certify_lmi(
        problem.cost, problem.constraints, solution.multipliers, tol_feas=PSD_TOL
    )
    h = cert_lmi["h"]

    verdict_ok = True
    try:
        rotation, extraction_residual, cross_check = extract_solution(
            solution.x_primal, h_matrix=h, rank_ratio=RANK_RATIO
        )
    except RankDeficiencyAmbiguous:
        verdict_ok = False
        rotation, extraction_residual, cross_check = extract_solution(
            solution.x_primal, h_matrix=h, rank_ratio=None
        )

    r_tilde = qcqp.reduced_vector(rotation)
    translation = recover_translation(dm, r_tilde)
    theta, cost = _polish(m, Transform(rotation, translation))

    gamma = solution.dual_obj * scale
    gap = cost - gamma
    h_norm = float(np.linalg.norm(h, 2))
    nullspace_dim = int(np.sum(np.linalg.eigvalsh(h) < NULLSPACE_TOL * (1.0 + h_norm)))

    certified = (
        verdict_ok
        and gap < GAP_TOL * (1.0 + abs(cost))
        and cert_lmi["min_eig"] > -PSD_TOL
        and nullspace_dim == 1
        and cross_check < CROSS_CHECK_TOL
    )
    certificate = Certificate(
        gap=gap,
        min_eig_h=cert_lmi["min_eig"],
        nullspace_dim=nullspace_dim,
        extraction_residual=extraction_residual,
        verdict=VERDICT_CERTIFIED if certified else VERDICT_NOT_CERTIFIED,
    )
    stats = {
        "sdp_iters": solution.iterations,
        "sdp_status": solution.status,
        "kkt": solution.kkt,
        "wall_time_seconds": time.perf_counter() - start,
    }
    return CalibrationResult(
        extrinsic=theta,
        cost=cost,
        certificate=certificate,
        observability=report,
        solve_stats=stats,
    )


def _polish(m: MeasurementSet, theta: Extrinsic) -> tuple[Extrinsic, float]:
    """Short local refinement of an extracted estimate: (extrinsic, its cost).

    The extracted vector inherits the SDP solver tolerance, which leaves the
    estimate a few orders above machine precision. A handful of damped
    Gauss-Newton steps from that point converge quadratically to the nearby
    stationary point. Accepted only when the cost does not increase, so the
    certificate gap evaluated afterwards can only tighten.
    """
    cost = evaluate_cost(m, theta)
    try:
        refined, _ = _levenberg_marquardt(m, theta, tol=1e-15, max_nfev=60)
    except (ValueError, np.linalg.LinAlgError):
        return theta, cost
    refined_cost = evaluate_cost(m, refined)
    return (refined, refined_cost) if refined_cost <= cost else (theta, cost)


def _levenberg_marquardt(m: MeasurementSet, init: Extrinsic, tol: float, max_nfev: int):
    """LM on the shared cost over axis-angle + translation: (extrinsic, evaluations)."""
    result = scipy.optimize.least_squares(
        _residuals,
        _params_from_extrinsic(init),
        args=(m, np.sqrt(m.kappa), np.sqrt(m.tau)),
        method="lm",
        xtol=tol,
        ftol=tol,
        gtol=tol,
        max_nfev=max_nfev,
    )
    return _extrinsic_from_params(result.x), int(result.nfev)


def _params_from_extrinsic(theta: Extrinsic) -> np.ndarray:
    aa = geom.axis_angle_from_rotation(theta.rotation)
    return np.concatenate([aa.axis * aa.angle, theta.translation])


def _extrinsic_from_params(params: np.ndarray) -> Extrinsic:
    return Transform(geom.rotation_exp(params[:3]), params[3:])


def _residuals(params, m, sqrt_kappa, sqrt_tau):
    theta = _extrinsic_from_params(params)
    rot_res, trans_res = _residual_arrays(m, theta.rotation.m, theta.translation)
    return np.concatenate(
        [(rot_res * sqrt_kappa[:, None, None]).ravel(), (trans_res * sqrt_tau[:, None]).ravel()]
    )


def local_solve(
    m: MeasurementSet,
    init: Extrinsic | None = None,
    max_iter: int = 200,
) -> CalibrationResult:
    """Levenberg-Marquardt on the shared cost over axis-angle + translation.

    This is the iterative baseline: it returns a stationary point with no
    optimality guarantee, so the certificate verdict is always NotCertified.
    """
    start = time.perf_counter()
    if init is None:
        init = Transform.identity()
    theta, evaluations = _levenberg_marquardt(m, init, tol=1e-14, max_nfev=max_iter * 8)
    cost = evaluate_cost(m, theta)
    report = check_observability(m)
    certificate = Certificate(
        gap=float("nan"),
        min_eig_h=float("nan"),
        nullspace_dim=0,
        extraction_residual=0.0,
        verdict=VERDICT_NOT_CERTIFIED,
    )
    stats = {
        "sdp_iters": 0,
        "lm_evaluations": evaluations,
        "wall_time_seconds": time.perf_counter() - start,
    }
    return CalibrationResult(
        extrinsic=theta,
        cost=cost,
        certificate=certificate,
        observability=report,
        solve_stats=stats,
    )
