"""End-to-end calibration: assemble, reduce, solve the strengthened dual SDP,
extract the rotation, recover the translation in closed form, and certify.

Also hosts the local Levenberg-Marquardt baseline used by the experiment
harness for comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

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
    """Facts about a candidate and its relaxation's dual; `reasons` holds the one
    verdict rule. A NaN cost (no candidate priced yet) never certifies."""

    lower_bound: float
    cost: float
    min_eig_h: float
    nullspace_dim: int
    extraction_residual: float
    cross_check: float
    rank_one: bool

    @property
    def gap(self) -> float:
        return self.cost - self.lower_bound

    @property
    def reasons(self) -> tuple:
        """Names of the failed checks, in a fixed order; empty when certified."""
        checks = {
            "rank": self.rank_one,
            "gap": self.gap < GAP_TOL * (1.0 + abs(self.cost)),
            "psd": self.min_eig_h > -PSD_TOL,
            "nullspace_dim": self.nullspace_dim == 1,
            "cross_check": self.cross_check < CROSS_CHECK_TOL,
        }
        return tuple(name for name, ok in checks.items() if not ok)

    @property
    def verdict(self) -> str:
        return VERDICT_NOT_CERTIFIED if self.reasons else VERDICT_CERTIFIED

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def to_dict(self) -> dict:
        return {
            "gap": self.gap,
            "min_eig_H": self.min_eig_h,
            "nullspace_dim": self.nullspace_dim,
            "extraction_residual": self.extraction_residual,
            "cross_check": self.cross_check,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
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


def _nullspace_dim(lmi: dict) -> int:
    """Eigenvalues of the dual slack H that are zero relative to its norm."""
    return int(np.sum(lmi["eigenvalues"] < NULLSPACE_TOL * (1.0 + lmi["norm"])))


def extract_solution(x_primal: np.ndarray, lmi: dict):
    """Recover (rotation, residual, cross_check, rank_one) from the SDP solution.

    `lmi` is `sdp.certify_lmi`'s decomposition of the dual slack H. When H has
    a (relatively) zero eigenvalue its eigenvector is the solution vector -- at
    a zero-gap optimum the slack annihilates the minimizer and its nullspace
    vector is accurate to the solver tolerance. Otherwise the dominant
    eigenvector of the primal X is used (its error scales as sqrt(gap)).
    Either way the vector is rescaled so its homogenizer entry is +1, reshaped
    column-wise to 3x3, and projected to SO(3); cross_check reports the
    disagreement between the two sources. rank_one is False when the second
    eigenvalue of x_primal exceeds RANK_RATIO times the first.

    Raises RankDeficiencyAmbiguous when the homogenizer entry is zero.
    """
    x_primal = 0.5 * (x_primal + x_primal.T)
    eigvals, eigvecs = np.linalg.eigh(x_primal)
    rank_one = not eigvals[-2] > RANK_RATIO * eigvals[-1]
    v = eigvecs[:, -1]

    cross_check = 0.0
    if _nullspace_dim(lmi) > 0:
        u = lmi["eigenvectors"][:, 0]
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
    return rotation, residual, cross_check, rank_one


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


def relax(m: MeasurementSet, constraint_set="r+c+h", tol_feas=1e-9, tol_gap=1e-9, max_iter=100):
    """Solve the SDP relaxation of `m` and certify its dual: (dm, solution, rotation, certificate).

    Runs assemble -> SDP -> status check -> `sdp.certify_lmi` -> extraction.
    The certificate holds everything but the candidate's cost, which is NaN
    until the caller prices a candidate with `dataclasses.replace`.
    """
    dm = qcqp.assemble(m)
    problem, scale = build_sdp_problem(dm, qcqp.constraint_catalog(constraint_set))
    solution = sdp.solve(problem, tol_feas=tol_feas, tol_gap=tol_gap, max_iter=max_iter)
    if solution.status != sdp.STATUS_OPTIMAL:
        raise SdpFailure(f"interior-point solve ended with status {solution.status!r}")

    lmi = sdp.certify_lmi(problem.cost, problem.constraints, solution.multipliers, tol_feas=PSD_TOL)
    rotation, extraction_residual, cross_check, rank_one = extract_solution(solution.x_primal, lmi)
    certificate = Certificate(
        lower_bound=solution.dual_obj * scale,
        cost=float("nan"),
        min_eig_h=lmi["min_eig"],
        nullspace_dim=_nullspace_dim(lmi),
        extraction_residual=extraction_residual,
        cross_check=cross_check,
        rank_one=rank_one,
    )
    return dm, solution, rotation, certificate


def calibrate(
    m: MeasurementSet,
    constraint_set: str = "r+c+h",
    strict_observability: bool = False,
    tol_feas: float = 1e-9,
    tol_gap: float = 1e-9,
    max_iter: int = 100,
) -> CalibrationResult:
    """Certifiably globally optimal calibration from relative motion pairs.

    Pipeline: test observability, solve and certify the relaxation (`relax`),
    recover the translation in closed form, polish locally, and price the
    polished estimate against the certificate's dual lower bound.
    """
    start = time.perf_counter()
    report = check_observability(m)
    if strict_observability and not report.observable:
        raise NotObservable(
            f"only {report.distinct_axis_count} distinct rotation axes in the data; "
            "two are required"
        )

    dm, solution, rotation, certificate = relax(m, constraint_set, tol_feas, tol_gap, max_iter)
    translation = recover_translation(dm, qcqp.reduced_vector(rotation))
    theta, cost = _polish(m, Transform(rotation, translation))
    stats = {
        "sdp_iters": solution.iterations,
        "sdp_status": solution.status,
        "kkt": solution.kkt,
        "wall_time_seconds": time.perf_counter() - start,
    }
    return CalibrationResult(
        extrinsic=theta,
        cost=cost,
        certificate=replace(certificate, cost=cost),
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
        lower_bound=float("nan"),
        cost=cost,
        min_eig_h=float("nan"),
        nullspace_dim=0,
        extraction_residual=0.0,
        cross_check=float("nan"),
        rank_one=False,
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
