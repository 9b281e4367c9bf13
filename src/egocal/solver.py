"""End-to-end calibration: assemble, reduce, solve the strengthened dual SDP,
extract and polish the rotation, recover the translation, and certify.

Also hosts the local Levenberg-Marquardt baseline used by the experiment
harness for comparisons; it is the only user of scipy, imported on call.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import geom, qcqp, sdp
from .errors import MaxIterations, NotObservable, RankDeficiencyAmbiguous
from .geom import RotationMatrix, Transform
from .problem import MeasurementSet, ObservabilityReport, check_observability
from .qcqp import ConstraintSet, DataMatrix

Extrinsic = Transform

VERDICT_CERTIFIED = "CertifiedGlobal"
VERDICT_NOT_CERTIFIED = "NotCertified"

# Certificate thresholds: one order above the SDP solver's fixed tolerances
# (sdp.TOL_FEAS and sdp.TOL_GAP, 1e-9) to absorb reconstruction error. The PSD
# and nullspace tests are evaluated on the trace-normalized problem so the
# verdict is invariant to cost scaling.
GAP_TOL = 1e-7
PSD_TOL = 1e-8
NULLSPACE_TOL = 1e-6
RANK_RATIO = 1e-6
# The dominant eigenvector of the primal X carries an error of order
# sqrt(duality gap); the dual-slack nullspace vector is accurate to the solver
# tolerance. Extraction therefore uses the nullspace vector when it exists and
# only cross-checks the primal eigenvector against it at the sqrt scale.
CROSS_CHECK_TOL = 1e-4
# Cap on the rotation polish's Newton trials, taken or refused.
POLISH_STEPS = 30


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
            "observability": asdict(self.observability),
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
    return -np.linalg.solve(dm.q_tt, dm.q_t_rtilde @ r_tilde)


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


def relax(m: MeasurementSet, constraint_set="r+c+h"):
    """Solve the SDP relaxation of `m` and certify its dual: (dm, solution, rotation, certificate).

    Runs assemble -> SDP -> status check -> `sdp.certify_lmi` -> extraction;
    an SDP stopped at its iteration cap raises MaxIterations. The certificate
    holds everything but the candidate's cost, which is NaN until the caller
    prices a candidate with `dataclasses.replace`.
    """
    dm = qcqp.assemble(m)
    problem, scale = build_sdp_problem(dm, qcqp.constraint_catalog(constraint_set))
    solution = sdp.solve(problem)
    if solution.status != sdp.STATUS_OPTIMAL:
        raise MaxIterations(f"interior-point solve ended with status {solution.status!r}")

    lmi = sdp.certify_lmi(problem.cost, problem.constraints, solution.multipliers)
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
) -> CalibrationResult:
    """Certifiably globally optimal calibration from relative motion pairs.

    Pipeline: test observability, solve and certify the relaxation (`relax`),
    polish the rotation on the reduced form, recover the translation in closed
    form, and price the estimate against the certificate's dual lower bound.
    """
    start = time.perf_counter()
    report = check_observability(m)
    if strict_observability and not report.observable:
        raise NotObservable(
            f"only {report.distinct_axis_count} distinct rotation axes in the data; "
            "two are required"
        )

    dm, solution, rotation, certificate = relax(m, constraint_set)
    rotation = _polish(dm.q_tilde, rotation)
    theta = Transform(rotation, recover_translation(dm, qcqp.reduced_vector(rotation)))
    cost = evaluate_cost(m, theta)
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


def _newton_terms(q_tilde: np.ndarray, r: np.ndarray):
    """f(R) = r_tilde^T q_tilde r_tilde, and the gradient g and Hessian H of
    w -> f(R exp([w]x)) at 0. With A = q_tilde[:9, :9], b = q_tilde[:9, 9],
    P = R^T unvec(A vec R + b) and J = [vec(R [e_k]x)]: g_k = 2 <P, [e_k]x>
    and H = 2 (J^T A J + sym P - tr P I)."""
    a, b, vec = q_tilde[:9, :9], q_tilde[:9, 9], r.reshape(9, order="F")
    grad_vec = a @ vec + b
    p = r.T @ grad_vec.reshape(3, 3, order="F")
    grad = 2.0 * np.array([p[2, 1] - p[1, 2], p[0, 2] - p[2, 0], p[1, 0] - p[0, 1]])
    jac = np.stack([(r @ geom.skew(e)).reshape(9, order="F") for e in np.eye(3)], axis=1)
    hess = 2.0 * (jac.T @ a @ jac + 0.5 * (p + p.T) - np.trace(p) * np.eye(3))
    return float(vec @ grad_vec + b @ vec + q_tilde[9, 9]), grad, hess


def _polish(q_tilde: np.ndarray, rotation: RotationMatrix) -> RotationMatrix:
    """Damped Riemannian Newton on f(R) = r_tilde^T q_tilde r_tilde over SO(3).

    q_tilde is the cost minimized over the translation (variable projection),
    so a step is O(1) in the number of measurements. The step R exp([w]x),
    w = -(H + mu I)^-1 g, is taken only when f falls. Each trial takes
    mu >= d - 2 min eig H with d = 1e-3 max|eig H|, which mirrors negative
    curvature (lifting it only to d gives a step ~1/d long); a refused step
    sets mu to max(10 mu, d), a taken one to 0. The polish ends when a refused
    step predicts a decrease below the rounding of f, eps * trace(q_tilde).
    """
    r = rotation.m
    f, grad, hess = _newton_terms(q_tilde, r)
    resolution = np.finfo(float).eps * abs(np.trace(q_tilde))
    mu = 0.0
    for _ in range(POLISH_STEPS):
        eigvals, eigvecs = np.linalg.eigh(hess)
        damping = 1e-3 * np.abs(eigvals).max()
        mu = max(mu, damping - 2.0 * eigvals[0])
        step = -eigvecs @ ((eigvecs.T @ grad) / (eigvals + mu))
        candidate = r @ geom.rotation_exp(step).m
        terms = _newton_terms(q_tilde, candidate)
        if terms[0] < f:
            r, (f, grad, hess), mu = candidate, terms, 0.0
        elif -0.5 * (grad @ step) <= resolution:
            break
        else:
            mu = max(10.0 * mu, damping)
    return RotationMatrix(r)


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


def local_solve(m: MeasurementSet, init: Extrinsic | None = None) -> CalibrationResult:
    """Levenberg-Marquardt on the shared cost over axis-angle + translation.

    This is the iterative baseline: it returns a stationary point with no
    optimality guarantee, so the certificate verdict is always NotCertified.
    """
    from scipy.optimize import least_squares

    start = time.perf_counter()
    if init is None:
        init = Transform.identity()
    fit = least_squares(
        _residuals,
        _params_from_extrinsic(init),
        args=(m, np.sqrt(m.kappa), np.sqrt(m.tau)),
        method="lm",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=1600,
    )
    theta = _extrinsic_from_params(fit.x)
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
        "lm_evaluations": int(fit.nfev),
        "wall_time_seconds": time.perf_counter() - start,
    }
    return CalibrationResult(
        extrinsic=theta,
        cost=cost,
        certificate=certificate,
        observability=report,
        solve_stats=stats,
    )
