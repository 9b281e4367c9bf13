"""End-to-end calibration: assemble (which decides observability), reduce,
solve the strengthened dual SDP, extract and polish the rotation, recover the
translation, and certify it against a proven lower bound on the global minimum.

The bound is a function of the problem and a dual vector y (`_dual_bound`):
y_hom + 4 min(0, lambda_min H(y)) holds for every y, the verification step of
Carlone et al. (IROS 2015) and SE-Sync (Rosen et al., IJRR 2019). So the SDP
is solved only as far as the certificate needs: `settle`, shared by
`calibrate` and `egocal certify`, walks the tolerance ladder LADDER, one
continued solve. Its first rung, 1.0, stops at the SDP's start point
(`qcqp.interior_point`) with no interior-point step: the candidate is the
minimum eigenvector of H(y0) = q_tilde/s + alpha I, and most requests
certify with the least-norm y that annihilates it. The solve goes on to
CANDIDATE_TOL, and then to the strict `sdp.TOL`, only while the answer does
not certify; the answer is the cheapest candidate of the rungs run.

Also hosts the local Levenberg-Marquardt baseline used by the experiment
harness for comparisons; it is the only user of scipy, imported on call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import geom, qcqp, sdp
from .errors import RankDeficiencyAmbiguous, numerical
from .geom import RotationMatrix, Transform
from .problem import (MeasurementSet, ObservabilityReport, check_observability, json_numbers,
                      translation_gram)
from .qcqp import DataMatrix

VERDICT_CERTIFIED = "CertifiedGlobal"
VERDICT_NOT_CERTIFIED = "NotCertified"

# The verdict rule: certified when cost - lower_bound <= GAP_COST * cost +
# GAP_TRACE * tr(q_tilde). Both terms scale with the weights; the trace term
# admits the rounding of a zero-cost (noise-free) optimum.
GAP_COST = 1e-7
GAP_TRACE = 1e-9
# Cap on the rotation polish's Newton trials, taken or refused.
POLISH_STEPS = 30
# The tolerance of `settle`'s middle rung.
CANDIDATE_TOL = 1e-4
# The tolerances `settle` solves the SDP to, in turn, until the answer certifies.
# The first stops at the start point: there the residuals are zero to rounding
# and the gap <X0, S0> = pobj - dobj is below 1 + |pobj| + |dobj|.
LADDER = (1.0, CANDIDATE_TOL, sdp.TOL)
# Cap on the local baseline's cost evaluations (scipy's max_nfev).
LM_MAX_EVALUATIONS = 1600


@dataclass(frozen=True)
class Certificate:
    """A proven lower bound on the global minimum, a candidate's cost and tr(q_tilde)
    (`scale`). A cost or bound that is not finite (NaN or an overflowing inf) never certifies."""

    lower_bound: float
    cost: float
    min_eig_h: float
    scale: float

    @property
    def gap(self) -> float:
        return self.cost - self.lower_bound

    @property
    def certified(self) -> bool:
        finite = np.isfinite(self.cost) and np.isfinite(self.lower_bound)
        return bool(finite and self.gap <= GAP_COST * self.cost + GAP_TRACE * self.scale)

    @property
    def verdict(self) -> str:
        return VERDICT_CERTIFIED if self.certified else VERDICT_NOT_CERTIFIED

    def to_dict(self) -> dict:
        """A NaN or infinite number is written as null."""
        numbers = {"lower_bound": self.lower_bound, "gap": self.gap, "min_eig_H": self.min_eig_h}
        return {**json_numbers(numbers), "verdict": self.verdict}


@dataclass(frozen=True)
class CalibrationResult:
    extrinsic: Transform
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


def evaluate_cost(m: MeasurementSet, theta: Transform) -> float:
    """Weighted rotation + translation residual (the homogenized cost at y = 1); inf on overflow."""
    rot_res, trans_res = _residual_arrays(m, theta.rotation.m, theta.translation)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(
            np.sum(m.kappa * np.sum(rot_res**2, axis=(1, 2)))
            + np.sum(m.tau * np.sum(trans_res**2, axis=1))
        )


def recover_translation(dm: DataMatrix, r_tilde: np.ndarray) -> np.ndarray:
    """The optimal translation t_map r_tilde (`qcqp.assemble` eliminated it). A product
    that cannot fail, kept as a function so that profilers can time the translation step."""
    return dm.t_map @ r_tilde


def extract_solution(eigenvectors: np.ndarray) -> np.ndarray:
    """The rotation encoded by the minimum eigenvector of the dual slack H, the
    first of its `eigenvectors` (columns, by ascending eigenvalue).

    At a zero-gap optimum H annihilates the lifted minimizer, so that vector
    is the minimizer to the solver's accuracy. It is rescaled so its
    homogenizer entry is +1, reshaped column-wise to 3x3 and projected to SO(3).

    Raises RankDeficiencyAmbiguous when the homogenizer entry is zero.
    """
    v = eigenvectors[:, 0]
    if abs(v[qcqp.Y_INDEX]) < 1e-9:
        raise RankDeficiencyAmbiguous("homogenizer entry of the extracted vector is zero")
    return geom.nearest_rotations((v[:9] / v[qcqp.Y_INDEX]).reshape(3, 3, order="F"))


def build_sdp_problem(dm: DataMatrix, constraint_set: str):
    """Trace-normalized reduced SDP: min tr(q_tilde X) over the catalog
    `qcqp.constraint_catalog(constraint_set)`, carrying the catalog's
    `qcqp.interior_point` as the solver's start.

    Returns (problem, scale); multipliers and objectives of the solved problem
    must be multiplied by `scale` to refer to the unnormalized cost.
    """
    constraints = qcqp.constraint_catalog(constraint_set)
    scale = float(np.trace(dm.q_tilde))
    if scale <= 0:
        scale = 1.0
    rhs = np.zeros(len(constraints))
    rhs[-1] = 1.0
    problem = sdp.SdpProblem(cost=dm.q_tilde / scale, constraints=constraints, rhs=rhs,
                             interior=qcqp.interior_point(constraint_set))
    return problem, scale


def _dual_bound(problem: sdp.SdpProblem, y: np.ndarray):
    """A lower bound on r^T (q_tilde/s) r over lifted rotations r = [vec R, 1],
    valid for every dual vector y of the trace-normalized SDP (s = tr q_tilde),
    and `sdp.certify_lmi`'s (eigenvalues, eigenvectors) of H = q_tilde/s - sum_i y_i A_i.

    r^T A_i r is 0 for the rotation constraints and 1 for the homogenizer, and
    |r|^2 = 4, so r^T (q_tilde/s) r = y_hom + r^T H r >= y_hom + 4 min(0, lambda_min H - delta),
    y_hom = y[-1] being the homogenizer's multiplier.
    delta covers rounding: q_tilde/s and every A_i have spectral norm <= 1, so
    the computed H and its eigh err by a small multiple of eps * (1 + |y|_1).
    """
    decomposition = sdp.certify_lmi(problem.cost, problem.constraints, y)
    delta = 1000.0 * np.finfo(float).eps * (1.0 + np.abs(y).sum())
    return float(y[-1] + 4.0 * min(0.0, decomposition[0][0] - delta)), decomposition


def _refine(problem: sdp.SdpProblem, y: np.ndarray, r_tilde: np.ndarray) -> np.ndarray:
    """y + dy, with dy the least-norm solution of B dy = H(y) r_tilde for
    B[:, i] = A_i r_tilde, so that H(y + dy) annihilates r_tilde (one 10 x m
    least-squares solve). H(y) r_tilde = cost r_tilde - B y. From y = 0 it is
    the least-norm y with H(y) r_tilde = 0 (Carlone et al., IROS 2015)."""
    b = (problem.constraints @ r_tilde).T
    with numerical("certificate refinement"):
        return y + np.linalg.lstsq(b, problem.cost @ r_tilde - b @ y, rcond=None)[0]


def settle(dm: DataMatrix, constraint_set: str, propose):
    """Solve the SDP relaxation of `dm` under `constraint_set` and certify the
    candidate (Transform, cost) pair that `propose(eigenvectors)` returns.

    The SDP is solved to each tolerance of LADDER in turn, each rung
    continuing the same solve, and a stage runs at each rung. A stage
    decomposes H once at the solver's y, for `propose` and for the bound there,
    and once at a y refined against the candidate (`_refine`), and keeps the
    larger bound. The refinement starts from the solver's y, except at the
    start point (iteration 1), whose y0 knows nothing of the data: there it
    starts from 0. At a tight optimum the refined bound meets the cost to the
    rounding margin, so the first rung (no interior-point step) already
    certifies most requests.

    The answer is the cheapest candidate of the rungs run (the earliest of
    equal ones) with the largest bound: each rung's bound holds for the global
    minimum. The ladder stops at the first answer that certifies, or at a
    final status other than optimal: an iteration cap or a factorization
    breakdown still leaves a dual vector, which gives a valid, if weaker, bound.

    Returns (solution, theta, cost, certificate), the solution of the last
    rung. Shared by `calibrate` and `egocal certify`.
    """
    problem, scale = build_sdp_problem(dm, constraint_set)

    def stage(solution):
        y = solution.multipliers
        bound, (eigenvalues, eigenvectors) = _dual_bound(problem, y)
        theta, cost = propose(eigenvectors)
        start = y if solution.iterations > 1 else np.zeros_like(y)
        refined = _refine(problem, start, qcqp.reduced_vector(theta.rotation.m))
        refined_bound, (refined_eigenvalues, _) = _dual_bound(problem, refined)
        if refined_bound > bound:
            bound, eigenvalues = refined_bound, refined_eigenvalues
        return theta, cost, bound, float(eigenvalues[0])

    solution = best = proof = None
    for tol in LADDER:
        solution = sdp.solve(problem, tol=tol, start=solution)
        theta, cost, bound, min_eig_h = stage(solution)
        if best is None or cost < best[1]:
            best = theta, cost
        if proof is None or bound > proof[0]:
            proof = bound, min_eig_h
        certificate = Certificate(lower_bound=scale * proof[0], cost=best[1],
                                  min_eig_h=proof[1], scale=scale)
        if certificate.certified or solution.status != sdp.STATUS_OPTIMAL:
            break
    return solution, *best, certificate


def calibrate(m: MeasurementSet, constraint_set: str = "r+c+h") -> CalibrationResult:
    """Certifiably globally optimal calibration from relative motion pairs.

    Pipeline: assemble the data matrix (which decides observability, raising
    SingularQtt on unobservable data, and keeps the report), solve the
    relaxation, extract the rotation from the dual slack and polish it on the
    reduced form, recover the translation in closed form, price the estimate
    and certify it against the proven dual bound (`settle`, which continues the
    SDP solve up its tolerance ladder while the answer does not certify).
    """
    start = time.perf_counter()
    dm = qcqp.assemble(m)

    def propose(eigenvectors):
        rotation = _polish(dm.q_tilde, extract_solution(eigenvectors))
        translation = recover_translation(dm, qcqp.reduced_vector(rotation))
        theta = Transform(RotationMatrix(rotation), translation)
        return theta, evaluate_cost(m, theta)

    solution, theta, cost, certificate = settle(dm, constraint_set, propose)
    stats = {
        "sdp_iters": solution.iterations,
        "sdp_status": solution.status,
        "sdp_tolerance": solution.tolerance,
        "kkt": solution.kkt,
        "wall_time_seconds": time.perf_counter() - start,
    }
    return CalibrationResult(
        extrinsic=theta,
        cost=cost,
        certificate=certificate,
        observability=dm.observability,
        solve_stats=stats,
    )


# The generators [e_k]x of so(3), stacked over k.
_GENERATORS = np.stack([geom.skew(e) for e in np.eye(3)])


def _newton_terms(q_tilde: np.ndarray, r: np.ndarray):
    """f(R) = r_tilde^T q_tilde r_tilde, and the gradient g and Hessian H of
    w -> f(R exp([w]x)) at 0. With A = q_tilde[:9, :9], b = q_tilde[:9, 9],
    P = R^T unvec(A vec R + b) and J = [vec(R [e_k]x)]: g_k = 2 <P, [e_k]x>
    and H = 2 (J^T A J + sym P - tr P I)."""
    a, b, vec = q_tilde[:9, :9], q_tilde[:9, 9], r.reshape(9, order="F")
    grad_vec = a @ vec + b
    p = r.T @ grad_vec.reshape(3, 3, order="F")
    grad = 2.0 * np.array([p[2, 1] - p[1, 2], p[0, 2] - p[2, 0], p[1, 0] - p[0, 1]])
    jac = (r @ _GENERATORS).transpose(0, 2, 1).reshape(3, 9).T
    hess = 2.0 * (jac.T @ a @ jac + 0.5 * (p + p.T) - np.trace(p) * np.eye(3))
    return float(vec @ grad_vec + b @ vec + q_tilde[9, 9]), grad, hess


def _polish(q_tilde: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Damped Riemannian Newton on f(R) = r_tilde^T q_tilde r_tilde over SO(3).

    q_tilde is the cost minimized over the translation (variable projection),
    so a step is O(1) in the number of measurements. The step R exp([w]x),
    w = -(H + mu I)^-1 g, is taken only when f falls. Each trial takes
    mu >= d - 2 min eig H with d = 1e-3 max|eig H|, which mirrors negative
    curvature (lifting it only to d gives a step ~1/d long); a refused step
    sets mu to max(10 mu, d), a taken one to 0. The polish ends when a refused
    step predicts a decrease below the rounding of f, eps * trace(q_tilde).
    That last step is still taken when it shrinks the gradient and raises f by
    no more than that rounding: f resolves the rotation only to about
    sqrt(eps), the gradient to about eps, whatever the start's accuracy.
    """
    f, grad, hess = _newton_terms(q_tilde, r)
    resolution = np.finfo(float).eps * abs(np.trace(q_tilde))
    mu = 0.0
    for _ in range(POLISH_STEPS):
        with numerical("polish"):
            eigvals, eigvecs = np.linalg.eigh(hess)
        damping = 1e-3 * np.abs(eigvals).max()
        mu = max(mu, damping - 2.0 * eigvals[0])
        step = -eigvecs @ ((eigvecs.T @ grad) / (eigvals + mu))
        candidate = r @ geom.rotation_exp(step)
        terms = _newton_terms(q_tilde, candidate)
        if terms[0] < f:
            r, (f, grad, hess), mu = candidate, terms, 0.0
        elif -0.5 * (grad @ step) <= resolution:
            # f cannot tell this step from rounding, but its gradient can.
            if terms[0] <= f + resolution and np.linalg.norm(terms[1]) < np.linalg.norm(grad):
                r = candidate
            break
        else:
            mu = max(10.0 * mu, damping)
    return r


def _residuals(params, m, r0, sqrt_kappa, sqrt_tau):
    """Weighted residuals at the chart point (w, t) = params: rotation R0 exp([w]x)."""
    rot_res, trans_res = _residual_arrays(m, r0 @ geom.rotation_exp(params[:3]), params[3:])
    return np.concatenate(
        [(rot_res * sqrt_kappa[:, None, None]).ravel(), (trans_res * sqrt_tau[:, None]).ravel()]
    )


def local_solve(m: MeasurementSet, init: Transform | None = None) -> CalibrationResult:
    """Levenberg-Marquardt on the shared cost from `init` (default the identity).

    The parameters are (w, t): the rotation is R0 exp([w]x) with R0 the start's
    rotation, so w = 0 at the start, and t starts at its translation. This is
    the iterative baseline: it returns a stationary point with no
    optimality guarantee, so the certificate verdict is always NotCertified.
    `solve_stats` says why it stopped: scipy's `lm_status`, and
    `lm_stopped_at_max_nfev` when that was the LM_MAX_EVALUATIONS cap rather
    than a tolerance.
    """
    from scipy.optimize import least_squares

    start = time.perf_counter()
    if init is None:
        init = Transform.identity()
    r0 = init.rotation.m
    fit = least_squares(
        _residuals,
        np.concatenate([np.zeros(3), init.translation]),
        args=(m, r0, np.sqrt(m.kappa), np.sqrt(m.tau)),
        method="lm",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=LM_MAX_EVALUATIONS,
    )
    theta = Transform(RotationMatrix(r0 @ geom.rotation_exp(fit.x[:3])), fit.x[3:])
    cost = evaluate_cost(m, theta)
    report = check_observability(translation_gram(m))
    certificate = Certificate(lower_bound=np.nan, cost=cost, min_eig_h=np.nan, scale=np.nan)
    stats = {
        "sdp_iters": 0,
        "lm_evaluations": int(fit.nfev),
        # scipy's reason for stopping: 0 is the evaluation cap, 1-4 a tolerance.
        "lm_status": int(fit.status),
        "lm_stopped_at_max_nfev": fit.status == 0,
        "wall_time_seconds": time.perf_counter() - start,
    }
    return CalibrationResult(
        extrinsic=theta,
        cost=cost,
        certificate=certificate,
        observability=report,
        solve_stats=stats,
    )
