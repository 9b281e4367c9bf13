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
not certify; the answer is the cheapest candidate of the rungs run (the
latest of those equal to the polish's resolution).

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
    certificate: Certificate
    observability: ObservabilityReport
    solve_stats: dict

    @property
    def cost(self) -> float:
        return self.certificate.cost

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
    """(bound, lambda_min, eigenvectors) at a dual vector y of the trace-normalized
    SDP (s = tr q_tilde): a lower bound on r^T (q_tilde/s) r over lifted rotations
    r = [vec R, 1], valid for every y, and the smallest eigenvalue and the
    eigenvectors (columns, ascending) of H = q_tilde/s - sum_i y_i A_i from `sdp.certify_lmi`.

    r^T A_i r is 0 for the rotation constraints and 1 for the homogenizer, and
    |r|^2 = 4, so r^T (q_tilde/s) r = y_hom + r^T H r >= y_hom + 4 min(0, lambda_min H - delta),
    y_hom = y[-1] being the homogenizer's multiplier.
    delta covers rounding: q_tilde/s and every A_i have spectral norm <= 1, so
    the computed H and its eigh err by a small multiple of eps * (1 + |y|_1).
    """
    eigenvalues, eigenvectors = sdp.certify_lmi(problem.cost, problem.constraints, y)
    min_eig = float(eigenvalues[0])
    delta = 1000.0 * np.finfo(float).eps * (1.0 + np.abs(y).sum())
    return float(y[-1] + 4.0 * min(0.0, min_eig - delta)), min_eig, eigenvectors


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
    continuing the same solve. Each rung decomposes H at the solver's y, for
    `propose` and for the bound there, and again at a y refined against the
    candidate (`_refine`). The refinement starts from the solver's y, except
    at the start point (iteration 1), whose y0 knows nothing of the data:
    there it starts from 0.

    Every bound holds for the global minimum, so the proof is the largest
    bound of the rungs run (the earliest of equal ones, the solver's y before
    the refined one) with its lambda_min, and the answer is the cheapest
    candidate. A later candidate replaces the answer unless it costs more by
    over eps * tr(q_tilde), the polish's resolution: candidates that close
    are one minimum to the polish, and the later one comes from the more
    accurate solve. So an answer that certifies on no rung is the strict
    rung's candidate, which a ladder of sdp.TOL alone would return, unless an
    earlier rung found a cheaper one. The ladder stops at the first
    answer that certifies, or at a final status other than optimal: an
    iteration cap or a factorization breakdown still leaves a dual vector,
    which gives a valid, if weaker, bound.

    Returns (solution, theta, certificate): the solution of the last rung, and
    the answer, whose cost is `certificate.cost`. Shared by `calibrate` and
    `egocal certify`.
    """
    problem, scale = build_sdp_problem(dm, constraint_set)
    resolution = np.finfo(float).eps * scale
    solution = best = proof = None
    for tol in LADDER:
        solution = sdp.solve(problem, tol=tol, start=solution)
        y = solution.multipliers
        at_y = _dual_bound(problem, y)
        theta, cost = propose(at_y[2])
        start = y if solution.iterations > 1 else np.zeros_like(y)
        refined = _refine(problem, start, qcqp.reduced_vector(theta.rotation.m))
        for bound, min_eig_h, _ in (at_y, _dual_bound(problem, refined)):
            if proof is None or bound > proof[0]:
                proof = bound, min_eig_h
        if best is None or cost <= best[1] + resolution:
            best = theta, cost
        certificate = Certificate(lower_bound=scale * proof[0], cost=best[1],
                                  min_eig_h=proof[1], scale=scale)
        if certificate.certified or solution.status != sdp.STATUS_OPTIMAL:
            break
    return solution, best[0], certificate


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

    solution, theta, certificate = settle(dm, constraint_set, propose)
    stats = {
        "sdp_iters": solution.iterations,
        "sdp_status": solution.status,
        "sdp_tolerance": solution.tolerance,
        "kkt": solution.kkt,
        "wall_time_seconds": time.perf_counter() - start,
    }
    return CalibrationResult(
        extrinsic=theta,
        certificate=certificate,
        observability=dm.observability,
        solve_stats=stats,
    )


def _newton_constants():
    """Constant factors of `_newton_model`'s stack: the left factors (130, 10) and
    the padded Jacobian maps N_k, stacked as N_k^T over rows (30, 10) and N_k
    side by side (10, 30).

    With r_tilde = [vec R, 1], column k of R is r_tilde[3k:3k+3], so
    P_kl = r_tilde^T E_kl q_tilde r_tilde for E_kl moving rows 3l..3l+2 to
    rows 3k..3k+2. vec(R [e_k]x) = ([e_k]x^T kron I) vec R, and N_k r_tilde is
    that vector padded with a 0, so (J^T A J)_kl = r_tilde^T N_k^T q_tilde N_l r_tilde.
    """
    generators = np.stack([geom.skew(e) for e in np.eye(3)])
    moves = np.zeros((3, 3, 10, 10))
    for k, l in np.ndindex(3, 3):
        moves[k, l, 3 * k:3 * k + 3, 3 * l:3 * l + 3] = np.eye(3)
    trace = moves[0, 0] + moves[1, 1] + moves[2, 2]
    left = np.stack([np.eye(10),
                     2.0 * (moves[2, 1] - moves[1, 2]),
                     2.0 * (moves[0, 2] - moves[2, 0]),
                     2.0 * (moves[1, 0] - moves[0, 1]),
                     *(moves[k, l] + moves[l, k] - 2.0 * (k == l) * trace
                       for k, l in np.ndindex(3, 3))])
    jac = np.zeros((3, 10, 10))
    for k, a, b in np.ndindex(3, 3, 3):  # block (a, b) of [e_k]x^T kron I
        jac[k, 3 * a:3 * a + 3, 3 * b:3 * b + 3] = generators[k, b, a] * np.eye(3)
    return (left.reshape(130, 10), jac.transpose(0, 2, 1).reshape(30, 10),
            jac.transpose(1, 0, 2).reshape(10, 30))


_MODEL_LEFT, _JAC_ROWS, _JAC_COLUMNS = _newton_constants()


def _newton_model(q_tilde: np.ndarray) -> np.ndarray:
    """The quadratic model of `_polish`: a stack of 13 10x10 matrices T, as (130, 10),
    each linear in q_tilde, such that r_tilde^T T r_tilde at r_tilde = [vec R, 1] is
    f(R) = r_tilde^T q_tilde r_tilde, then the gradient g and then the Hessian H
    (row-major) of w -> f(R exp([w]x)) at 0.

    With A = q_tilde[:9, :9], P = R^T unvec(q_tilde[:9] r_tilde) and
    J = [vec(R [e_k]x)]: g_k = 2 <P, [e_k]x> and H = 2 (J^T A J + sym P - tr P I).
    Each entry of P and of J^T A J is a quadratic form in r_tilde (`_newton_constants`),
    so the stack is q_tilde, 2 sum_ab [e_k]x_ab E_ab q_tilde and
    2 N_k^T q_tilde N_l + (E_kl + E_lk - 2 delta_kl sum_m E_mm) q_tilde.
    """
    model = (_MODEL_LEFT @ q_tilde).reshape(13, 10, 10)
    jtaj = (_JAC_ROWS @ q_tilde @ _JAC_COLUMNS).reshape(3, 10, 3, 10).transpose(0, 2, 1, 3)
    model[4:] += 2.0 * jtaj.reshape(9, 10, 10)
    return model.reshape(130, 10)


def _newton_terms(model: np.ndarray, r: np.ndarray):
    """(f, g, H) of `_newton_model`'s stack at the rotation r: two matrix-vector products."""
    r_tilde = qcqp.reduced_vector(r)
    terms = (model @ r_tilde).reshape(13, 10) @ r_tilde
    return terms[0], terms[1:4], terms[4:].reshape(3, 3)


def _polish(q_tilde: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Damped Riemannian Newton on f(R) = r_tilde^T q_tilde r_tilde over SO(3).

    q_tilde is the cost minimized over the translation (variable projection),
    so a step is O(1) in the number of measurements. f, its gradient g and
    Hessian H in the chart w -> R exp([w]x) are quadratic forms in r_tilde,
    built once from q_tilde (`_newton_model`), so a trial evaluates them with
    two matrix-vector products. The step R exp([w]x),
    w = -(H + mu I)^-1 g, is taken only when f falls. Each trial takes
    mu >= d - 2 min eig H with d = 1e-3 max|eig H|, which mirrors negative
    curvature (lifting it only to d gives a step ~1/d long); a refused step
    sets mu to max(10 mu, d), a taken one to 0. The polish ends when a refused
    step predicts a decrease below the rounding of f, eps * trace(q_tilde).
    That last step is still taken when it shrinks the gradient and raises f by
    no more than that rounding: f resolves the rotation only to about
    sqrt(eps), the gradient to about eps, whatever the start's accuracy.
    """
    model = _newton_model(q_tilde)
    f, grad, hess = _newton_terms(model, r)
    resolution = np.finfo(float).eps * abs(np.trace(q_tilde))
    mu = 0.0
    for _ in range(POLISH_STEPS):
        with numerical("polish"):
            eigvals, eigvecs = np.linalg.eigh(hess)
        damping = 1e-3 * np.abs(eigvals).max()
        mu = max(mu, damping - 2.0 * eigvals[0])
        step = -eigvecs @ ((eigvecs.T @ grad) / (eigvals + mu))
        candidate = r @ geom.rotation_exp(step)
        terms = _newton_terms(model, candidate)
        if terms[0] < f:
            r, (f, grad, hess), mu = candidate, terms, 0.0
        elif -0.5 * (grad @ step) <= resolution:
            # f cannot tell this step from rounding, but its gradient can.
            with np.errstate(over="ignore"):  # the norm of a gradient past 1e154 overflows
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
    report = check_observability(translation_gram(m))
    certificate = Certificate(lower_bound=np.nan, cost=evaluate_cost(m, theta), min_eig_h=np.nan,
                              scale=np.nan)
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
        certificate=certificate,
        observability=report,
        solve_stats=stats,
    )
