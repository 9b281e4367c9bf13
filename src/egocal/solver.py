"""End-to-end calibration: assemble (which decides observability), reduce,
solve the strengthened dual SDP, extract and polish the rotation, recover the
translation, and certify it against a proven lower bound on the global minimum.

The bound is a function of the problem and a dual vector y (`_dual_bound`):
y_hom + 4 min(0, lambda_min H(y)) holds for every y, the verification step of
Carlone et al. (IROS 2015) and SE-Sync (Rosen et al., IJRR 2019). So the SDP
is solved only as far as the certificate needs: `settle`, shared by
`calibrate` and `egocal certify`, runs two stages. The start stage stops the
solve at its start point (`qcqp.interior_point`, tolerance 1.0) with no
interior-point step: the candidate is the minimum eigenvector of
H(y0) = q_tilde/s + alpha I, and most requests certify with the least-norm y
that annihilates it. Only when that answer does not certify does the strict
stage solve the SDP afresh to `sdp.TOL`, where a second candidate, from H's
second eigenvector, follows the first if that does not certify. The answer is
the cheaper of the strict stage's candidates; the proof is the largest bound
of both stages.

Also hosts the local Levenberg-Marquardt baseline used by the experiment
harness for comparisons; it is the only user of scipy, imported on call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

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
# Cap on the local baseline's cost evaluations (scipy's max_nfev).
LM_MAX_EVALUATIONS = 1600
_EPS = np.finfo(float).eps


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
        finite = math.isfinite(self.cost) and math.isfinite(self.lower_bound)
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
        return float((m.kappa * (rot_res**2).sum(axis=(1, 2))).sum()
                     + (m.tau * (trans_res**2).sum(axis=1)).sum())


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
    scale = float(dm.q_tilde.trace())
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
    delta = 1000.0 * _EPS * (1.0 + abs(y).sum())
    return float(y[-1] + 4.0 * min(0.0, min_eig - delta)), min_eig, eigenvectors


def _refine(problem: sdp.SdpProblem, y: np.ndarray, r_tilde: np.ndarray) -> np.ndarray:
    """y + dy, with dy the least-norm solution of B dy = H(y) r_tilde for
    B[:, i] = A_i r_tilde, so that H(y + dy) annihilates r_tilde.
    H(y) r_tilde = cost r_tilde - B y. From y = 0 it is the least-norm y with
    H(y) r_tilde = 0 (Carlone et al., IROS 2015).

    dy = B^T pinv(B B^T) (H(y) r_tilde), with the pseudo-inverse from one 10 x 10
    eigendecomposition (`sdp._pseudo_inverse`, its 1e-13 cutoff). B has rank 7
    under every catalog: at a rotation, the three tangent directions of SO(3)
    are its left null space, which the cutoff drops."""
    b = problem.constraints @ r_tilde  # B^T, (m, 10)
    with numerical("certificate refinement"):
        gram_solve = sdp._pseudo_inverse(b.T @ b)
    return y + b @ gram_solve(problem.cost @ r_tilde - y @ b)


def settle(dm: DataMatrix, constraint_set: str, propose):
    """Solve the SDP relaxation of `dm` under `constraint_set` and certify the
    candidate (Transform, cost) pairs that `propose(eigenvectors)` returns.

    Two stages, the second run only when the first's answer does not certify.
    The start stage stops the solve at its start point (tolerance 1.0), decomposes
    H at y0, for `propose` and for the bound there, and again at the least-norm y
    that annihilates the candidate (`_refine` from 0, since y0 knows nothing of the
    data). The strict stage solves the SDP afresh to `sdp.TOL` and decomposes H at
    the solver's y. Its first candidate comes from H's minimum eigenvector; when
    that leaves the answer uncertified, a second comes from the eigenvectors after
    it, so from H's second eigenvector. Each is refined from the solver's y, and
    the stage answers with the cheaper of its own candidates.

    Every bound holds for the global minimum, so the proof is the largest bound of
    both stages (the earliest of equal ones, the solver's y before the refined one)
    with its lambda_min. A strict solve that ends at the iteration cap or in a
    factorization breakdown still leaves a dual vector, which gives a valid, if
    weaker, bound.

    Returns (solution, theta, certificate): the solution of the stage that
    answered, and the answer, whose cost is `certificate.cost`. Shared by
    `calibrate` and `egocal certify`.
    """
    problem, scale = build_sdp_problem(dm, constraint_set)
    bounds = []

    def candidate(eigenvectors, start):
        """theta from `propose(eigenvectors)`, and its Certificate by the largest
        bound so far, with the bound at y refined against it from `start`."""
        theta, cost = propose(eigenvectors)
        refined = _refine(problem, start, qcqp.reduced_vector(theta.rotation.m))
        bounds.append(_dual_bound(problem, refined))
        proof = max(bounds, key=lambda bound: bound[0])  # the first of the largest
        return theta, Certificate(lower_bound=scale * proof[0], cost=cost, min_eig_h=proof[1],
                                  scale=scale)

    # The start stage. At tolerance 1.0 the solve stops at its start point: there the
    # residuals are zero to rounding and the gap <X0, S0> is below 1 + |pobj| + |dobj|.
    solution = sdp.solve(problem, tol=1.0)
    bounds.append(_dual_bound(problem, solution.multipliers))
    theta, certificate = candidate(bounds[-1][2], np.zeros_like(solution.multipliers))
    if not certificate.certified:  # the strict stage, a fresh solve from the interior start
        solution = sdp.solve(problem)
        bounds.append(_dual_bound(problem, solution.multipliers))
        eigenvectors = bounds[-1][2]
        theta, certificate = candidate(eigenvectors, solution.multipliers)
        if not certificate.certified:
            second, other = candidate(eigenvectors[:, 1:], solution.multipliers)
            # the proof counts the second candidate's bound whichever candidate answers
            theta, certificate = ((second, other) if other.cost < certificate.cost
                                  else (theta, replace(other, cost=certificate.cost)))
    return solution, theta, certificate


def calibrate(m: MeasurementSet, constraint_set: str = "r+c+h") -> CalibrationResult:
    """Certifiably globally optimal calibration from relative motion pairs.

    Pipeline: assemble the data matrix (which decides observability, raising
    SingularQtt on unobservable data, and keeps the report), solve the
    relaxation, extract the rotation from the dual slack and polish it on the
    reduced form, recover the translation in closed form, price the estimate
    and certify it against the proven dual bound (`settle`, which solves the
    SDP to the strict tolerance only when the start point's answer does not certify).
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


def _newton_terms(model: np.ndarray, r_tilde):
    """(f, g, H) of `_newton_model`'s stack at r_tilde = [vec R, 1] (a sequence of 10 floats),
    as Python floats (g a list of 3, H a list of 3 rows): two matrix-vector products."""
    r_tilde = np.array(r_tilde)
    terms = ((model @ r_tilde).reshape(13, 10) @ r_tilde).tolist()
    return terms[0], terms[1:4], [terms[4:7], terms[7:10], terms[10:13]]


def _turned(r_tilde, w) -> list:
    """[vec(R exp([w]x)), 1] for r_tilde = [vec R, 1], on Python floats: column j of
    R exp([w]x) is R's columns weighted by column j of exp([w]x)."""
    e = geom.exp_entries(*w)
    c0, c1, c2 = r_tilde[0:3], r_tilde[3:6], r_tilde[6:9]
    out = []
    for a, b, c in (e[0::3], e[1::3], e[2::3]):
        out += [c0[0] * a + c1[0] * b + c2[0] * c, c0[1] * a + c1[1] * b + c2[1] * c,
                c0[2] * a + c1[2] * b + c2[2] * c]
    out.append(1.0)
    return out


_THIRD_TURN = 2.0 * math.pi / 3.0
_SQRT6 = math.sqrt(6.0)


def _cofactors(a00, a11, a22, a10, a20, a21):
    """(C00, C10, C20, C11, C21, C22): the lower triangle of the adjugate of the symmetric
    3x3 [[a00, a10, a20], [a10, a11, a21], [a20, a21, a22]]."""
    return (a11 * a22 - a21 * a21, a21 * a20 - a10 * a22, a10 * a21 - a11 * a20,
            a00 * a22 - a20 * a20, a10 * a20 - a00 * a21, a00 * a11 - a10 * a10)


def _extreme_eigenvalues(h00, h11, h22, h10, h20, h21):
    """(lambda_min, lambda_max) of the symmetric 3x3 H, on Python floats, each within a small
    multiple of eps |H|.

    H = m I + p B with m = tr H / 3 and p = |H - m I|_F / sqrt 6, so that B has trace 0,
    |B|_F^2 = 6 and, by Smith's trigonometric formula (CACM 1961), the eigenvalues
    2 cos(phi - 2 pi k / 3) with cos(3 phi) = det B / 2. The arccos amplifies the rounding
    of det B by 1 / sqrt(1 - cos^2(3 phi)), so the formula is read directly only while
    |cos(3 phi)| < 0.99, that is while no two eigenvalues of B are within 0.16 of each
    other. Otherwise it is exact only for the eigenvalue farthest from the other two, the
    largest when det B >= 0, and loses up to sqrt(eps) of the nearly repeated pair, so
    the pair is deflated (Scherzinger and Dohrmann, CMAME 2008): that eigenvalue's unit
    eigenvector v is the best-conditioned column of adj(B - beta I), a multiple of v v^T
    at least 6 in size, and the pair is c +- |P (B - c I) P|_F / sqrt 2 for
    P = I - v v^T and c their mean.
    """
    mean = (h00 + h11 + h22) / 3.0
    d0, d1, d2 = h00 - mean, h11 - mean, h22 - mean
    p = math.hypot(d0, d1, d2, h10, h10, h20, h20, h21, h21) / _SQRT6  # hypot cannot underflow
    if p == 0.0:
        return mean, mean
    b00, b11, b22, b10, b20, b21 = d0 / p, d1 / p, d2 / p, h10 / p, h20 / p, h21 / p
    c00, c10, c20 = _cofactors(b00, b11, b22, b10, b20, b21)[:3]
    half_det = 0.5 * (b00 * c00 + b10 * c10 + b20 * c20)
    phi = math.acos(min(1.0, max(-1.0, half_det))) / 3.0
    if abs(half_det) < 0.99:
        return mean + 2.0 * p * math.cos(phi + _THIRD_TURN), mean + 2.0 * p * math.cos(phi)
    distinct = 2.0 * math.cos(phi if half_det >= 0.0 else phi + _THIRD_TURN)
    c00, c10, c20, c11, c21, c22 = _cofactors(b00 - distinct, b11 - distinct, b22 - distinct,
                                              b10, b20, b21)
    a0, a1, a2 = abs(c00), abs(c11), abs(c22)
    v0, v1, v2 = ((c00, c10, c20) if a0 >= a1 and a0 >= a2
                  else (c10, c11, c21) if a1 >= a2 else (c20, c21, c22))
    norm = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    v0, v1, v2 = v0 / norm, v1 / norm, v2 / norm
    centre = 0.5 * (b00 + b11 + b22 - distinct)
    e00, e11, e22 = b00 - centre, b11 - centre, b22 - centre
    z0 = e00 * v0 + b10 * v1 + b20 * v2  # z = (B - c I) v, s = v^T z
    z1 = b10 * v0 + e11 * v1 + b21 * v2
    z2 = b20 * v0 + b21 * v1 + e22 * v2
    s = v0 * z0 + v1 * z1 + v2 * z2
    # P (B - c I) P = (B - c I) - v z^T - z v^T + s v v^T
    f00 = e00 - v0 * (2.0 * z0 - s * v0)
    f11 = e11 - v1 * (2.0 * z1 - s * v1)
    f22 = e22 - v2 * (2.0 * z2 - s * v2)
    f10 = b10 - v1 * z0 - v0 * (z1 - s * v1)
    f20 = b20 - v2 * z0 - v0 * (z2 - s * v2)
    f21 = b21 - v2 * z1 - v1 * (z2 - s * v2)
    half_gap = math.sqrt(0.5 * (f00 * f00 + f11 * f11 + f22 * f22)
                         + f10 * f10 + f20 * f20 + f21 * f21)
    if half_det >= 0.0:
        return mean + p * (centre - half_gap), mean + p * distinct
    return mean + p * distinct, mean + p * (centre + half_gap)


def _damped_step(hess, grad, mu: float):
    """(w, mu, d) of one trial of `_polish`: w = -(H + mu I)^-1 g for the 3x3 symmetric H
    (its lower triangle is read) and the gradient g, where mu is raised to at least
    d - 2 lambda_min(H) and d = 1e-3 max|lambda(H)|; None when H is zero or not finite.

    In closed form on Python floats, with no LAPACK call. H, g and mu are first divided
    by the largest power of two s at most H's largest |entry|, so no product over- or
    underflows and the scaling itself rounds nothing. lambda_min and lambda_max are
    `_extreme_eigenvalues`', and the step is the adjugate of H + mu I applied to g over
    its determinant. H + mu I has its smallest eigenvalue at least d / 2, so the step is
    well conditioned.
    """
    (h00, _, _), (h10, h11, _), (h20, h21, h22) = hess
    biggest = max(abs(h00), abs(h10), abs(h11), abs(h20), abs(h21), abs(h22))
    if not 0.0 < biggest < math.inf or math.isnan(h00 + h10 + h11 + h20 + h21 + h22):
        return None
    scale = math.ldexp(1.0, math.frexp(biggest)[1] - 1)  # biggest / scale is in [1, 2)
    h00, h11, h22 = h00 / scale, h11 / scale, h22 / scale
    h10, h20, h21 = h10 / scale, h20 / scale, h21 / scale
    lowest, highest = _extreme_eigenvalues(h00, h11, h22, h10, h20, h21)
    damping = 1e-3 * max(-lowest, highest)
    shift = max(mu / scale, damping - 2.0 * lowest)
    a00, a11, a22 = h00 + shift, h11 + shift, h22 + shift
    c00, c10, c20, c11, c21, c22 = _cofactors(a00, a11, a22, h10, h20, h21)
    det = a00 * c00 + h10 * c10 + h20 * c20
    g0, g1, g2 = grad[0] / scale, grad[1] / scale, grad[2] / scale
    step = (-(c00 * g0 + c10 * g1 + c20 * g2) / det,
            -(c10 * g0 + c11 * g1 + c21 * g2) / det,
            -(c20 * g0 + c21 * g1 + c22 * g2) / det)
    return step, shift * scale, damping * scale


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
    sets mu to max(10 mu, d), a taken one to 0. The step, mu and d are computed
    in closed form (`_damped_step`), and the trial rotation on Python floats
    (`_turned`), so the polish calls no LAPACK routine.
    The polish ends when a refused step predicts a decrease below the rounding
    of f, eps * trace(q_tilde). That last step is still taken when it shrinks the
    gradient, compared by `math.hypot`, which does not overflow, and raises f by
    no more than that rounding: f resolves the rotation only to about
    sqrt(eps), the gradient to about eps, whatever the start's accuracy.
    """
    model = _newton_model(q_tilde)
    r_tilde = qcqp.reduced_vector(r).tolist()
    f, grad, hess = _newton_terms(model, r_tilde)
    resolution = _EPS * abs(q_tilde.trace())
    mu = 0.0
    for _ in range(POLISH_STEPS):
        damped = _damped_step(hess, grad, mu)
        if damped is None:
            break
        step, mu, damping = damped
        candidate = _turned(r_tilde, step)
        terms = _newton_terms(model, candidate)
        if terms[0] < f:
            r_tilde, (f, grad, hess), mu = candidate, terms, 0.0
        elif -0.5 * (grad[0] * step[0] + grad[1] * step[1] + grad[2] * step[2]) <= resolution:
            # f cannot tell this step from rounding, but its gradient can
            if terms[0] <= f + resolution and math.hypot(*terms[1]) < math.hypot(*grad):
                r_tilde = candidate
            break
        else:
            mu = max(10.0 * mu, damping)
    return np.array([r_tilde[0:9:3], r_tilde[1:9:3], r_tilde[2:9:3]])  # rows of R


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
