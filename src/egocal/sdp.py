"""Dense primal-dual interior-point solver for small equality-constrained SDPs.

Solves

    minimize    <C, X>
    subject to  <A_i, X> = b_i,  i = 1..m
                X >= 0 (PSD)

together with its dual

    maximize    b^T y
    subject to  S = C - sum_i y_i A_i >= 0,

using a path-following method with Nesterov-Todd scaling and Mehrotra's
predictor-corrector (Mehrotra, SIAM J. Optim. 1992; Todd, Toh & Tutuncu,
SIAM J. Optim. 1998, the NT direction of SDPT3). It starts at a problem's
known strictly feasible point (`SdpProblem.interior`; the calibration SDP's
is `qcqp.interior_point`), as feasible path-following methods do (Wright,
Primal-Dual Interior-Point Methods, SIAM 1997, ch. 5): with both residuals
zero at the start, every step keeps A(X) = b and S = C - sum_i y_i A_i to
rounding, and the iteration only has to close the gap. A problem with no
such point starts at the infeasible scaled identity, and the residual terms
of the same step drive it to feasibility.

The problems here have dimension <= 13 and at most 22 constraints, so all is
dense and the constraint operator is one (m, s*s) matrix. Each iteration
factors X and S once (one Cholesky pair and the inverse factors give W, S^-1
and all four step tests), builds the Schur matrix M = [<A_k, W A_l W>] once
and takes one eigendecomposition of it (M is symmetric PSD), whose
pseudo-inverse serves all three right-hand sides. The first two, the affine
predictor and the S^-1 part of the corrector, are solved together; the
corrector's right-hand side is affine in sigma*mu, and the centering weight
sigma comes from the predictor's step. The third carries the predictor's
second-order term. In the NT frame g, with W = g g^T and
g^-1 X g^-T = g^T S g = diag(sv), that term is T_c = -g Z g^T, where Z solves
diag(sv) Z + Z diag(sv) = P + P^T for P = (g^-1 dX_a g^-T)(g^T dS_a g):
Z_ij = (P + P^T)_ij / (sv_i + sv_j). The corrector's target for
dX + W dS W is sigma*mu*S^-1 - X + T_c. Keeping the term more than halves
the iteration count to 1e-9 (18 -> 8 in the median on those requests) at the
cost of one more solve per iteration.
The pseudo-inverse drops eigenvalues up to 1e-13 max|lambda| in magnitude,
gelsd's cutoff at rcond=1e-13. On 1024 two-motion-hard and 360 noise-sweep
requests it takes the same iteration counts as the SVD with that cutoff,
except on the one request that breaks down, which does so at iteration 20
instead of 23. 'r+c' and 'r+c+h' hold one exactly dependent constraint, but
that is not why a factorization without a cutoff is avoided: with it
dropped, a plain LU solve breaks down on about 20 of 256 two-motion
instances, 'r+h' (no dependency) included.

`solve` stops at a caller's tolerance. From a problem's interior point at
`tol=1.0` it stops at iteration 1, with no step: the residuals are zero there
and the gap is below 1 + |pobj| + |dobj|.

The caller contract: `solve` and `certify_lmi` check none of the arrays they
are given. `SdpProblem` states what those arrays must meet, and where the
calibration SDP's are made to meet it, once, so no request pays for a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import numerical

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iter"
STATUS_BREAKDOWN = "breakdown"

# The strict stopping tolerance of `solve`, on the relative primal and dual
# residuals and the relative complementarity gap.
TOL = 1e-9
# The iteration cap of one `solve`.
MAX_ITER = 100
_STEP_FRACTION = 0.98


@dataclass(frozen=True)
class SdpProblem:
    """The caller's float arrays, taken as they are: a finite, exactly symmetric s x s
    cost, m >= 1 symmetric s x s constraints, m right-hand sides and, optionally, a
    strictly feasible start. The calibration SDP's arrays meet this where they are
    made: `qcqp.assemble` refuses a non-finite q_tilde or trace and makes q_tilde
    exactly symmetric as 0.5 * (q_tilde + q_tilde^T), which `solver.build_sdp_problem`'s
    division by the trace keeps; the shapes, the rhs and the interior point come from
    the catalogs and `qcqp._build_interior`, fixed at import."""

    cost: np.ndarray          # s x s symmetric
    constraints: np.ndarray   # m x s x s, each symmetric
    rhs: np.ndarray           # m
    # A known strictly feasible (X0, y0): A(X0) = b, X0 > 0 and
    # cost - sum_i y0_i A_i > 0. `solve` starts there when given.
    interior: tuple | None = None

    @property
    def dim(self) -> int:
        return self.cost.shape[0]


@dataclass
class SdpSolution:
    """The last iterate of a solve and its `iterate_log`, one entry per iterate, the
    first logged as iteration 1. `iterations`, `kkt`, `primal_obj` and `dual_obj`
    read the log: its length, and the last entry's numbers as the loop computed them."""

    x_primal: np.ndarray
    multipliers: np.ndarray    # dual vector y
    status: str
    tolerance: float           # the stopping tolerance the solve was run to
    iterate_log: list

    @property
    def iterations(self) -> int:
        return len(self.iterate_log)

    @property
    def kkt(self) -> dict:
        return {key: self.iterate_log[-1][key]
                for key in ("primal_residual", "dual_residual", "complementarity")}

    @property
    def primal_obj(self) -> float:
        return self.iterate_log[-1]["primal_obj"]

    @property
    def dual_obj(self) -> float:
        return self.iterate_log[-1]["dual_obj"]


def norm(a: np.ndarray) -> float:
    """np.linalg.norm(a) by its own formula, the square root of the flat array's dot with
    itself, without its argument handling. The dot overflows to inf with numpy's warning."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _operator(a: np.ndarray):
    """A(X) = amat @ vec(X) and A^T y = (y @ amat).reshape(s, s), amat = a as (m, s*s)."""
    amat = a.reshape(len(a), -1)
    return (lambda x: amat @ x.ravel()), (lambda y: (y @ amat).reshape(a.shape[1:]))


def _schur(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Schur matrix <A_k, W A_l W>, symmetrized."""
    schur = a.reshape(len(a), -1) @ (w @ a @ w).reshape(len(a), -1).T
    return 0.5 * (schur + schur.T)


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """NT scaling of a PD pair (X, S) from its Cholesky factors X = Lx Lx^T, S = Ls Ls^T.

    With the SVD Ls^T Lx = U diag(sv) V^T, g = Lx V diag(sv)^-1/2 gives W = g g^T
    with W S W = X, and g^-1 X g^-T = g^T S g = diag(sv). Returns the stacked
    inverse Cholesky factors (Lx^-1, Ls^-1), g, g^-1 and sv.
    """
    chol = np.linalg.cholesky(np.stack([x, s]))
    inv_l = np.linalg.inv(chol)
    _, sv, vt = np.linalg.svd(chol[1].T @ chol[0])
    root = np.sqrt(sv)
    return inv_l, chol[0] @ vt.T / root, (root[:, None] * vt) @ inv_l[0], sv


def _pseudo_inverse(schur: np.ndarray):
    """y -> pinv(schur) @ y from one eigendecomposition of the symmetric Schur
    matrix, for every right-hand side of an iteration (and of `solver._refine`'s
    Gram matrix); eigenvalues up to 1e-13 max|lambda| in magnitude count as
    zero (the cutoff of gelsd at rcond=1e-13, since the singular values are the
    |lambda|). max|lambda| is read from the two ends of the ascending lambda."""
    lam, vec = np.linalg.eigh(schur)
    keep = abs(lam) > 1e-13 * max(-lam[0], lam[-1])
    left = vec[:, keep]
    right = left / lam[keep]
    return lambda rhs: right @ (left.T @ rhs)


def _max_steps(inv_chol: np.ndarray, d: np.ndarray) -> list:
    """Per stacked pair (L^-1, d) of an inverse Cholesky factor and a direction, the
    largest alpha <= 1 keeping L L^T + alpha*d PSD, with a safety fraction."""
    m = inv_chol @ d @ np.swapaxes(inv_chol, 1, 2)
    lam = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, 1, 2)))[:, 0]
    return [1.0 if v >= 0 else min(1.0, -_STEP_FRACTION / v) for v in lam]


def solve(p: SdpProblem, tol: float = TOL) -> SdpSolution:
    """Run the predictor-corrector iteration until the relative residuals and
    gap are below `tol`, from `p.interior` (else the scaled identity), logging
    the start as iteration 1. The returned iterate is the last one logged
    (`SdpSolution` reads its objectives, `kkt` residuals and `iterations` from
    `iterate_log`), and `tolerance` is `tol`. The stopping test is the only
    part of an iteration that reads `tol`, so a solve to a looser tolerance
    logs a prefix of the strict solve's iterates.

    Ends with status STATUS_OPTIMAL, STATUS_MAX_ITER after MAX_ITER
    iterations, or STATUS_BREAKDOWN when a factorization fails (LinAlgError);
    the last two return the last complete iterate, whose dual vector still
    gives a valid bound. There is no infeasibility exit: the calibration SDP is
    strictly feasible on both sides (`qcqp.interior_point`, where its solve
    starts), so a solve that does not converge ends as one of the last two.
    """
    s_dim = p.dim
    a, b, c = p.constraints, p.rhs, p.cost
    op, adj = _operator(a)

    if p.interior is not None:
        x, y = p.interior
        s = c - adj(y)
    else:
        scale = max(1.0, norm(c) / np.sqrt(s_dim))
        x, y, s = np.eye(s_dim), np.zeros(a.shape[0]), np.eye(s_dim) * scale
    log = []

    norm_b = 1.0 + norm(b)
    norm_c = 1.0 + norm(c)

    status = STATUS_MAX_ITER
    try:
        for it in range(1, MAX_ITER + 1):
            ax = op(x)
            rp = b - ax
            rd = c - adj(y) - s
            gap = float((x * s).sum())
            mu = gap / s_dim
            pobj = float((c * x).sum())
            dobj = float(b @ y)
            pres = norm(rp) / norm_b
            dres = norm(rd) / norm_c
            log.append(
                {
                    "iter": it,
                    "primal_obj": pobj,
                    "dual_obj": dobj,
                    "primal_residual": pres,
                    "dual_residual": dres,
                    "complementarity": gap,
                    "mu": mu,
                    "x_norm": norm(x),
                }
            )
            if pres < tol and dres < tol and gap < tol * (1.0 + abs(pobj) + abs(dobj)):
                status = STATUS_OPTIMAL
                break
            if it == MAX_ITER:  # return the last logged iterate, not one step past it
                break

            inv_l, g, g_inv, sv = _nt_scaling(x, s)
            w = g @ g.T
            s_inv = inv_l[1].T @ inv_l[1]

            # Schur right-hand side rp - A(T) + A(W rd W) for a target T of
            # dX + W dS W; the predictor's T is -X.
            schur_solve = _pseudo_inverse(_schur(a, w))
            cols = schur_solve(np.column_stack([rp + ax + op(w @ rd @ w), op(s_inv)]))

            def direction(target, dy):
                ds = rd - adj(dy)
                dx = target - w @ ds @ w
                return 0.5 * (dx + dx.T), 0.5 * (ds + ds.T)

            # Predictor (affine scaling) chooses the centering weight.
            dx_a, ds_a = direction(-x, cols[:, 0])
            ap, ad = _max_steps(inv_l, np.stack([dx_a, ds_a]))
            mu_aff = float(((x + ap * dx_a) * (s + ad * ds_a)).sum()) / s_dim
            sigma = max(min(1.0, max(mu_aff / mu, 0.0) ** 3), 1e-4)
            # Recenter instead of stalling when the affine step is blocked.
            if min(ap, ad) < 0.05:
                sigma = max(sigma, 0.5)

            # Corrector: the target sigma*mu*S^-1 - X + T_c adds the predictor's
            # second-order term T_c = -g Z g^T (see the module docstring).
            prod = (g_inv @ dx_a @ g_inv.T) @ (g.T @ ds_a @ g)
            t_c = -g @ ((prod + prod.T) / (sv[:, None] + sv)) @ g.T
            dy = cols[:, 0] - sigma * mu * cols[:, 1] - schur_solve(op(t_c))
            dx, ds = direction(sigma * mu * s_inv - x + t_c, dy)
            ap, ad = _max_steps(inv_l, np.stack([dx, ds]))
            x = 0.5 * ((x + ap * dx) + (x + ap * dx).T)
            y = y + ad * dy
            s = 0.5 * ((s + ad * ds) + (s + ad * ds).T)
    except np.linalg.LinAlgError:
        status = STATUS_BREAKDOWN

    return SdpSolution(x_primal=x, multipliers=y, status=status, tolerance=tol, iterate_log=log)


def certify_lmi(cost, constraints, multipliers):
    """Rebuild the dual slack H = cost - sum_i y_i A_i from float arrays and decompose it.

    Independent of solver internals: only the multipliers are consumed, so it
    serves any dual vector (the solver's, or one refined against a candidate).
    Returns np.linalg.eigh's pair (eigenvalues, eigenvectors), ascending, the
    eigenvectors as columns; unpack it by position (numpy 1 returns a plain
    tuple). A LAPACK failure raises NumericalFailure.
    """
    h = cost - (multipliers @ constraints.reshape(len(constraints), -1)).reshape(cost.shape)
    h = 0.5 * (h + h.T)
    with numerical("dual slack eigendecomposition"):
        return np.linalg.eigh(h)
