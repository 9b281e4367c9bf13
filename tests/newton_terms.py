"""The polish's Newton terms from their explicit formulas, a test oracle for `solver._newton_model`,
and its damped step from `np.linalg.eigh`, an oracle for `solver._damped_step`.

`_polish` never evaluates these formulas: it reads f, g and H as quadratic forms
in r_tilde = [vec R, 1] from a stack built once from q_tilde. The tests check
that stack against the formulas at arbitrary rotations.
"""

import numpy as np

from egocal import geom

# The generators [e_k]x of so(3), stacked over k.
_GENERATORS = np.stack([geom.skew(e) for e in np.eye(3)])


def newton_terms(q_tilde: np.ndarray, r: np.ndarray):
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


def eigh_step(hess, grad, mu: float):
    """(w, mu, d) of one polish trial from `np.linalg.eigh`: d = 1e-3 max|lambda(H)|,
    mu raised to d - 2 lambda_min(H) and w = -(H + mu I)^-1 g, an oracle for
    `solver._damped_step`."""
    eigvals, eigvecs = np.linalg.eigh(np.asarray(hess, dtype=float))
    damping = 1e-3 * max(-eigvals[0], eigvals[-1])
    mu = max(mu, damping - 2.0 * eigvals[0])
    step = -eigvecs @ ((eigvecs.T @ np.asarray(grad, dtype=float)) / (eigvals + mu))
    return step, mu, damping
