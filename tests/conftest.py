"""Shared fixtures and builders for the test suite."""

import numpy as np
import pytest

from egocal import geom, qcqp, sdp, sim, solver
from egocal.problem import relative_motions_from_trajectories


def random_instance(seed, n_motions=50, sigma_r=0.0, sigma_t=0.0, amplitude=1.0):
    """Random observable instance: (measurements, true theta).

    Noise-free unless sigmas are given. Derives everything from a single
    seeded generator so instances are reproducible.
    """
    rng = np.random.default_rng([seed, 0])
    theta = geom.random_transform(rng, translation_scale=0.5)
    path = sim.generate_path(
        n_steps=n_motions + 1, amplitude=amplitude, seed=int(rng.integers(2**31))
    )
    poses_a, poses_b = sim.sensor_trajectories(path, theta)
    m = relative_motions_from_trajectories(poses_a, poses_b)
    if sigma_r > 0 or sigma_t > 0:
        m = sim.corrupt(m, sim.NoiseModel(sigma_r, sigma_t, seed=int(rng.integers(2**31))))
    return m, theta


def two_motion_hard_instance(i, j):
    """The two-motion-hard instance with a quarter turn about fibonacci_sphere(16)[i]
    and a 10 m translation perturbation along fibonacci_sphere(16)[j]."""
    axes = sim.fibonacci_sphere(16)
    return sim._perturb_instance(sim.two_motion_instance(), axes[i], np.pi / 2, axes[j], 10.0)


def loose_two_motion_instance():
    """A two-motion-hard instance (quarter turns plus a 10 m translation
    perturbation) whose 'r' relaxation is not tight: every dual vector's bound
    stays well below the best cost, so it is never certified under 'r'."""
    return two_motion_hard_instance(8, 11)


def brute_force_minimum(q_tilde, rng, samples=30_000, polished=10):
    """An upper bound on min f(R) = r_tilde^T q_tilde r_tilde over SO(3), found
    without the SDP: f at `samples` Haar-random rotations (normalized Gaussian
    quaternions) in one einsum, the `polished` least of them polished by
    `solver._polish`, and the least f of those."""
    q = rng.normal(size=(samples, 4))
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    # vec(R) column-major, then the homogenizer 1
    lifted = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y),
                       2 * (x * y - w * z), 1 - 2 * (x * x + z * z), 2 * (y * z + w * x),
                       2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y),
                       np.ones(samples)], axis=1)
    f = np.einsum("ki,ij,kj->k", lifted, q_tilde, lifted)
    costs = []
    for k in np.argsort(f)[:polished]:
        r_tilde = qcqp.reduced_vector(solver._polish(q_tilde, lifted[k, :9].reshape(3, 3, order="F")))
        costs.append(r_tilde @ q_tilde @ r_tilde)
    return min(costs)


def assert_below_brute_force(result, q_tilde, oracle):
    """The two checks any rotation's cost `oracle` allows on a calibrate `result`:
    its proven bound is no higher (to the rounding of 1e-12 tr q_tilde that
    `_dual_bound`'s margin covers), and a certified cost exceeds it by no more
    than the verdict's slack."""
    scale = float(np.trace(q_tilde))
    assert result.certificate.lower_bound <= oracle + 1e-12 * scale
    if result.certificate.certified:
        assert result.cost <= oracle + solver.GAP_COST * result.cost + solver.GAP_TRACE * scale


def constructed_sdp(rng, s=6, m=4, rank=2):
    """Random SDP with a known optimum from a complementary (X*, S*) pair.

    X* and S* share an eigenbasis with disjoint support, so X*S* = 0. With
    cost C = S* + sum_i y*_i A_i and b_i = <A_i, X*>, the pair (X*, y*) is
    primal-dual optimal and the optimal value is <C, X*>.
    """
    from egocal.sdp import SdpProblem

    q, _ = np.linalg.qr(rng.standard_normal((s, s)))
    x_eigs = np.zeros(s)
    x_eigs[:rank] = rng.uniform(0.5, 2.0, rank)
    s_eigs = np.zeros(s)
    s_eigs[rank:] = rng.uniform(0.5, 2.0, s - rank)
    x_star = q @ np.diag(x_eigs) @ q.T
    s_star = q @ np.diag(s_eigs) @ q.T
    a = np.empty((m, s, s))
    for i in range(m):
        g = rng.standard_normal((s, s))
        a[i] = 0.5 * (g + g.T)
    y_star = rng.standard_normal(m)
    c = s_star + np.einsum("k,kij->ij", y_star, a)
    b = np.einsum("kij,ij->k", a, x_star)
    problem = SdpProblem(cost=c, constraints=a, rhs=b)
    return problem, float(np.sum(c * x_star)), x_star


def candidate_stage(m, kind="r+c+h"):
    """A stage as `solver.settle` runs one, at a dual vector a few interior-point steps
    from the start: the data matrix, the trace-normalized problem and its scale, the
    dual vector y of the SDP solved to 1e-4, and the rotation extracted from H(y)."""
    dm = qcqp.assemble(m)
    problem, scale = solver.build_sdp_problem(dm, kind)
    y = sdp.solve(problem, tol=1e-4).multipliers
    eigenvectors = sdp.certify_lmi(problem.cost, problem.constraints, y)[1]
    return dm, problem, scale, y, solver.extract_solution(eigenvectors)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def lmi_is_psd(cost, constraints, multipliers):
    """Whether the minimum eigenvalue of H = cost - sum_i y_i A_i, from `sdp.certify_lmi`'s
    spectrum, clears the margin -TOL * (1 + max|lambda|)."""
    eigenvalues = sdp.certify_lmi(cost, constraints, multipliers)[0]
    return eigenvalues[0] > -sdp.TOL * (1.0 + np.abs(eigenvalues).max())
