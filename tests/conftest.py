"""Shared fixtures and builders for the test suite."""

import numpy as np
import pytest

from egocal import geom, sdp, sim
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


def loose_two_motion_instance():
    """A two-motion-hard instance (quarter turns plus a 10 m translation
    perturbation) whose 'r' relaxation is not tight: every dual vector's bound
    stays well below the best cost, so it is never certified under 'r'."""
    axes = sim.fibonacci_sphere(16)
    return sim._perturb_instance(sim.two_motion_instance(), axes[8], np.pi / 2, axes[11], 10.0)


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


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def lmi_is_psd(cost, constraints, multipliers):
    """Whether `sdp.certify_lmi`'s minimum eigenvalue of H = cost - sum_i y_i A_i
    clears the margin -TOL * (1 + max|lambda|), with max|lambda| from H's spectrum."""
    min_eig = sdp.certify_lmi(cost, constraints, multipliers)["min_eig"]
    h = cost - np.einsum("k,kij->ij", multipliers, constraints)
    eigenvalues = np.linalg.eigvalsh(0.5 * (h + h.T))
    return min_eig > -sdp.TOL * (1.0 + np.abs(eigenvalues).max())
