from dataclasses import fields, replace

import numpy as np
import pytest

import qcqp_blocks
from conftest import random_instance
from egocal import geom, problem, qcqp, sim
from egocal.errors import NumericalFailure, SingularQtt, TooShort
from egocal.problem import MeasurementSet


def test_rotation_block_identity_pair_is_zero():
    assert np.allclose(qcqp_blocks.rotation_block(np.eye(3), np.eye(3)), 0.0)


def test_rotation_block_annihilates_identity_calibration():
    # R_a = R_b means the identity calibration has zero rotation residual
    rng = np.random.default_rng(1)
    r = geom.random_rotation(rng).m
    block = qcqp_blocks.rotation_block(r, r)
    assert np.linalg.norm(block @ np.eye(3).reshape(9, order="F")) < 1e-12


def test_rotation_block_vec_identity():
    # vec(R R_a - R_b R) = M_r vec(R), the defining property of the block
    rng = np.random.default_rng(2)
    ra, rb = geom.random_rotation(rng).m, geom.random_rotation(rng).m
    block = qcqp_blocks.rotation_block(ra, rb)
    for _ in range(100):
        r = geom.random_rotation(rng).m
        direct = (r @ ra - rb @ r).reshape(9, order="F")
        assert np.linalg.norm(block @ r.reshape(9, order="F") - direct) < 1e-12


def test_translation_block_identity_pair_is_zero():
    assert np.allclose(qcqp_blocks.translation_block(np.zeros(3), np.eye(3), np.zeros(3)), 0.0)


def test_translation_block_residual_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ta, tb = rng.normal(scale=0.7, size=(2, 3))
        rb = geom.random_rotation(rng).m
        theta = geom.random_transform(rng)
        x = qcqp_blocks.full_vector(theta.translation, theta.rotation.m)
        direct = theta.rotation.m @ ta + theta.translation - rb @ theta.translation - tb
        assert np.linalg.norm(qcqp_blocks.translation_block(ta, rb, tb) @ x - direct) < 1e-12


def test_assemble_requires_two_motions():
    m, _ = random_instance(4, n_motions=5)
    one = MeasurementSet(**{f.name: getattr(m, f.name)[:1] for f in fields(m)})
    with pytest.raises(TooShort):
        qcqp.assemble(one)


def test_assemble_identity_measurements_singular():
    r, t = np.tile(np.eye(3), (2, 1, 1)), np.zeros((2, 3))
    with pytest.raises(SingularQtt):
        qcqp.assemble(MeasurementSet(r, r, t, t, np.ones(2), np.ones(2)))


def test_assemble_single_axis_singular():
    # all sensor-b rotations about z leaves I - R_b singular along z
    r = [geom.rotation_about(np.array([0.0, 0.0, 1.0]), angle) for angle in (0.4, 0.9, 1.3)]
    t = np.tile([1.0, 0.0, 0.0], (3, 1))
    with pytest.raises(SingularQtt):
        qcqp.assemble(MeasurementSet(r, r, t, t, np.ones(3), np.ones(3)))


def test_assemble_noise_free_optimum_has_zero_cost():
    m, theta = random_instance(5, n_motions=20)
    dm = qcqp.assemble(m)
    x = qcqp_blocks.full_vector(theta.translation, theta.rotation.m)
    assert float(x @ dm.q @ x) < 1e-18


def test_assemble_psd_and_symmetric():
    m, _ = random_instance(6, n_motions=20, sigma_r=0.05, sigma_t=0.05)
    dm = qcqp.assemble(m)
    assert np.linalg.norm(dm.q - dm.q.T) < 1e-12
    assert np.linalg.norm(dm.q_tilde - dm.q_tilde.T) < 1e-12
    assert np.linalg.eigvalsh(dm.q)[0] > -1e-9 * np.linalg.norm(dm.q)
    assert np.linalg.eigvalsh(dm.q_tilde)[0] > -1e-9 * np.linalg.norm(dm.q_tilde)


def test_assemble_additive_over_concatenation():
    m1, _ = random_instance(7, n_motions=5, sigma_r=0.02, sigma_t=0.02)
    m2, _ = random_instance(8, n_motions=5, sigma_r=0.02, sigma_t=0.02)
    joint = MeasurementSet(
        **{f.name: np.concatenate([getattr(m1, f.name), getattr(m2, f.name)]) for f in fields(m1)}
    )
    lhs = qcqp.assemble(joint).q
    rhs = qcqp.assemble(m1).q + qcqp.assemble(m2).q
    assert np.linalg.norm(lhs - rhs) < 1e-10 * (1 + np.linalg.norm(lhs))


def test_assemble_weight_scaling():
    m, _ = random_instance(9, n_motions=5, sigma_r=0.02, sigma_t=0.02)
    scaled = replace(m, kappa=3.0 * m.kappa, tau=3.0 * m.tau)
    assert np.allclose(qcqp.assemble(scaled).q, 3.0 * qcqp.assemble(m).q)


def _sum_of_per_pair_grams(m):
    q = np.zeros((qcqp.DIM_FULL, qcqp.DIM_FULL))
    for i in range(m.n):
        mr = qcqp_blocks.rotation_block(m.ra[i], m.rb[i])
        q[3:12, 3:12] += m.kappa[i] * (mr.T @ mr)
        mt = qcqp_blocks.translation_block(m.ta[i], m.rb[i], m.tb[i])
        q += m.tau[i] * (mt.T @ mt)
    return 0.5 * (q + q.T)


def test_assemble_equals_sum_of_per_pair_grams():
    # The moment form sums in another order than a per-pair loop, so it matches
    # the loop to rounding, not bit for bit. Exact order no longer matters: an
    # interior-point breakdown on a borderline instance is answered NotCertified
    # rather than raised, so a last-bit change of q cannot turn an answer into
    # an error.
    rng = np.random.default_rng(25)
    m, _ = random_instance(25, n_motions=12, sigma_r=0.05, sigma_t=0.05)
    m = replace(m, kappa=rng.uniform(0.1, 5.0, m.n), tau=rng.uniform(0.1, 5.0, m.n))
    loop = _sum_of_per_pair_grams(m)
    assert np.max(np.abs(qcqp.assemble(m).q - loop)) <= 1e-14 * np.max(np.abs(loop))


def test_assemble_does_not_assume_orthonormal_rotations():
    # Rotations off SO(3) by up to geom.ROTATION_TOL are accepted; the moment
    # form must still give the per-pair sum to rounding, far inside that drift.
    rng = np.random.default_rng(27)
    m, _ = random_instance(27, n_motions=12, sigma_r=0.05, sigma_t=0.05)
    ra, rb = (r + 1e-10 * rng.uniform(-1.0, 1.0, r.shape) for r in (m.ra, m.rb))
    m = replace(m, ra=ra, rb=rb)
    assert np.max(geom.rotation_defects(np.concatenate([m.ra, m.rb]))[0]) > 1e-10
    loop = _sum_of_per_pair_grams(m)
    assert np.max(np.abs(qcqp.assemble(m).q - loop)) <= 1e-14 * np.max(np.abs(loop))


@pytest.mark.parametrize("n", [2, 129, 1000])
def test_assemble_q_tt_is_the_observability_matrix(n):
    # assemble decides observability on its own q_tt, which is translation_gram(m).
    m, _ = random_instance(26, n_motions=n, sigma_r=0.01, sigma_t=0.01)
    rng = np.random.default_rng(26)
    m = replace(m, kappa=rng.uniform(0.1, 5.0, n), tau=rng.uniform(0.1, 5.0, n))
    assert np.array_equal(qcqp.assemble(m).q_tt, problem.translation_gram(m))


@pytest.mark.parametrize("n", [10, 50, 1000])
@pytest.mark.parametrize("sigma", [0.01, 0.05, 0.1])
def test_assemble_is_the_einsum_sums_bit_for_bit(n, sigma):
    # the traces and broadcast products of assemble round as the einsums do, at any weight scale
    m = sim.terrain_instance(np.random.default_rng([26, n]), n, sigma, sigma)[3]
    for weight in (1e-12, 1.0, 1e200):
        scaled = replace(m, kappa=weight * m.kappa, tau=weight * m.tau)
        assert np.array_equal(qcqp.assemble(scaled).q, qcqp_blocks.einsum_data_matrix(scaled))


def test_assemble_refuses_a_non_finite_data_matrix():
    # tau = 1e305 with |t_b| near 1e3 overflows sum tau |t_b|^2 while q_tt stays
    # finite and observable: refused by the finiteness check, naming the weights
    m, _ = random_instance(3, n_motions=10)
    m = replace(m, tau=np.full(m.n, 1e305), tb=1e3 * m.tb)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isfinite(problem.translation_gram(m)))
        with pytest.raises(NumericalFailure, match="kappa and tau overflow"):
            qcqp.assemble(m)


def test_schur_complement_is_partial_minimum_over_t():
    # r_tilde^T q_tilde r_tilde must equal min over t of x^T q x (normal equations)
    m, _ = random_instance(10, n_motions=15, sigma_r=0.05, sigma_t=0.05)
    dm = qcqp.assemble(m)
    rng = np.random.default_rng(11)
    for _ in range(20):
        r = geom.random_rotation(rng).m
        r_tilde = qcqp.reduced_vector(r)
        reduced = float(r_tilde @ dm.q_tilde @ r_tilde)
        t_star = np.linalg.solve(dm.q_tt, -dm.q[:3, 3:] @ r_tilde)
        x = np.concatenate([t_star, r_tilde])
        full = float(x @ dm.q @ x)
        assert abs(reduced - full) < 1e-10 * (1 + abs(full))
        # any other t is worse
        x_other = np.concatenate([t_star + rng.normal(size=3), r_tilde])
        assert float(x_other @ dm.q @ x_other) >= full - 1e-12


def test_reduced_vector_layout():
    r = geom.random_rotation(12).m
    v = qcqp.reduced_vector(r)
    assert v.shape == (10,)
    assert v[qcqp.Y_INDEX] == 1.0
    assert np.allclose(v[:9].reshape(3, 3, order="F"), r)


def test_constraint_counts():
    expected = {"r": 6, "r+c": 12, "r+h": 15, "r+c+h": 21}
    for kind, count in expected.items():
        assert len(qcqp.constraint_catalog(kind)) - 1 == count


def test_constraint_catalog_built_once_read_only():
    cs = qcqp.constraint_catalog("r+c+h")
    assert qcqp.constraint_catalog("R+C+H") is cs
    assert np.array_equal(cs[-1], qcqp.homogenizer())
    assert not cs.flags.writeable


def test_constraint_catalog_rejects_unknown_kind():
    with pytest.raises(ValueError):
        qcqp.constraint_catalog("r+x")


def test_constraints_vanish_on_rotations():
    cs = qcqp.constraint_catalog("r+c+h")
    rng = np.random.default_rng(13)
    for _ in range(1000):
        y = 1.0 if rng.random() < 0.5 else -1.0
        r = geom.random_rotation(rng).m
        v = qcqp.reduced_vector(r) * y  # y = -1 flips the whole vector
        for a in cs[:-1]:
            assert abs(v @ a @ v) < 1e-12
        assert abs(v @ cs[-1] @ v - 1.0) < 1e-12


def test_constraints_symmetric():
    cs = qcqp.constraint_catalog("r+c+h")
    for a in cs:
        assert np.linalg.norm(a - a.T) < 1e-15


def test_handedness_detects_reflection():
    # orthonormal rows with det = -1 pass all orthogonality constraints but
    # violate at least one handedness constraint
    reflection = np.diag([1.0, 1.0, -1.0])
    v = np.empty(10)
    v[:9] = reflection.reshape(9, order="F")
    v[9] = 1.0
    ortho = qcqp.constraint_catalog("r+c")
    for a in ortho[:-1]:
        assert abs(v @ a @ v) < 1e-12
    handed = qcqp.constraint_catalog("r+c+h")
    violations = [abs(v @ a @ v) for a in handed[12:-1]]
    assert max(violations) > 0.5


def test_orthogonality_gram_rank():
    # The 12 row+column orthogonality matrices span an 11-dimensional space:
    # the sums of the two diagonal triples are the same matrix (both equal
    # sum_ij R_ij^2 - 3 y^2), which is the single linear dependency.
    cs = qcqp.constraint_catalog("r+c")
    flat = cs[:-1].reshape(len(cs) - 1, -1)
    assert np.linalg.matrix_rank(flat, tol=1e-10) == 11
    diag_rows = flat[0] + flat[3] + flat[5]       # (0,0), (1,1), (2,2) of R R^T
    diag_cols = flat[6] + flat[9] + flat[11]      # (0,0), (1,1), (2,2) of R^T R
    assert np.linalg.norm(diag_rows - diag_cols) < 1e-14
    # removing one diagonal matrix leaves an independent set
    keep = [i for i in range(12) if i != 11]
    assert np.linalg.matrix_rank(flat[keep], tol=1e-10) == 11


def test_full_catalog_gram_rank():
    cs = qcqp.constraint_catalog("r+c+h")
    flat = cs[:-1].reshape(len(cs) - 1, -1)
    assert np.linalg.matrix_rank(flat, tol=1e-10) == 20


@pytest.mark.parametrize("kind", qcqp.CONSTRAINT_KINDS)
def test_interior_point_is_strictly_feasible(kind):
    # A(X0) = b to rounding with X0 > 0, and S0 = C - sum_i y0_i A_i = C + a I > 0
    # for the trace-normalized cost of a noisy instance.
    cs = qcqp.constraint_catalog(kind)
    x0, y0 = qcqp.interior_point(kind)
    assert not x0.flags.writeable and not y0.flags.writeable
    rhs = np.zeros(len(cs))
    rhs[-1] = 1.0
    assert np.abs(np.einsum("kij,ij->k", cs, x0) - rhs).max() < 1e-15
    assert np.linalg.eigvalsh(x0)[0] > 0.3
    m, _ = random_instance(8, n_motions=20, sigma_r=0.05, sigma_t=0.05)
    q_tilde = qcqp.assemble(m).q_tilde
    c = q_tilde / np.trace(q_tilde)
    s0 = c - np.einsum("k,kij->ij", y0, cs)
    alpha = qcqp.INTERIOR_MARGIN
    assert np.abs(s0 - (c + alpha * np.eye(qcqp.DIM_REDUCED))).max() < 1e-15
    assert np.linalg.eigvalsh(s0)[0] > 0.99 * alpha
