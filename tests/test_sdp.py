import warnings

import numpy as np
import pytest

from conftest import constructed_sdp, lmi_is_psd, random_instance
from egocal import qcqp, sdp, sim, solver
from egocal.sdp import SdpProblem


@pytest.mark.parametrize("shape", [(22,), (10, 10), (3, 4, 5)])
def test_norm_is_numpys_norm_bit_for_bit(shape):
    # numpy sums the flat array in memory order, so F-ordered and strided arrays too
    rng = np.random.default_rng(len(shape))
    for a in (rng.normal(size=shape), np.asfortranarray(rng.normal(size=shape)),
              rng.normal(size=shape + (2,))[..., 0], np.zeros(shape)):
        assert sdp.norm(a).hex() == float(np.linalg.norm(a)).hex()


def test_norm_overflows_to_inf_as_numpy_does():
    # a squared norm past the float range is inf, without a warning under the caller's errstate
    a = np.array([1e200, -3e154, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            assert sdp.norm(a) == np.linalg.norm(a) == np.inf


def test_problem_validation():
    with pytest.raises(ValueError):
        SdpProblem(cost=np.eye(2), constraints=np.zeros((0, 2, 2)), rhs=np.zeros(0))
    with pytest.raises(ValueError):
        asym = np.array([[0.0, 1.0], [0.0, 0.0]])
        SdpProblem(cost=asym, constraints=np.eye(2)[None], rhs=np.ones(1))
    with pytest.raises(ValueError):
        SdpProblem(cost=np.eye(2), constraints=np.eye(3)[None], rhs=np.ones(1))


def test_problem_refuses_a_nan_cost():
    # a NaN entry makes the symmetry test's comparison false, not true
    cost = np.eye(2)
    cost[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SdpProblem(cost=cost, constraints=np.eye(2)[None], rhs=np.ones(1))


@pytest.mark.parametrize("entries", [[(0, 1)], [(0, 1), (1, 0)], [(1, 1)]],
                         ids=["one-off-diagonal", "symmetric-pair", "diagonal"])
def test_problem_refuses_an_infinite_cost_without_a_warning(entries):
    # a lone inf makes |c - c^T| and its bound both inf, so the symmetry
    # comparison alone holds; a symmetric or diagonal one subtracts inf - inf
    cost = np.eye(10)
    for entry in entries:
        cost[entry] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            SdpProblem(cost=cost, constraints=np.eye(10)[None], rhs=np.ones(1))


def test_matrix_form_operator_matches_einsum():
    m, _ = random_instance(4, n_motions=20)
    problem, _ = solver.build_sdp_problem(qcqp.assemble(m), "r+c+h")
    a = problem.constraints
    rng = np.random.default_rng(24)
    g = rng.standard_normal((problem.dim, problem.dim))
    w = g @ g.T + 0.1 * np.eye(problem.dim)  # random SPD scaling
    x = rng.standard_normal((problem.dim, problem.dim))
    y = rng.standard_normal(a.shape[0])
    op, adj = sdp._operator(a)

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    assert close(op(x), np.einsum("kij,ij->k", a, x))
    assert close(adj(y), np.einsum("k,kij->ij", y, a))
    schur = np.einsum("kij,lij->kl", a, np.einsum("ij,kjl,lm->kim", w, a, w))
    assert close(sdp._schur(a, w), 0.5 * (schur + schur.T))


def test_nt_scaling_diagonalizes_both_factors():
    # g^-1 X g^-T = g^T S g = diag(sv): the frame in which the corrector's
    # Lyapunov equation is diagonal.
    rng = np.random.default_rng(25)
    for _ in range(5):
        x, s = (f @ f.T + 0.1 * np.eye(10) for f in rng.standard_normal((2, 10, 10)))
        _, g, g_inv, sv = sdp._nt_scaling(x, s)
        assert np.linalg.norm(g_inv @ g - np.eye(10)) <= 1e-12 * np.linalg.cond(g)
        for scaled in (g_inv @ x @ g_inv.T, g.T @ s @ g):
            assert np.linalg.norm(scaled - np.diag(sv)) <= 1e-12 * np.linalg.norm(sv)


def test_calibrate_iteration_budget():
    # All 30 of these 50-motion requests certify on the start rung (tolerance
    # 1.0: the start point, iteration 1, no step). A 1000-motion request at
    # sigma 0.05 does not: it certifies at the strict tolerance after 8
    # interior-point steps, 9 iterates counting the start as iteration 1.
    for i in range(30):
        sigma = (0.01, 0.05, 0.1)[i % 3]
        m = sim.terrain_instance(np.random.default_rng([i, 50]), 50, sigma, sigma)[3]
        stats = solver.calibrate(m).solve_stats
        assert (stats["sdp_tolerance"], stats["sdp_iters"]) == (1.0, 1)
    m = sim.terrain_instance(np.random.default_rng([0, 1000]), 1000, 0.05, 0.05)[3]
    result = solver.calibrate(m)
    assert result.certificate.certified
    stats = result.solve_stats
    assert (stats["sdp_tolerance"], stats["sdp_iters"]) == (sdp.TOL, 9)


def test_trivial_eigenvalue_problem():
    # min tr(diag(1,2) X) s.t. tr(X) = 1 picks out the smallest eigenvalue
    p = SdpProblem(cost=np.diag([1.0, 2.0]), constraints=np.eye(2)[None], rhs=np.ones(1))
    sol = sdp.solve(p)
    assert sol.status == sdp.STATUS_OPTIMAL
    assert abs(sol.primal_obj - 1.0) < 1e-8
    assert np.linalg.norm(sol.x_primal - np.diag([1.0, 0.0])) < 1e-6


def test_calibration_problem_noise_free():
    m, theta = random_instance(1, n_motions=20)
    dm = qcqp.assemble(m)
    problem, _ = solver.build_sdp_problem(dm, "r+c+h")
    sol = sdp.solve(problem)
    assert sol.status == sdp.STATUS_OPTIMAL
    assert sol.primal_obj < 1e-8
    eigs = np.linalg.eigvalsh(sol.x_primal)
    assert eigs[-2] / eigs[-1] < 1e-6  # numerically rank one
    # the dominant eigenvector is the lifted true rotation (up to sign)
    v = np.linalg.eigh(sol.x_primal)[1][:, -1]
    v = v / v[qcqp.Y_INDEX]
    truth = qcqp.reduced_vector(theta.rotation.m, 1.0)
    assert np.linalg.norm(v - truth) < 1e-3


def test_constructed_optima():
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng([17, k])
        p, obj, _ = constructed_sdp(rng)
        sol = sdp.solve(p)
        assert sol.status == sdp.STATUS_OPTIMAL
        worst = max(worst, abs(sol.primal_obj - obj))
    assert worst < 1e-7


def test_a_blocked_predictor_step_recenters(monkeypatch):
    # A predictor step shorter than 0.05 raises the centering weight to at least
    # 0.5. No request here blocks one, so the first predictor's primal step is
    # reported as 0.01: from that step alone sigma would be about 0.016 and
    # the next iterate's mu about a tenth of the first's (0.71 of 6.8), and
    # recentered it is about a quarter. The solve still reaches the optimum.
    p, obj, _ = constructed_sdp(np.random.default_rng([100, 0]))
    max_steps, calls = sdp._max_steps, []

    def blocked_first_predictor(inv_chol, d):
        calls.append(d)
        steps = max_steps(inv_chol, d)
        return [0.01, steps[1]] if len(calls) == 1 else steps

    monkeypatch.setattr(sdp, "_max_steps", blocked_first_predictor)
    sol = sdp.solve(p)
    assert sol.status == sdp.STATUS_OPTIMAL and abs(sol.primal_obj - obj) < 1e-7
    mu = [entry["mu"] for entry in sol.iterate_log]
    assert mu[1] > 0.2 * mu[0]


def test_weak_duality_on_feasible_iterates():
    # p - d = <S, X> + <Rd, X> >= -||Rd|| ||X||, so the slack must account for
    # the residual norm; with that slack weak duality holds on every iterate
    # where both residuals are below tolerance.
    for k in range(20):
        rng = np.random.default_rng([18, k])
        p, _, _ = constructed_sdp(rng)
        norm_c = 1.0 + np.linalg.norm(p.cost)
        sol = sdp.solve(p)
        for it in sol.iterate_log:
            if it["primal_residual"] < 1e-9 and it["dual_residual"] < 1e-9:
                slack = it["dual_residual"] * norm_c * it["x_norm"]
                slack += 1e-9 * (1.0 + abs(it["primal_obj"]))
                assert it["primal_obj"] >= it["dual_obj"] - slack


def test_final_kkt_residuals():
    rng = np.random.default_rng(19)
    p, _, _ = constructed_sdp(rng)
    sol = sdp.solve(p)
    assert sol.kkt["primal_residual"] < 1e-9
    assert sol.kkt["dual_residual"] < 1e-9
    assert sol.kkt["complementarity"] < 1e-7
    eigs = np.linalg.eigvalsh(sol.x_primal)
    assert eigs[0] > -1e-8 * (1.0 + np.linalg.norm(sol.x_primal))


def test_solver_deterministic():
    rng = np.random.default_rng(20)
    p, _, _ = constructed_sdp(rng)
    a = sdp.solve(p)
    b = sdp.solve(p)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x_primal, b.x_primal)
    assert np.array_equal(a.multipliers, b.multipliers)


def test_scale_invariance():
    rng = np.random.default_rng(21)
    p, obj, _ = constructed_sdp(rng)
    scaled = SdpProblem(cost=10.0 * p.cost, constraints=p.constraints, rhs=p.rhs)
    sol = sdp.solve(p)
    sol10 = sdp.solve(scaled)
    assert abs(sol10.primal_obj - 10.0 * sol.primal_obj) < 1e-5 * (1 + abs(obj))
    a = lmi_is_psd(p.cost, p.constraints, sol.multipliers)
    b = lmi_is_psd(scaled.cost, scaled.constraints, sol10.multipliers)
    assert a == b


def test_a_looser_solve_logs_a_prefix_of_the_strict_one():
    # The calibration SDP of every constraint set starts at its interior
    # point, the constructed SDPs at the scaled identity.
    m = sim.terrain_instance(np.random.default_rng([3, 50]), 50, 0.05, 0.05)[3]
    dm = qcqp.assemble(m)
    calibrations = [solver.build_sdp_problem(dm, kind)[0] for kind in qcqp.CONSTRAINT_KINDS]
    problems = [constructed_sdp(np.random.default_rng([26, k]))[0] for k in range(5)]
    for p in [*calibrations, *problems]:
        strict = sdp.solve(p)
        loose = sdp.solve(p, tol=1e-4)
        assert loose.status == sdp.STATUS_OPTIMAL and loose.iterations < strict.iterations
        assert [it["iter"] for it in strict.iterate_log] == list(range(1, strict.iterations + 1))
        assert strict.iterate_log[: loose.iterations] == loose.iterate_log


def test_solve_starts_at_the_interior_point_else_at_the_scaled_identity():
    m = sim.terrain_instance(np.random.default_rng([4, 50]), 50, 0.05, 0.05)[3]
    dm = qcqp.assemble(m)
    for kind in qcqp.CONSTRAINT_KINDS:
        p, _ = solver.build_sdp_problem(dm, kind)
        x0, y0 = qcqp.interior_point(kind)
        assert p.interior[0] is x0 and p.interior[1] is y0
        first = sdp.solve(p).iterate_log[0]
        assert first["iter"] == 1 and first["x_norm"] == np.linalg.norm(x0)
        assert first["primal_residual"] < 1e-15
    p, _, _ = constructed_sdp(np.random.default_rng(28))
    assert p.interior is None
    first = sdp.solve(p).iterate_log[0]
    assert first["iter"] == 1 and first["x_norm"] == np.linalg.norm(np.eye(p.dim))


def test_problem_validation_checks_the_interior_point_shape():
    a, b = np.eye(2)[None], np.ones(1)
    with pytest.raises(ValueError, match="interior point"):
        SdpProblem(cost=np.eye(2), constraints=a, rhs=b, interior=(np.eye(3), np.zeros(1)))
    with pytest.raises(ValueError, match="interior point"):
        SdpProblem(cost=np.eye(2), constraints=a, rhs=b, interior=(np.eye(2), np.zeros(2)))


def test_pseudo_inverse_matches_the_svd_on_a_rank_deficient_schur_matrix():
    # 'r+c+h' holds one exactly dependent constraint, so every Schur matrix
    # of it is singular; the eigh pseudo-inverse drops that direction as the
    # SVD one does at the same relative cutoff.
    a = qcqp.constraint_catalog("r+c+h")
    rng = np.random.default_rng(29)
    for _ in range(5):
        g = rng.standard_normal((10, 10))
        schur = sdp._schur(a, g @ g.T + 0.1 * np.eye(10))
        sing = np.linalg.svd(schur, compute_uv=False)
        assert sing[-1] < 1e-15 * sing[0] and sing[-2] > 1e-4 * sing[0]
        rhs = rng.standard_normal((len(a), 3))
        want = np.linalg.pinv(schur, rcond=1e-13) @ rhs
        got = sdp._pseudo_inverse(schur)(rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("status", ["optimal", "max_iter", "breakdown"])
def test_max_iter_returns_best_iterate(monkeypatch, status):
    # On every exit the returned point is the last one logged, not one step past
    # it, and its objectives and residuals are that entry's exactly.
    p, _, _ = constructed_sdp(np.random.default_rng(22))
    if status == "max_iter":
        monkeypatch.setattr(sdp, "MAX_ITER", 3)
    if status == "breakdown":
        scaling, calls = sdp._nt_scaling, []

        def failing(x, s):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("injected breakdown")
            return scaling(x, s)

        monkeypatch.setattr(sdp, "_nt_scaling", failing)
    sol = sdp.solve(p)
    assert sol.status == status
    if status in ("max_iter", "breakdown"):
        assert sol.iterations == 3
    last = sol.iterate_log[-1]
    assert sol.iterations == len(sol.iterate_log) == last["iter"]
    assert sol.primal_obj == last["primal_obj"] and sol.dual_obj == last["dual_obj"]
    assert sol.kkt == {key: last[key] for key in ("primal_residual", "dual_residual", "complementarity")}
    # and the logged numbers are those of the returned point
    x, y = sol.x_primal, sol.multipliers
    assert last["x_norm"] == float(np.linalg.norm(x))
    assert last["primal_obj"] == float(np.sum(p.cost * x)) and last["dual_obj"] == float(p.rhs @ y)


def test_certify_lmi_zero_multipliers_on_indefinite_cost():
    cost = np.diag([1.0, -1.0])
    constraints = np.eye(2)[None]
    eigenvalues, _ = sdp.certify_lmi(cost, constraints, np.zeros(1))
    assert not lmi_is_psd(cost, constraints, np.zeros(1))
    assert eigenvalues[0] < -0.5


def test_certify_lmi_noise_free_calibration():
    m, _ = random_instance(2, n_motions=20)
    dm = qcqp.assemble(m)
    problem, _ = solver.build_sdp_problem(dm, "r+c+h")
    sol = sdp.solve(problem)
    eigenvalues, _ = sdp.certify_lmi(problem.cost, problem.constraints, sol.multipliers)
    assert lmi_is_psd(problem.cost, problem.constraints, sol.multipliers)
    assert -1e-9 < eigenvalues[0] < 1e-9  # zero-gap case: H touches zero


def test_certify_lmi_rejects_perturbed_homogenizer_multiplier():
    # bumping the homogenizer multiplier by +1 pushes H below zero
    m, _ = random_instance(3, n_motions=20)
    dm = qcqp.assemble(m)
    problem, _ = solver.build_sdp_problem(dm, "r+c+h")
    sol = sdp.solve(problem)
    bad = sol.multipliers.copy()
    bad[-1] += 1.0
    assert not lmi_is_psd(problem.cost, problem.constraints, bad)


def test_certify_lmi_requires_matching_multipliers():
    with pytest.raises(ValueError):
        sdp.certify_lmi(np.eye(2), np.eye(2)[None], np.zeros(2))


def test_iterate_log_schema():
    rng = np.random.default_rng(23)
    p, _, _ = constructed_sdp(rng)
    sol = sdp.solve(p)
    assert len(sol.iterate_log) == sol.iterations
    for it in sol.iterate_log:
        for key in (
            "iter",
            "primal_obj",
            "dual_obj",
            "primal_residual",
            "dual_residual",
            "complementarity",
            "mu",
            "x_norm",
        ):
            assert key in it
