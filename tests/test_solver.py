import json
import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

import qcqp_blocks
from conftest import (assert_below_brute_force, brute_force_minimum, candidate_stage,
                      loose_two_motion_instance, random_instance, two_motion_hard_instance)
from egocal import geom, problem, qcqp, sdp, sim, solver
from egocal.errors import NumericalFailure, RankDeficiencyAmbiguous, SingularQtt
from egocal.geom import RotationMatrix, Transform
from egocal.problem import MeasurementSet, check_observability, translation_gram


def test_two_motion_instance_recovery():
    # quarter-turn + 1 m about x, then about y, with a known extrinsic
    m = sim.two_motion_instance(sim.DEFAULT_THETA)
    result = solver.calibrate(m)
    assert result.certificate.verdict == "CertifiedGlobal"
    assert np.linalg.norm(result.extrinsic.rotation.m - sim.DEFAULT_THETA.rotation.m) < 1e-6
    assert np.linalg.norm(result.extrinsic.translation - sim.DEFAULT_THETA.translation) < 1e-6


def test_identity_calibration_fixed_point():
    # v_a = v_b exactly means theta = identity is a zero-cost solution
    rng = np.random.default_rng(1)
    r = [geom.rotation_about(axis, 1.0) for axis in np.eye(3)[:2]]
    t = rng.normal(size=(2, 3))
    result = solver.calibrate(MeasurementSet(r, r, t, t, np.ones(2), np.ones(2)))
    assert np.linalg.norm(result.extrinsic.matrix() - np.eye(4)) < 1e-6
    assert result.cost < 1e-12


def test_noisy_instance_dominates_ground_truth():
    m, theta = random_instance(2, n_motions=100, sigma_r=0.05, sigma_t=0.05)
    result = solver.calibrate(m)
    assert result.cost <= solver.evaluate_cost(m, theta) + 1e-9


def test_certificate_gap_soundness():
    m, _ = random_instance(3, n_motions=50, sigma_r=0.05, sigma_t=0.05)
    result = solver.calibrate(m)
    assert result.certificate.certified
    assert result.certificate.gap >= -1e-9 * (1 + abs(result.cost))
    assert result.certificate.gap < 1e-6 * (1 + abs(result.cost))


@pytest.mark.parametrize(
    "cost, lower_bound", [(np.inf, 0.1), (1.0, np.inf), (np.nan, 0.1), (1.0, np.nan)]
)
def test_a_non_finite_cost_or_bound_never_certifies(cost, lower_bound):
    # inf - 0.1 <= 1e-7 inf and 1 - inf <= 1e-7 hold in floating point; neither certifies
    certificate = solver.Certificate(lower_bound=lower_bound, cost=cost, min_eig_h=0.0, scale=1.0)
    assert not certificate.certified
    assert certificate.verdict == "NotCertified"


def test_certified_result_beats_random_local_restarts():
    m, _ = random_instance(4, n_motions=30, sigma_r=0.05, sigma_t=0.05)
    result = solver.calibrate(m)
    assert result.certificate.certified
    rng = np.random.default_rng(5)
    for _ in range(100):
        init = geom.random_transform(rng, translation_scale=2.0)
        local = solver.local_solve(m, init=init)
        assert local.cost >= result.cost - 1e-6


def test_left_invariance():
    # premultiplying both world trajectories by a fixed transform leaves the
    # relative motions, hence the calibration, unchanged
    from egocal.problem import relative_motions_from_trajectories

    rng = np.random.default_rng(6)
    theta = geom.random_transform(rng, translation_scale=0.5)
    path = sim.generate_path(n_steps=21, seed=int(rng.integers(2**31)))
    poses_a, poses_b = sim.sensor_trajectories(path, theta)
    g = geom.random_transform(rng)
    r, t = g.rotation.m, g.translation
    moved_a, moved_b = (
        (r @ rotations, (r @ translations[:, :, None])[:, :, 0] + t)
        for rotations, translations in (poses_a, poses_b)
    )
    m1 = relative_motions_from_trajectories(poses_a, poses_b)
    m2 = relative_motions_from_trajectories(moved_a, moved_b)
    r1 = solver.calibrate(m1)
    r2 = solver.calibrate(m2)
    assert np.linalg.norm(r1.extrinsic.matrix() - r2.extrinsic.matrix()) < 1e-10


def _planar_motions():
    """Two motions about the z axis only: the single-axis failure mode."""
    r = [geom.rotation_about(np.array([0.0, 0.0, 1.0]), angle) for angle in (0.5, 1.1)]
    t = np.tile([1.0, 0.0, 0.0], (2, 1))
    return MeasurementSet(r, r, t, t, np.ones(2), np.ones(2))


def test_singular_qtt_propagates():
    with pytest.raises(SingularQtt):
        solver.calibrate(_planar_motions())


def test_calibrate_decides_observability_once(monkeypatch):
    # assembly reads q_tt from its own moment and the result reports that decision:
    # no separate translation_gram pass and one 3x3 eigvalsh per request
    m, _ = random_instance(27, n_motions=30, sigma_r=0.01, sigma_t=0.01)
    gram, eigvalsh = problem.translation_gram, np.linalg.eigvalsh
    grams, q_tt_eigs = [], []

    def counted_gram(ms):
        grams.append(ms)
        return gram(ms)

    def counted_eigvalsh(a, *args, **kwargs):
        if np.shape(a) == (3, 3):
            q_tt_eigs.append(a)
        return eigvalsh(a, *args, **kwargs)

    for module in (problem, qcqp, solver):
        if vars(module).get("translation_gram") is gram:
            monkeypatch.setattr(module, "translation_gram", counted_gram)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    result = solver.calibrate(m)
    assert (len(grams), len(q_tt_eigs)) == (0, 1)
    assert asdict(result.observability) == asdict(check_observability(gram(m)))


def test_overflowing_kappa_is_refused_before_the_sdp(monkeypatch):
    # kappa = 1e308 overflows the rotation moments to NaN while q_tt (tau only)
    # stays observable: assembly refuses q before any SDP runs on it
    m, _ = random_instance(3, n_motions=10)
    m = replace(m, kappa=np.full(m.n, 1e308))

    def unreachable(*args, **kwargs):
        raise AssertionError("sdp.solve reached with a non-finite data matrix")

    monkeypatch.setattr(sdp, "solve", unreachable)
    with pytest.raises(NumericalFailure, match="kappa and tau"):
        solver.calibrate(m)


def test_subnormal_weights_are_refused_by_name():
    # tau = 1e-310 passes the loader, assembly's finiteness check and the
    # observability test, but the translation solve on the subnormal q_tt gives
    # a NaN t_map and q_tilde: refused there, naming the weights, not left to
    # fail in the dual slack's eigendecomposition
    m = sim.terrain_instance(np.random.default_rng(0), 50, 0.01, 0.01)[3]
    with pytest.raises(NumericalFailure, match="kappa and tau"):
        solver.calibrate(replace(m, tau=np.full(m.n, 1e-310)))


def test_weights_whose_reduced_trace_overflows_are_refused_by_name():
    # at kappa, tau x1e306 q and q_tilde are finite (max |q_tilde| about 5e307),
    # but tr(q_tilde), which normalizes the SDP and the polish's resolution,
    # overflows: refused in assembly, naming the weights, with no warning.
    # x1e305 still certifies.
    m = sim.terrain_instance(np.random.default_rng([15, 7]), 38, 0.047, 0.047)[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalFailure, match="kappa and tau are too large"):
            solver.calibrate(replace(m, kappa=1e306 * m.kappa, tau=1e306 * m.tau))
        assert solver.calibrate(replace(m, kappa=1e305 * m.kappa, tau=1e305 * m.tau)).certificate.certified


@pytest.mark.parametrize("scale", [1e-308, 1e-300, 1e-100, 1e-12, 1e-4, 1.0, 100.0, 1e4,
                                   1e12, 1e100, 1e200, 1e300, 1e306, 1e308])
def test_assembly_refuses_or_hands_the_sdp_a_finite_symmetric_cost(scale):
    # sdp.SdpProblem trusts its arrays: at any weight scale, kappa and tau scaled
    # together or apart, assembly refuses by name or the SDP's cost is finite and
    # exactly symmetric, with the catalog's shapes.
    for log in [(0, 50), (1, 50)]:
        m = sim.terrain_instance(np.random.default_rng(log), 50, 0.05, 0.05)[3]
        for kappa, tau in [(scale, scale), (scale, 1.0), (1.0, scale)]:
            try:
                dm = qcqp.assemble(replace(m, kappa=kappa * m.kappa, tau=tau * m.tau))
            except (NumericalFailure, SingularQtt):
                continue
            for kind in qcqp.CONSTRAINT_KINDS:
                p, _ = solver.build_sdp_problem(dm, kind)
                c, rows = p.cost, len(p.constraints)
                assert np.isfinite(c).all() and np.array_equal(c, c.T) and c.shape == (10, 10)
                assert p.constraints.shape == (rows, 10, 10) and p.rhs.shape == (rows,)
                assert p.interior[0].shape == (10, 10) and p.interior[1].shape == (rows,)


@pytest.mark.parametrize("kappa, tau", [(1e16, 1.0), (1.0, 1e200)])
def test_lopsided_or_huge_weights_certify_without_a_warning(kappa, tau):
    # kappa/tau = 1e16 extracts a rotation of about 4e-14 R from the start stage,
    # which the projection takes by its condition; tau = 1e200 puts the polish's
    # gradients past the square root of the float range, so |g|^2 would overflow
    m = sim.terrain_instance(np.random.default_rng([0, 50]), 50, 0.01, 0.01)[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = solver.calibrate(replace(m, kappa=np.full(m.n, kappa), tau=np.full(m.n, tau)))
    assert result.certificate.certified and np.isfinite(result.cost)


def test_report_writes_an_infinite_condition_as_null():
    # JSON has no Infinity literal; the local baseline reports on unobservable data
    report = solver.local_solve(_planar_motions()).to_dict()["observability"]
    assert report == {"observable": False, "condition_estimate": None}


def test_local_report_writes_its_unproven_bound_as_null():
    # the local baseline proves no bound: its lower_bound, gap and min_eig_H are NaN
    text = json.dumps(solver.local_solve(_planar_motions()).to_dict(), allow_nan=False)
    certificate = json.loads(text)["certificate"]
    assert certificate == {
        "lower_bound": None, "gap": None, "min_eig_H": None, "verdict": "NotCertified"
    }


def _slack_annihilating(*vectors, seed):
    """certify_lmi's eigenvectors of a 10x10 H whose nullspace is spanned by
    `vectors`; its other eigenvalues lie in [1, 2]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(np.column_stack([*vectors, rng.normal(size=(10, 10 - len(vectors)))]))
    eigenvalues = np.concatenate([np.zeros(len(vectors)), rng.uniform(1.0, 2.0, 10 - len(vectors))])
    return sdp.certify_lmi(q @ np.diag(eigenvalues) @ q.T, np.zeros((1, 10, 10)), np.zeros(1))[1]


def test_extract_solution_rank_one_exact():
    # H annihilates exactly one direction, the lifted rotation
    r = geom.random_rotation(7).m
    rotation = solver.extract_solution(_slack_annihilating(qcqp.reduced_vector(r), seed=7))
    assert np.linalg.norm(rotation - r) < 1e-12


def test_extract_solution_sign_normalized():
    # the lifted vector with y = -1 encodes the same rotation
    r = geom.random_rotation(8).m
    rotation = solver.extract_solution(_slack_annihilating(-qcqp.reduced_vector(r), seed=8))
    assert np.linalg.norm(rotation - r) < 1e-12


def test_extract_solution_from_a_two_dimensional_nullspace():
    # H annihilates the lifts of two rotations: the minimum eigenvector is
    # some mix of them, and extraction still returns a rotation (the bound,
    # not the extraction, decides the verdict)
    v1, v2 = (qcqp.reduced_vector(geom.random_rotation(seed).m) for seed in (9, 10))
    rotation = solver.extract_solution(_slack_annihilating(v1, v2, seed=9))
    RotationMatrix(rotation)  # raises InvalidRotation unless in SO(3)
    assert abs(np.linalg.det(rotation) - 1.0) < 1e-12


def test_extract_solution_zero_homogenizer_raises():
    v = np.zeros(10)
    v[0] = 1.0
    with pytest.raises(RankDeficiencyAmbiguous):
        solver.extract_solution(_slack_annihilating(v, seed=11))


def test_extract_solution_uses_dual_nullspace():
    # the null vector of H is rescaled to y = 1 and projected onto SO(3)
    r = geom.random_rotation(11).m
    noisy = qcqp.reduced_vector(r) + 1e-4 * np.random.default_rng(12).normal(size=10)
    rotation = solver.extract_solution(_slack_annihilating(noisy, seed=12))
    expected = geom.nearest_rotations((noisy[:9] / noisy[9]).reshape(3, 3, order="F"))
    assert np.linalg.norm(rotation - expected) < 1e-12
    assert np.linalg.norm(rotation - r) < 1e-3


def test_recover_translation_noise_free():
    m, theta = random_instance(13, n_motions=20)
    dm = qcqp.assemble(m)
    r_tilde = qcqp.reduced_vector(theta.rotation.m)
    t = solver.recover_translation(dm, r_tilde)
    assert np.linalg.norm(t - theta.translation) < 1e-9


def test_recover_translation_matches_normal_equations():
    m, _ = random_instance(14, n_motions=20, sigma_r=0.05, sigma_t=0.05)
    dm = qcqp.assemble(m)
    r = geom.random_rotation(15).m
    r_tilde = qcqp.reduced_vector(r)
    t = solver.recover_translation(dm, r_tilde)
    expected = np.linalg.lstsq(dm.q_tt, -dm.q[:3, 3:] @ r_tilde, rcond=None)[0]
    assert np.linalg.norm(t - expected) < 1e-10


def test_recover_translation_pure_translation_identity():
    # equal pure translations on both sensors are explained by theta = identity
    r, t = np.tile(np.eye(3), (2, 1, 1)), np.eye(3)[:2]
    m = MeasurementSet(r, r, t, t, np.ones(2), np.ones(2))
    # rotations are all identity so q_tt is singular; check the residual route:
    # the homogenized translation residual at theta = identity is zero
    res = m.ta @ np.eye(3).T + np.zeros(3) - m.rb @ np.zeros(3) - m.tb
    assert np.linalg.norm(res) < 1e-15


def test_evaluate_cost_zero_at_truth():
    m, theta = random_instance(16, n_motions=20)
    assert solver.evaluate_cost(m, theta) < 1e-18


def test_evaluate_cost_matches_quadratic_form():
    rng = np.random.default_rng(17)
    for k in range(50):
        m, _ = random_instance(100 + k, n_motions=6, sigma_r=0.05, sigma_t=0.05)
        theta = geom.random_transform(rng, translation_scale=2.0)
        dm = qcqp.assemble(m)
        x = qcqp_blocks.full_vector(theta.translation, theta.rotation.m)
        quad = float(x @ dm.q @ x)
        direct = solver.evaluate_cost(m, theta)
        assert abs(quad - direct) < 1e-10 * (1 + abs(direct))


def test_evaluate_cost_linear_in_weights():
    m, _ = random_instance(18, n_motions=5, sigma_r=0.05, sigma_t=0.05)
    doubled = replace(m, kappa=2 * m.kappa, tau=2 * m.tau)
    theta = geom.random_transform(19)
    assert abs(solver.evaluate_cost(doubled, theta) - 2 * solver.evaluate_cost(m, theta)) < 1e-10


def test_local_solve_from_truth():
    m, theta = random_instance(20, n_motions=20)
    result = solver.local_solve(m, init=theta)
    assert result.cost < 1e-18
    assert np.linalg.norm(result.extrinsic.matrix() - theta.matrix()) < 1e-9
    assert result.certificate.verdict == "NotCertified"


def test_local_solve_never_certifies():
    m, _ = random_instance(21, n_motions=10, sigma_r=0.01, sigma_t=0.01)
    result = solver.local_solve(m)
    assert not result.certificate.certified


def test_local_solve_reports_why_it_stopped(monkeypatch):
    # a tolerance stop is scipy status 1-4; a stop at the evaluation cap is status 0
    import scipy.optimize

    m, _ = random_instance(21, n_motions=10, sigma_r=0.01, sigma_t=0.01)
    stats = solver.local_solve(m).solve_stats
    assert stats["lm_status"] in (1, 2, 3, 4)
    assert stats["lm_stopped_at_max_nfev"] is False
    least_squares = scipy.optimize.least_squares
    monkeypatch.setattr(scipy.optimize, "least_squares",
                        lambda *a, **kw: least_squares(*a, **{**kw, "max_nfev": 3}))
    capped = solver.local_solve(m).solve_stats
    assert capped["lm_status"] == 0
    assert capped["lm_stopped_at_max_nfev"] is True
    json.dumps(capped, allow_nan=False)


def test_local_solve_stationary_gradient():
    # finite-difference gradient of f(R exp([w]x), t + d) at (w, d) = 0
    m, _ = random_instance(22, n_motions=20, sigma_r=0.05, sigma_t=0.05)
    result = solver.local_solve(m)
    r, t = result.extrinsic.rotation.m, result.extrinsic.translation

    def cost(delta):
        rotation = RotationMatrix(r @ geom.rotation_exp(delta[:3]))
        return solver.evaluate_cost(m, Transform(rotation, t + delta[3:]))

    eps = 1e-6
    grad = np.empty(6)
    for i in range(6):
        step = eps * np.eye(6)[i]
        grad[i] = (cost(step) - cost(-step)) / (2 * eps)
    assert np.linalg.norm(grad) < 1e-6 * (1 + result.cost)


def test_local_solve_far_init_never_beats_convex():
    m, theta = random_instance(23, n_motions=30, sigma_r=0.01, sigma_t=0.01)
    convex = solver.calibrate(m)
    rng = np.random.default_rng(24)
    worst_gap = -np.inf
    for _ in range(10):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        offset = geom.rotation_about(axis, 3.0)
        init = Transform(RotationMatrix(theta.rotation.m @ offset), theta.translation + 3.0)
        local = solver.local_solve(m, init=init)
        assert local.cost >= convex.cost - 1e-9
        worst_gap = max(worst_gap, local.cost - convex.cost)
    # at 3 rad offsets at least one run lands in a strictly worse basin
    assert worst_gap > 1e-3


def test_result_serialization_schema():
    m, _ = random_instance(25, n_motions=10)
    result = solver.calibrate(m)
    d = result.to_dict()
    json.dumps(d)
    assert d["schema_version"] == 1
    assert np.asarray(d["theta"]["R"]).shape == (3, 3)
    assert len(d["theta"]["t"]) == 3
    assert set(d["certificate"]) == {"lower_bound", "gap", "min_eig_H", "verdict"}
    assert d["certificate"]["verdict"] == "CertifiedGlobal"
    assert d["certificate"]["lower_bound"] <= d["cost"]
    assert d["observability"] == {
        "observable": True,
        "condition_estimate": check_observability(translation_gram(m)).condition_estimate,
    }
    assert "sdp_iters" in d["solve_stats"]
    assert d["solve_stats"]["sdp_status"] == "optimal"
    kkt = d["solve_stats"]["kkt"]
    for key in ("primal_residual", "dual_residual", "complementarity"):
        assert np.isfinite(kkt[key])


def test_calibrate_deterministic():
    m, _ = random_instance(26, n_motions=15, sigma_r=0.02, sigma_t=0.02)
    a = solver.calibrate(m)
    b = solver.calibrate(m)
    assert np.array_equal(a.extrinsic.rotation.m, b.extrinsic.rotation.m)
    assert np.array_equal(a.extrinsic.translation, b.extrinsic.translation)
    assert a.cost == b.cost


def test_constraint_set_selectable():
    m, theta = random_instance(27, n_motions=20)
    for kind in ("r", "r+c", "r+h", "r+c+h"):
        result = solver.calibrate(m, constraint_set=kind)
        assert result.certificate.certified
        assert np.linalg.norm(result.extrinsic.rotation.m - theta.rotation.m) < 1e-6


def _assert_answered_with_a_valid_bound(status):
    result = solver.calibrate(loose_two_motion_instance(), "r")
    assert result.solve_stats["sdp_status"] == status
    assert result.certificate.verdict == "NotCertified"
    assert result.certificate.lower_bound <= result.cost
    assert np.isfinite(result.certificate.lower_bound)


def test_calibrate_answers_at_the_iteration_cap(monkeypatch):
    # an SDP stopped at its cap still leaves a dual vector, hence a bound
    monkeypatch.setattr(sdp, "MAX_ITER", 2)
    _assert_answered_with_a_valid_bound("max_iter")


def test_report_names_the_tolerance_that_answered():
    # a certified terrain request answers in the start stage; the loose two-motion
    # instance never certifies under 'r', so its SDP is solved to the strict tolerance
    m = sim.terrain_instance(np.random.default_rng([0, 50]), 50, 0.01, 0.01)[3]
    result = solver.calibrate(m)
    assert result.certificate.certified
    assert result.solve_stats["sdp_tolerance"] == 1.0
    loose = solver.calibrate(loose_two_motion_instance(), "r")
    assert not loose.certificate.certified
    assert loose.solve_stats["sdp_tolerance"] == 1e-9


def _strict_pipeline(m, kind):
    """(solution, theta, certificate) of one solve straight to sdp.TOL, built from
    `settle`'s parts: candidates from H's minimum eigenvector and from the ones after
    it, each refined from the solver's y, the cheaper answering by a plain `<`, and
    the proof the first of the largest of this solve's bounds."""
    dm = qcqp.assemble(m)
    problem, scale = solver.build_sdp_problem(dm, kind)
    solution = sdp.solve(problem)
    y = solution.multipliers
    bounds = [solver._dual_bound(problem, y)]
    answers = []
    for column in (0, 1):
        rotation = solver._polish(dm.q_tilde, solver.extract_solution(bounds[0][2][:, column:]))
        translation = solver.recover_translation(dm, qcqp.reduced_vector(rotation))
        theta = Transform(RotationMatrix(rotation), translation)
        answers.append((theta, solver.evaluate_cost(m, theta)))
        refined = solver._refine(problem, y, qcqp.reduced_vector(theta.rotation.m))
        bounds.append(solver._dual_bound(problem, refined))
    theta, cost = answers[1] if answers[1][1] < answers[0][1] else answers[0]
    proof = max(bounds, key=lambda bound: bound[0])
    return solution, theta, solver.Certificate(lower_bound=scale * proof[0], cost=cost,
                                               min_eig_h=proof[1], scale=scale)


@pytest.mark.parametrize(
    "m, max_iter",
    [
        (loose_two_motion_instance(), sdp.MAX_ITER),
        # The proof is the strict first candidate's bound refined from the solver's y.
        (two_motion_hard_instance(0, 11), 2),
        # The second candidate costs 1.7e-16 relative more than the first, so the first answers.
        (two_motion_hard_instance(1, 1), sdp.MAX_ITER),
    ],
    ids=["loose", "hard-0-11-cap-2", "hard-1-1"],
)
def test_an_uncertified_answer_is_the_strict_pipelines_bit_for_bit(monkeypatch, m, max_iter):
    # An answer that certifies in neither stage is the strict stage's: that stage
    # is one solve straight to sdp.TOL from the interior start, its candidates
    # read only its own solution, and the start stage's candidate is dropped. The
    # start stage's one bound, at its refined y, still counts toward the proof, but
    # here it is lower than the strict stage's, so the answers agree bit for bit.
    monkeypatch.setattr(sdp, "MAX_ITER", max_iter)
    staged = solver.calibrate(m, "r")
    solution, theta, certificate = _strict_pipeline(m, "r")
    assert not certificate.certified
    assert np.array_equal(staged.extrinsic.rotation.m, theta.rotation.m)
    assert np.array_equal(staged.extrinsic.translation, theta.translation)
    assert staged.cost == certificate.cost
    assert staged.certificate == certificate
    assert staged.solve_stats["sdp_iters"] == solution.iterations


def _two_stage_pipeline(m, kind):
    """(solution, theta, certificate, route) of both of `settle`'s stages, written out
    straight from its parts. The start stage solves to 1.0, proposes from H at y0 and
    bounds at the y refined from 0, with no bound at y0. Only when that answer does not
    certify, the strict stage solves afresh to sdp.TOL, bounds at the solver's y and
    proposes from H's minimum eigenvector, refined from that y; when that does not
    certify, from the eigenvectors after it too, and the cheaper answers by a plain
    `<`. The proof is the first of the largest bounds of both stages. The route names
    the candidate that answered."""
    dm = qcqp.assemble(m)
    problem, scale = solver.build_sdp_problem(dm, kind)

    def propose(eigenvectors):
        rotation = solver._polish(dm.q_tilde, solver.extract_solution(eigenvectors))
        translation = solver.recover_translation(dm, qcqp.reduced_vector(rotation))
        theta = Transform(RotationMatrix(rotation), translation)
        return theta, solver.evaluate_cost(m, theta)

    def refined_bound(y, theta):
        refined = solver._refine(problem, y, qcqp.reduced_vector(theta.rotation.m))
        return solver._dual_bound(problem, refined)

    def certificate(bounds, cost):
        proof = max(bounds, key=lambda bound: bound[0])
        return solver.Certificate(lower_bound=scale * proof[0], cost=cost, min_eig_h=proof[1],
                                  scale=scale)

    solution = sdp.solve(problem, tol=1.0)
    y0 = solution.multipliers
    theta, cost = propose(sdp.certify_lmi(problem.cost, problem.constraints, y0)[1])
    bounds = [refined_bound(np.zeros_like(y0), theta)]
    proven = certificate(bounds, cost)
    if proven.certified:
        return solution, theta, proven, "start"
    solution = sdp.solve(problem)
    y = solution.multipliers
    bounds.append(solver._dual_bound(problem, y))
    eigenvectors = bounds[-1][2]
    theta, cost = propose(eigenvectors)
    bounds.append(refined_bound(y, theta))
    proven = certificate(bounds, cost)
    if proven.certified:
        return solution, theta, proven, "first"
    second, second_cost = propose(eigenvectors[:, 1:])
    bounds.append(refined_bound(y, second))
    if second_cost < cost:
        return solution, second, certificate(bounds, second_cost), "second"
    return solution, theta, certificate(bounds, cost), "first"


@pytest.mark.parametrize(
    "m, kind, route, certified",
    [
        (two_motion_hard_instance(0, 0), "r", "start", True),
        (two_motion_hard_instance(0, 3), "r+h", "first", True),
        (two_motion_hard_instance(0, 6), "r+c", "first", False),
        (two_motion_hard_instance(0, 6), "r", "second", False),
        (sim.terrain_instance(np.random.default_rng([0, 50]), 50, 0.01, 0.01)[3], "r+c+h", "start",
         True),
    ],
    ids=["start", "strict-first", "uncertified-first", "uncertified-second", "terrain-n50"],
)
def test_every_answering_route_is_the_two_stage_pipelines_bit_for_bit(m, kind, route, certified):
    # One input per route that answers on the 16x16 two-motion-hard grid under the four
    # catalogs: the start stage certifies; the strict stage's first candidate certifies;
    # neither certifies and the first candidate, or the cheaper second one, answers.
    result = solver.calibrate(m, kind)
    solution, theta, certificate, answered = _two_stage_pipeline(m, kind)
    assert (answered, certificate.certified) == (route, certified)
    assert np.array_equal(result.extrinsic.rotation.m, theta.rotation.m)
    assert np.array_equal(result.extrinsic.translation, theta.translation)
    assert result.cost == certificate.cost
    assert result.certificate == certificate
    assert result.solve_stats["sdp_iters"] == solution.iterations
    assert result.solve_stats["sdp_tolerance"] == solution.tolerance


def test_an_uncertified_answer_may_come_from_the_second_candidate(monkeypatch):
    # Under 'r' this instance certifies in neither stage. The start stage and the
    # strict stage's first candidate (H's minimum eigenvector) propose 23.8288; the
    # strict stage's second candidate, from H's second eigenvector, proposes the
    # cheaper 23.6438, which answers.
    m = two_motion_hard_instance(13, 15)
    price, proposed = solver.evaluate_cost, []
    monkeypatch.setattr(solver, "evaluate_cost", lambda *args: proposed.append(price(*args)) or proposed[-1])
    result = solver.calibrate(m, "r")
    assert not result.certificate.certified
    assert result.solve_stats["sdp_tolerance"] == sdp.TOL
    assert [round(cost, 4) for cost in proposed] == [23.8288, 23.8288, 23.6438]
    assert result.cost == min(proposed) == proposed[-1] < 0.999 * proposed[1]
    assert result.certificate.cost == result.cost
    assert result.cost == price(m, result.extrinsic)


def test_answers_respect_a_brute_force_minimum():
    # The minimum of f over 30 000 random rotations, polished, is an upper bound
    # on the global minimum found without the SDP, so no proven bound may exceed
    # it, no certified cost may exceed it by more than the verdict's slack, and
    # no uncertified cost by more than 1e-9 relative. The pairs include (12, 9):
    # under 'r+c' it is NotCertified, and the strict stage's first candidate is a
    # local minimum (7.5802) 17.7% above the global one, which its second
    # candidate finds (6.4388).
    rng = np.random.default_rng(0)
    for i in range(16):
        m = two_motion_hard_instance(i, (i + 13) % 16)
        q_tilde = qcqp.assemble(m).q_tilde
        oracle = brute_force_minimum(q_tilde, rng)
        for kind in qcqp.CONSTRAINT_KINDS:
            result = solver.calibrate(m, kind)
            assert_below_brute_force(result, q_tilde, oracle)
            if not result.certificate.certified:
                assert result.cost <= oracle * (1 + 1e-9), (i, kind)
            if (i, kind) == (12, "r+c"):
                assert not result.certificate.certified and round(result.cost, 4) == 6.4388


@pytest.mark.parametrize(
    "i, j, kind, certified, trace_decade, cost_decade",
    [
        (5, 1, "r", False, -6, -6),  # 2.3e-6 tr q_tilde, 6.3e-6 cost
        (7, 0, "r+c", False, -6, -5),  # 4.3e-6 tr q_tilde, 1.0e-5 cost
        (11, 9, "r+c+h", True, -12, -12),  # 1.9e-12 tr q_tilde, 3.0e-12 cost
    ],
)
def test_the_verdict_rule_at_the_grids_nearest_gaps(i, j, kind, certified, trace_decade,
                                                   cost_decade):
    # On the 16x16 two-motion-hard grid: the uncertified answers nearest the rule under 'r'
    # and under 'r+c' (no other catalog leaves one uncertified), and the certified answer
    # with the largest gap/tr(q_tilde). GAP_COST = 1e-5 would certify (5, 1, 'r'). Every
    # uncertified gap exceeds 2e-6 tr(q_tilde), so no grid answer tells GAP_TRACE = 1e-9
    # from 1e-7.
    certificate = solver.calibrate(two_motion_hard_instance(i, j), kind).certificate
    assert certificate.certified is certified
    assert math.floor(math.log10(certificate.gap / certificate.scale)) == trace_decade
    assert math.floor(math.log10(certificate.gap / certificate.cost)) == cost_decade


def test_each_stage_decomposes_the_dual_slack_twice(monkeypatch):
    # once at the solver's y, for extraction (and, in the strict stage, its bound), and once
    # at the refined y; the strict stage refines against a second candidate when the first
    # does not certify
    certify_lmi, calls = sdp.certify_lmi, []
    monkeypatch.setattr(sdp, "certify_lmi", lambda *args: calls.append(args) or certify_lmi(*args))
    m = sim.terrain_instance(np.random.default_rng([0, 50]), 50, 0.01, 0.01)[3]
    assert solver.calibrate(m).certificate.certified
    assert len(calls) == 2
    calls.clear()
    strict = solver.calibrate(loose_two_motion_instance(), "r")
    assert strict.solve_stats["sdp_tolerance"] == sdp.TOL
    assert len(calls) == 2 + 3


def _start_point_problems():
    """The trace-normalized SDPs, under all four catalogs, of terrain logs (balanced,
    noisy and lopsided weights) and of the two-motion-hard grid's diagonal."""
    logs = [sim.terrain_instance(np.random.default_rng([seed, 50]), 50, sigma, sigma)[3]
            for seed, sigma in ((0, 0.01), (1, 0.05), (2, 0.1))]
    logs.append(replace(logs[0], kappa=np.full(50, 1e16)))
    logs += [two_motion_hard_instance(i, i) for i in range(16)]
    for m in logs:
        dm = qcqp.assemble(m)
        for kind in qcqp.CONSTRAINT_KINDS:
            yield solver.build_sdp_problem(dm, kind)[0]


def test_the_bound_at_the_start_point_is_minus_two_fifths():
    # At y0, H(y0) = q_tilde/s + 0.1 I has lambda_min >= 0.1 > delta, so the bound there
    # is y0[-1] whatever the data: settle's start stage does not compute it.
    for problem in _start_point_problems():
        y0 = sdp.solve(problem, tol=1.0).multipliers
        assert solver._dual_bound(problem, y0)[0] == y0[-1] == -0.4


@pytest.mark.parametrize("scale", [np.finfo(float).tiny, 1e-100, 1e-9, 1.0, 1e9, 1e100, 1e308])
def test_the_start_points_bound_certifies_no_cost(scale):
    # cost + 0.4 s <= 1e-7 cost + 1e-9 s holds at no cost >= 0
    costs = [0.0, 5e-324, 1e-9 * scale, 0.4 * scale, scale, 1e9 * scale, 1e300, 1.7e308]
    for cost in costs:
        certificate = solver.Certificate(lower_bound=-0.4 * scale, cost=cost, min_eig_h=0.1,
                                         scale=scale)
        assert not certificate.certified, cost


@pytest.mark.parametrize("k", [1, 2, 5])
def test_calibrate_answers_after_an_sdp_breakdown(monkeypatch, k):
    # a factorization failure at iteration k ends the solve with its last iterate
    scaling, calls = sdp._nt_scaling, []

    def failing(x, s):
        calls.append(None)
        if len(calls) == k:
            raise np.linalg.LinAlgError("injected breakdown")
        return scaling(x, s)

    monkeypatch.setattr(sdp, "_nt_scaling", failing)
    _assert_answered_with_a_valid_bound("breakdown")


def _newton_terms_at(q_tilde, rotation):
    """(f, g, H) of the polish's quadratic model of q_tilde at a rotation."""
    return solver._newton_terms(solver._newton_model(q_tilde), qcqp.reduced_vector(rotation))


def _reduced_cost(q_tilde, rotation):
    r_tilde = qcqp.reduced_vector(rotation)
    return float(r_tilde @ q_tilde @ r_tilde)


def test_newton_terms_match_finite_differences():
    # gradient and Hessian of w -> f(R exp([w]x)) against central differences
    m, _ = random_instance(41, n_motions=20, sigma_r=0.05, sigma_t=0.05)
    q_tilde = qcqp.assemble(m).q_tilde
    r = geom.random_rotation(3).m
    f0, grad, hess = _newton_terms_at(q_tilde, r)

    def f(w):
        return _reduced_cost(q_tilde, r @ geom.rotation_exp(w))

    h = 1e-4
    basis = np.eye(3) * h
    fd_grad = np.array([(f(e) - f(-e)) / (2 * h) for e in basis])
    fd_hess = np.array(
        [[(f(a + b) - f(a - b) - f(b - a) + f(-a - b)) / (4 * h * h) for b in basis] for a in basis]
    )
    scale = np.trace(q_tilde)
    assert abs(f0 - f(np.zeros(3))) < 1e-13 * scale
    assert np.abs(grad - fd_grad).max() < 1e-7 * scale
    assert np.abs(hess - fd_hess).max() < 1e-6 * scale


@pytest.mark.parametrize("turn", [0.0, 0.05])
def test_polish_reaches_a_stationary_point_of_the_reduced_form(turn):
    # from the rotation extracted at an SDP solve to 1e-4, and from it turned 0.05 rad
    m, _ = random_instance(40, n_motions=30, sigma_r=0.05, sigma_t=0.05)
    dm, _, _, _, rotation = candidate_stage(m)
    turned = geom.rotation_about(np.array([1.0, 2.0, 2.0]) / 3.0, turn)
    start = rotation @ turned
    polished = solver._polish(dm.q_tilde, start)
    cost = _reduced_cost(dm.q_tilde, polished)
    assert cost <= _reduced_cost(dm.q_tilde, start)
    _, grad, _ = _newton_terms_at(dm.q_tilde, polished)
    assert np.linalg.norm(grad) < 1e-10 * np.trace(dm.q_tilde)
    # q_tilde is the cost minimized over t, attained at recover_translation's t
    t = solver.recover_translation(dm, qcqp.reduced_vector(polished))
    assert abs(cost - solver.evaluate_cost(m, Transform(RotationMatrix(polished), t))) <= 1e-12 * cost


def test_polish_resolves_the_rotation_below_the_rounding_of_its_cost():
    # On noise-free data f resolves the rotation only to about sqrt(eps) = 1e-8,
    # so from a start 1e-4 off a last Newton step that f cannot see is needed
    # to reach the rounding of the rotation itself; the gradient shows it.
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    for seed in range(5):
        m, theta = random_instance(seed, n_motions=20)
        q_tilde = qcqp.assemble(m).q_tilde
        for turn in (1e-3, 1e-4, 1e-5, 1e-6):
            start = theta.rotation.m @ geom.rotation_about(axis, turn)
            assert np.linalg.norm(solver._polish(q_tilde, start) - theta.rotation.m) < 1e-13


def test_polish_never_raises_the_cost_from_a_poor_start(monkeypatch):
    # A two-motion-hard instance under 'r': the relaxation is not tight and the
    # extracted rotation is about 54 degrees from the polished one. The cost
    # must not rise at any trial budget, so each step taken lowers it.
    dm, _, _, _, rotation = candidate_stage(loose_two_motion_instance(), "r")
    costs = [_reduced_cost(dm.q_tilde, rotation)]
    for budget in range(1, solver.POLISH_STEPS + 1):
        monkeypatch.setattr(solver, "POLISH_STEPS", budget)
        polished = solver._polish(dm.q_tilde, rotation)
        costs.append(_reduced_cost(dm.q_tilde, polished))
    assert all(later <= earlier for earlier, later in zip(costs, costs[1:]))
    _, grad, hess = _newton_terms_at(dm.q_tilde, polished)
    assert np.linalg.norm(grad) < 1e-10 * np.trace(dm.q_tilde)
    assert np.linalg.eigvalsh(hess)[0] > 0


def _start_stage_candidate(dm):
    """The rotation the start stage of `settle` extracts, at the SDP's start point."""
    problem, _ = solver.build_sdp_problem(dm, "r+c+h")
    y = sdp.solve(problem, tol=1.0).multipliers
    return solver.extract_solution(solver._dual_bound(problem, y)[2])


@pytest.mark.parametrize("log", [(15, 7), (3, 3), (5, 2)])
@pytest.mark.parametrize("weight", [1e-300, 1e-12, 1.0, 1e200])
def test_polish_resolves_the_gradient_at_any_weight_scale(log, weight):
    # From the start stage's candidate the polish takes its last step by the gradient
    # alone, so |g| reaches the rounding of q_tilde whatever the weights' units, also
    # where |g|^2 underflows (x1e-300) or overflows (x1e200) the float range.
    m = sim.terrain_instance(np.random.default_rng(list(log)), 38, 0.047, 0.047)[3]
    dm = qcqp.assemble(replace(m, kappa=weight * m.kappa, tau=weight * m.tau))
    polished = solver._polish(dm.q_tilde, _start_stage_candidate(dm))
    grad = _newton_terms_at(dm.q_tilde, polished)[1]
    assert math.hypot(*grad) <= 1e-15 * dm.q_tilde.trace()


@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (2, 1), (2, 2)])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_damped_step_declines_a_non_finite_hessian(entry, value):
    hess = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
    hess[entry[0]][entry[1]] = value
    assert solver._damped_step(hess, [1.0, 1.0, 1.0], 0.0) is None


def test_damped_step_declines_a_zero_hessian():
    assert solver._damped_step([[0.0] * 3] * 3, [1.0, 1.0, 1.0], 0.0) is None


def test_extreme_eigenvalues_of_a_multiple_of_the_identity():
    # H - mI is zero, so its scale p is 0 and both ends of the spectrum are the mean
    assert solver._extreme_eigenvalues(2, 2, 2, 0, 0, 0) == (2.0, 2.0)


def _edge_spectrum(half_det):
    """B's eigenvalues 2 cos(phi - 2 pi k / 3), k = 0, 1, 2, at cos(3 phi) = half_det."""
    phi = math.acos(half_det) / 3.0
    return [2.0 * math.cos(phi - 2.0 * math.pi * k / 3.0) for k in range(3)]


@pytest.mark.parametrize("mean", [0.0, 1.7])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("spectrum", [
    pytest.param(lambda s: _edge_spectrum(s * (0.99 - 1e-9)), id="smith-side"),
    pytest.param(lambda s: _edge_spectrum(s * (0.99 + 1e-9)), id="lapack-side"),
    pytest.param(lambda s: [s, s, -2.0 * s], id="repeated"),
    pytest.param(lambda s: [0.7 * s, (0.7 + 1e-16) * s, -(1.4 + 1e-16) * s], id="1e-16-apart"),
])
def test_extreme_eigenvalues_on_either_side_of_the_formula_boundary(spectrum, sign, mean):
    # cos(3 phi) = det B / 2 just inside and just past 0.99, where the trigonometric
    # formula gives way to eigvalsh, and a pair repeated or 1e-16 apart; either sign of
    # det B, conjugated by random rotations
    lam = np.array(spectrum(sign)) + mean
    for seed in range(16):
        q = geom.random_rotation(seed).m
        h = (q * lam) @ q.T
        want = np.linalg.eigvalsh(h)
        got = solver._extreme_eigenvalues(h[0, 0], h[1, 1], h[2, 2], h[1, 0], h[2, 0], h[2, 1])
        bound = 32.0 * np.finfo(float).eps * np.abs(want).max()
        assert abs(got[0] - want[0]) <= bound and abs(got[1] - want[2]) <= bound


def test_polish_stops_at_its_start_on_a_zero_cost():
    # the model's Hessian is zero, so `_damped_step` declines the first trial
    r = geom.random_rotation(3).m
    assert np.array_equal(solver._polish(np.zeros((10, 10)), r), r)


def test_sdp_problem_of_a_zero_reduced_cost_keeps_unit_scale():
    # tr(q_tilde) = 0 cannot normalize the cost, so the scale is 1 and the cost stays 0
    dm = qcqp.DataMatrix(q=np.zeros((13, 13)), q_tt=np.eye(3), t_map=np.zeros((3, 10)),
                         q_tilde=np.zeros((10, 10)), observability=check_observability(np.eye(3)))
    problem, scale = solver.build_sdp_problem(dm, "r+c+h")
    assert scale == 1.0
    assert not problem.cost.any()
