"""Property-based tests: invariances of calibrate and the loader's contract.

Examples are derandomized so every run checks the same cases.
"""

import functools
import io
import itertools
import json
import re
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import newton_terms
import record_scan
from conftest import assert_below_brute_force, brute_force_minimum, candidate_stage, random_instance
from egocal import geom, qcqp, sim, solver
from egocal.errors import CalibrationError, ParseError
from egocal.problem import MeasurementSet, dump_measurements, load_measurements

SLOW = settings(deadline=None, max_examples=8, derandomize=True)
FAST = settings(deadline=None, max_examples=150, derandomize=True)

N_MOTIONS = 15
_INSTANCES = {
    seed: random_instance(seed, n_motions=N_MOTIONS, sigma_r=0.02, sigma_t=0.02)[0]
    for seed in range(3)
}


@functools.cache
def _baseline(seed):
    return solver.calibrate(_INSTANCES[seed])


def _assert_same_extrinsic(a, b):
    assert np.linalg.norm(a.extrinsic.rotation.m - b.extrinsic.rotation.m) < 1e-8
    assert np.linalg.norm(a.extrinsic.translation - b.extrinsic.translation) < 1e-8


@SLOW
@given(seed=st.sampled_from(sorted(_INSTANCES)), order=st.permutations(range(N_MOTIONS)))
def test_calibrate_invariant_under_permutation(seed, order):
    m = _INSTANCES[seed]
    columns = ("ra", "rb", "ta", "tb", "kappa", "tau")
    permuted = MeasurementSet(*(getattr(m, name)[list(order)] for name in columns))
    result = solver.calibrate(permuted)
    assert result.certificate.verdict == _baseline(seed).certificate.verdict
    _assert_same_extrinsic(_baseline(seed), result)


@SLOW
@given(seed=st.sampled_from(sorted(_INSTANCES)), x_seed=st.integers(0, 2**32 - 1))
def test_calibrate_equivariant_under_a_change_of_sensor_b_frame(seed, x_seed):
    # Moving sensor b's frame by X conjugates each of its motions by X and
    # maps every residual through X_R, so the cost is unchanged and the
    # optimum moves from theta to X * theta.
    x = geom.random_transform(x_seed)
    xr, xt = x.rotation.m, x.translation
    m = _INSTANCES[seed]
    rb = xr @ m.rb @ xr.T
    result = solver.calibrate(replace(m, rb=rb, tb=m.tb @ xr.T + xt - rb @ xt))
    base = _baseline(seed)
    assert result.certificate.verdict == base.certificate.verdict
    expected = x.compose(base.extrinsic)
    assert np.linalg.norm(result.extrinsic.rotation.m - expected.rotation.m) < 1e-8
    assert np.linalg.norm(result.extrinsic.translation - expected.translation) < 1e-8


def _scaled(m, factor):
    return replace(m, kappa=factor * m.kappa, tau=factor * m.tau)


@SLOW
@given(seed=st.sampled_from(sorted(_INSTANCES)), factor=st.floats(1e-3, 1e3))
def test_extrinsic_invariant_under_uniform_weight_scaling(seed, factor):
    _assert_same_extrinsic(_baseline(seed), solver.calibrate(_scaled(_INSTANCES[seed], factor)))


def test_verdict_invariant_under_uniform_weight_scaling():
    # The rule compares the gap with GAP_COST * cost + GAP_TRACE * tr(q_tilde),
    # and all three scale with the weights.
    for seed, m in _INSTANCES.items():
        for factor in (1e-3, 1.0, 4.0, 64.0, 1024.0, 1e3):
            result = solver.calibrate(_scaled(m, factor))
            assert result.certificate.verdict == "CertifiedGlobal", (seed, factor)


def _dependencies(constraints):
    """Integer vectors z with sum_i z_i A_i = 0 exactly (the catalog's dependent rows)."""
    _, sv, vt = np.linalg.svd(constraints.reshape(len(constraints), -1).T, full_matrices=True)
    z = vt[np.count_nonzero(sv > 1e-12 * sv[0]) :]
    return np.round(z / np.abs(z).max(axis=1, keepdims=True))


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 30),
    sigma=st.floats(0.0, 0.1),
    kind=st.sampled_from(qcqp.CONSTRAINT_KINDS),
    spread=st.sampled_from([0.0, 1e-2]),
    shift=st.sampled_from([0.0, 1e-9, 1e-6, 1e-2]),
    step=st.sampled_from([0.0, 1e4, 1e8]),
)
def test_dual_bound_never_exceeds_the_cost_of_a_rotation(seed, n, sigma, kind, spread, shift, step):
    # For any y, s * _dual_bound(y) <= r^T q_tilde r for every lifted rotation r.
    # y starts from the refined multipliers at calibrate's rotation, where the
    # bound is tight, and moves off them by random noise, by a homogenizer
    # shift (which lowers H's least eigenvalue and keeps the bound nearly
    # tight) and along exact dependencies of the constraints, which leave H
    # unchanged but round the computed H by about eps * |y|.
    rng = np.random.default_rng(seed)
    m = sim.terrain_instance(rng, n, sigma, sigma)[3]
    dm, problem, scale, y, rotation = candidate_stage(m, kind)
    q_tilde = dm.q_tilde
    candidate = solver._polish(q_tilde, rotation)
    y = solver._refine(problem, y, qcqp.reduced_vector(candidate))
    y = y + spread * rng.normal(size=y.shape)
    y[-1] += shift
    y = y + step * _dependencies(problem.constraints).sum(axis=0)
    bound = scale * solver._dual_bound(problem, y)[0]
    for rotation in [candidate, *(geom.random_rotation(rng).m for _ in range(3))]:
        r_tilde = qcqp.reduced_vector(rotation)
        assert bound <= r_tilde @ q_tilde @ r_tilde + 1e-12 * scale


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 60),
    sigma=st.floats(1e-3, 0.1),
    kind=st.sampled_from(qcqp.CONSTRAINT_KINDS),
    weight=st.sampled_from([1e-12, 1.0, 1e200]),
    from_solver=st.booleans(),
)
def test_refine_is_the_least_squares_least_norm_step(seed, n, sigma, kind, weight, from_solver):
    # _refine's dy against np.linalg.lstsq's least-norm solution of B dy = H(y) r_tilde,
    # B[:, i] = A_i r_tilde, from y = 0 and from the solver's y, at a polished candidate.
    # What H(y + dy) r_tilde keeps beyond rounding is orthogonal to range(B): the
    # tangential part, half the candidate's gradient, which no multiplier reaches.
    rng = np.random.default_rng(seed)
    m = sim.terrain_instance(rng, n, sigma, sigma)[3]
    m = replace(m, kappa=weight * m.kappa, tau=weight * m.tau)
    try:
        dm, problem, _, y, rotation = candidate_stage(m, kind)
    except CalibrationError:
        return
    r_tilde = qcqp.reduced_vector(solver._polish(dm.q_tilde, rotation))
    start = y if from_solver else np.zeros_like(y)
    b = (problem.constraints @ r_tilde).T
    dy = np.linalg.lstsq(b, problem.cost @ r_tilde - b @ start, rcond=None)[0]
    refined = solver._refine(problem, start, r_tilde)
    scale = np.linalg.norm(dy) + np.linalg.norm(start)
    assert np.linalg.norm(refined - (start + dy)) <= 1e-12 * scale

    def residual(multipliers):
        return problem.cost @ r_tilde - b @ multipliers

    rounding = 100 * np.finfo(float).eps * (1.0 + np.abs(refined).sum())
    assert np.linalg.norm(b.T @ residual(refined)) <= rounding
    assert np.linalg.norm(residual(refined)) <= np.linalg.norm(residual(start + dy)) + rounding


@SLOW
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 30), sigma=st.floats(0.0, 0.1))
def test_certified_cost_is_no_worse_than_local_restarts(seed, n, sigma):
    rng = np.random.default_rng(seed)
    m = sim.terrain_instance(rng, n, sigma, sigma)[3]
    try:
        result = solver.calibrate(m)
    except CalibrationError:
        return
    if not result.certificate.certified:
        return
    for _ in range(5):
        local = solver.local_solve(m, init=geom.random_transform(rng, translation_scale=2.0))
        assert result.cost <= local.cost + 1e-9 * (1.0 + result.cost)


@settings(deadline=None, max_examples=20, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), sigma=st.floats(0.0, 0.1))
def test_terrain_answers_respect_a_brute_force_minimum(seed, n, sigma):
    # The checks of test_solver.py's two-motion run, on terrain drives under every catalog.
    rng = np.random.default_rng(seed)
    m = sim.terrain_instance(rng, n, sigma, sigma)[3]
    try:
        q_tilde = qcqp.assemble(m).q_tilde
    except CalibrationError:
        return
    oracle = brute_force_minimum(q_tilde, rng)
    for kind in qcqp.CONSTRAINT_KINDS:
        assert_below_brute_force(solver.calibrate(m, kind), q_tilde, oracle)


_finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def measurement_sets(draw):
    n = draw(st.integers(1, 6))
    rotations = [geom.random_rotation(draw(st.integers(0, 2**32 - 1))).m for _ in range(2 * n)]
    vectors = st.lists(_finite, min_size=3, max_size=3)
    weights = st.lists(st.floats(1e-6, 1e6), min_size=n, max_size=n)
    return MeasurementSet(
        ra=rotations[:n],
        rb=rotations[n:],
        ta=[draw(vectors) for _ in range(n)],
        tb=[draw(vectors) for _ in range(n)],
        kappa=draw(weights),
        tau=draw(weights),
    )


@FAST
@given(m=measurement_sets())
def test_dump_load_round_trips_the_arrays(m):
    buf = io.StringIO()
    dump_measurements(m, buf)
    back = load_measurements(buf.getvalue())
    # Rotations are re-projected onto SO(3) on load; everything else is exact.
    assert np.allclose(back.ra, m.ra, rtol=0, atol=1e-14)
    assert np.allclose(back.rb, m.rb, rtol=0, atol=1e-14)
    for name in ("ta", "tb", "kappa", "tau"):
        assert np.array_equal(getattr(back, name), getattr(m, name))


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=10,
)
_rotation = st.integers(0, 100).map(lambda seed: geom.random_rotation(seed).m.tolist())
# R has 2-4 rows of 2-4 numbers and t 2-4 numbers, so a ragged pose whose numbers
# add up to a good pose's count is drawn too: the loader must still refuse it.
_numbers = functools.partial(st.lists, st.floats(), min_size=2, max_size=4)
_pose = st.fixed_dictionaries(
    {
        "R": _rotation | _json | st.lists(_numbers(), min_size=2, max_size=4),
        "t": _numbers() | _json,
    }
)
_record = st.fixed_dictionaries(
    {"a": _pose | _json, "b": _pose}, optional={"kappa": _json, "tau": _json}
)
_line = (
    _record.map(json.dumps)
    | _json.map(json.dumps)
    | st.text(max_size=30)
    # A record, often a valid one, with trailing data: both loaders must refuse it alike.
    | st.tuples(
        _record.map(json.dumps) | st.deferred(lambda: _log_records()), st.text(max_size=5)
    ).map("".join)
)


@FAST
@given(source=st.lists(_line, max_size=4).map("\n".join) | st.text() | st.binary())
def test_arbitrary_input_loads_or_raises_calibration_error(source):
    try:
        m = load_measurements(source)
    except CalibrationError:
        return
    assert isinstance(m, MeasurementSet) and m.n >= 1


def _load_both(source):
    """The loader's and the per-record reference reader's result (set or error) on a source."""
    results = []
    for load in (load_measurements, record_scan.load_measurements):
        try:
            results.append(load(source))
        except CalibrationError as exc:
            results.append(exc)
    return results


def _assert_same_columns(loaded, scanned):
    for name in ("ra", "rb", "ta", "tb", "kappa", "tau"):
        a, b = getattr(loaded, name), getattr(scanned, name)
        assert a.dtype == b.dtype == float and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@FAST
@given(source=st.lists(_line, max_size=4).map("\n".join) | st.text() | st.binary())
def test_one_conversion_accepts_only_what_the_record_scan_accepts(source):
    loaded, scanned = _load_both(source)
    if isinstance(scanned, CalibrationError):
        assert type(loaded) is type(scanned)
        if isinstance(scanned, ParseError):
            assert loaded.line == scanned.line
        else:  # InvalidRotation or EmptyInput: the same message
            assert str(loaded) == str(scanned)
    else:
        _assert_same_columns(loaded, scanned)


# Integers of any size up to 2**80, beyond int64, round to float alike in both
# readers; weights stay in (0, inf).
_number = st.floats(-1e3, 1e3) | st.integers(-(2**80), 2**80)
_weight = st.floats(1e-6, 1e6) | st.integers(1, 2**80)


def _halfway(mantissa, exponent):
    """The exact decimal text of (mantissa + 1/2) * 2**exponent: for a 53-bit mantissa,
    the point halfway between two adjacent doubles, which rounds to the even one."""
    numerator, shift = 2 * mantissa + 1, exponent - 1
    if shift >= 0:
        return str(numerator << shift)
    digits = str(numerator * 5**-shift).rjust(1 - shift, "0")  # numerator / 2**-shift
    return digits[:shift] + "." + digits[shift:]


@st.composite
def _long_mantissa(draw):
    digits = str(draw(st.integers(10**16, 10**25 - 1)))  # 17 to 25 digits
    point, exponent = draw(st.integers(1, len(digits))), draw(st.integers(-30, 30))
    return f"{digits[:point]}.{digits[point:]}e{exponent}".replace(".e", "e")


# JSON number literals written as text, where a decoder's own conversion could round
# otherwise than Python's float() and int(): long mantissas, exact halfway points,
# subnormals and the ends of the float range, 0, and integers about 2**63, 2**64,
# 2**80 and 10**309; an entry may be negative, -0 too. 1.7976931348623159e308 rounds
# to inf and 10**309 does not fit a float: both are refused, like 0 and 1e-400 as
# weights.
_number_text = st.one_of(
    _long_mantissa(),
    st.tuples(st.integers(2**52, 2**53 - 1), st.integers(-100, 20)).map(lambda a: _halfway(*a)),
    st.integers(1, 2**52 - 1).map(lambda k: repr(k * 5e-324)),  # subnormals
    st.sampled_from(["4.9e-324", "1e-400", "2.4703282292062327e-324", "2.4703282292062328e-324",
                     "2.2250738585072011e-308", "1.7976931348623157e308",
                     "1.7976931348623159e308", "0", "0.0"]),
    st.sampled_from([2**63, 2**64, 2**80, 10**309]).flatmap(
        lambda k: st.sampled_from([str(k - 1), str(k), str(k + 1)])),
)
_entry = _number | st.tuples(st.sampled_from(["", "-"]), _number_text).map("".join)


def _dumps(record):
    """json.dumps of a record whose strings that start like a number are number literals."""
    return re.sub(r'"(-?[0-9][^"]*)"', r"\1", json.dumps(record))


# Signed permutation matrices of determinant 1: rotations with integer entries.
_INTEGER_ROTATIONS = [
    m.tolist()
    for p in itertools.permutations(np.eye(3, dtype=int))
    for s in itertools.product((1, -1), repeat=3)
    if round(np.linalg.det(m := np.array(p) * np.array(s)[:, None])) == 1
]


@st.composite
def _log_records(draw, entry=_entry, weight=_weight | _number_text):
    rotation = draw(_rotation | st.sampled_from(_INTEGER_ROTATIONS))
    pose = {"R": rotation, "t": draw(st.lists(entry, min_size=3, max_size=3))}
    fields = {"a": pose, "b": {"t": draw(st.lists(entry, min_size=3, max_size=3)), "R": pose["R"]}}
    fields["t"] = draw(st.integers(0, 10**6))  # an extra key
    for key in ("kappa", "tau"):
        if draw(st.booleans()):
            fields[key] = draw(weight)
    order = draw(st.permutations(sorted(fields)))
    return _dumps({key: fields[key] for key in order})


@FAST
@given(
    records=st.lists(_log_records(), min_size=1, max_size=6),
    blanks=st.lists(st.sampled_from(["", " ", "\t", "\r"]), max_size=6),
    order=st.randoms(use_true_random=False),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_one_conversion_matches_the_record_scan(records, blanks, order, newline):
    lines = records + blanks
    order.shuffle(lines)
    text = newline.join(lines) + newline
    for source in (text, text.encode()):
        loaded, scanned = _load_both(source)
        if isinstance(scanned, ParseError):  # a number beyond the float range, or a weight of 0
            assert type(loaded) is ParseError and loaded.line == scanned.line
        else:
            _assert_same_columns(loaded, scanned)


_GOOD_CUTS = list(range(3, 24, 3))


@st.composite
def _regrouped_record(draw):
    """A record of two otherwise valid poses whose 24 numbers (a's R row by row, its t,
    then b's) are cut into the rows of each R and its t at 7 drawn points, so the
    totals hold but at least one row or t is not 3 long."""
    numbers = []
    for _ in "ab":
        numbers += itertools.chain(*draw(_rotation), draw(st.lists(_number, min_size=3, max_size=3)))
    cuts = draw(st.lists(st.integers(0, 24), min_size=7, max_size=7).map(sorted)
                .filter(lambda cuts: cuts != _GOOD_CUTS))
    bounds = [0, *cuts, 24]
    rows = [numbers[start:end] for start, end in zip(bounds, bounds[1:])]
    fields = {"a": {"R": rows[0:3], "t": rows[3]}, "b": {"R": rows[4:7], "t": rows[7]}}
    for key in ("kappa", "tau"):
        if draw(st.booleans()):
            fields[key] = draw(st.floats(1e-6, 1e6))
    return json.dumps(fields)


@FAST
@given(records=st.lists(_log_records(_number, _weight), max_size=3), ragged=_regrouped_record(),
       at=st.integers(0, 3))
def test_ragged_pose_rows_are_refused_even_when_the_numbers_add_up(records, ragged, at):
    # a loader that only counts each record's numbers would take this line, shifting
    # the poses' entries across rows; the record scan refuses it by its line
    lines = records[:at] + [ragged] + records[at:]
    loaded, scanned = _load_both("\n".join(lines))
    assert isinstance(scanned, ParseError) and scanned.line == min(at, len(records)) + 1
    assert type(loaded) is ParseError and loaded.line == scanned.line


@functools.cache
def _scaled_q_tilde(seed, weight):
    _, _, _, m = sim.terrain_instance(np.random.default_rng([seed, 30]), 30, 0.05, 0.05)
    return qcqp.assemble(replace(m, kappa=weight * m.kappa, tau=weight * m.tau)).q_tilde


@FAST
@given(seed=st.integers(0, 2), weight=st.sampled_from([1e-12, 1.0, 1e200]),
       r_seed=st.integers(0, 2**32 - 1))
def test_newton_model_matches_the_explicit_formulas(seed, weight, r_seed):
    # the polish's quadratic model against f, g and H from their formulas
    q_tilde = _scaled_q_tilde(seed, weight)
    r = geom.random_rotation(r_seed).m
    got = solver._newton_terms(solver._newton_model(q_tilde), qcqp.reduced_vector(r))
    want = newton_terms.newton_terms(q_tilde, r)
    bound = 1e-12 * np.trace(q_tilde)
    for a, b in zip(got, want):
        assert np.all(np.abs(np.asarray(a) - b) <= bound)


@settings(deadline=None, max_examples=400, derandomize=True)
@given(
    r_seed=st.integers(0, 2**32 - 1),
    eigenvalues=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    gap=st.sampled_from([None, 0.0, 1e-16, 1e-13, 1e-10, 1e-7, 1e-4]),
    low=st.sampled_from([None, 1e-4, 4e-4, 5e-4, 6e-4, -5e-4]),
    exponent=st.integers(-300, 300),
    g_seed=st.integers(0, 2**32 - 1),
    prior=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]),
)
def test_damped_step_matches_the_eigh_step(r_seed, eigenvalues, gap, low, exponent, g_seed,
                                           prior):
    # H = s Q diag(lambda) Q^T with max|lambda| = 1: eigenvalues of both signs, a pair
    # repeated or nearly so (relative gap down to 1e-16), optionally placed around
    # d / 2 = 5e-4, where mu = d - 2 lambda_min is most sensitive to lambda_min's
    # error, and s from 1e-300 to 1e300. mu (relative to max|lambda(H)|) and the
    # step match the eigh oracle within 1e-7 relative, and H + mu I keeps its
    # smallest eigenvalue at d / 2 or above.
    lam = np.array(eigenvalues)
    if gap is not None:
        lam[1] = lam[0] * (1.0 + gap)
    assume(np.abs(lam).max() > 0.0)
    lam /= np.abs(lam).max()
    if low is not None:
        lam[:2] = low * np.array([1.0, 1.0 + (gap or 0.0)])
        lam[2] = 1.0 if lam[2] >= 0.0 else -1.0
    size = 10.0**exponent
    q = geom.random_rotation(r_seed).m
    hess = size * ((q * lam) @ q.T)
    grad = size * np.random.default_rng(g_seed).normal(size=3)
    norm = size * np.abs(lam).max()
    step, mu, damping = solver._damped_step(hess.tolist(), grad.tolist(), prior * norm)
    want_step, want_mu, want_damping = newton_terms.eigh_step(hess, grad, prior * norm)
    assert abs(mu - want_mu) <= 1e-7 * norm
    assert abs(damping - want_damping) <= 1e-7 * want_damping
    assert np.linalg.norm(np.array(step) - want_step) <= 1e-7 * np.linalg.norm(want_step)
    lower = np.tril(hess)
    shifted = lower + np.tril(hess, -1).T + mu * np.eye(3)
    assert np.linalg.eigvalsh(shifted)[0] >= 0.5 * damping - 1e-12 * norm
